"""Blocker-set adversary against arrival-history (symmetric) protocols.

The network is a line in three parts: left + [source] + middle + right, with
the source (node 0) holding every token.  Each phase reuses a family of
disjoint blocker token sets.  A segment watches the first cube-root(n) middle
nodes: in segment round k, blocker sets are injected into nodes v_1..v_k
(v_m receives set k-m+1), so any token that just arrived at v_m shares its
arrival time with a full blocker set and a symmetric policy cannot favor it.
After each segment the watched nodes split: the first `inner_width` retire to
the left of the source, the rest are exiled to the right part.  After each
phase the right part is folded back into the middle.

Counts follow floor-and-clamp concretizations (base-2 logs), recorded in
metadata.  The segment length follows the blocker-set size (cube-root of n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import AdversarySchedule, Edge, RoundSource, line_phases, line_step, node_array, token_mask


def icbrt(n: int) -> int:
    """Integer floor cube root."""
    x = int(round(n ** (1.0 / 3.0)))
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


@dataclass(frozen=True)
class SkbAdversaryParams:
    n: int
    seed: int
    blocker_set_size: int = field(init=False, default=0)
    sets_per_phase: int = field(init=False, default=0)
    phases: int = field(init=False, default=0)
    segments_per_phase: int = field(init=False, default=0)
    segment_rounds: int = field(init=False, default=0)
    inner_width: int = field(init=False, default=0)

    def __post_init__(self):
        n = self.n
        if n < 64:
            raise ValueError(f"n={n} below minimum 64")
        root = icbrt(n)
        log2n = math.log2(n)
        object.__setattr__(self, "blocker_set_size", max(1, root))
        object.__setattr__(self, "sets_per_phase", max(1, root))
        object.__setattr__(self, "phases", line_phases(n, root)[0])
        object.__setattr__(self, "segments_per_phase", max(1, icbrt(n * n)))
        object.__setattr__(self, "segment_rounds", max(1, root))
        # The watched prefix must keep at least one exiled node per segment.
        object.__setattr__(
            self, "inner_width", min(math.ceil(log2n), max(1, root - 1))
        )
        total = self.phases * self.sets_per_phase * self.blocker_set_size
        if total > n // 2:
            raise ValueError(
                f"blocker reservation {total} exceeds half the universe ({n // 2})"
            )

    def clamp_report(self) -> dict:
        root = icbrt(self.n)
        return {
            "phases_clamped": line_phases(self.n, root)[1],
            "inner_width_clamped": math.ceil(math.log2(self.n)) > root - 1,
        }


def blocker_sets(params: SkbAdversaryParams) -> list[list[list[int]]]:
    """Disjoint token sets: sets[i-1][k-1] backs round k of phase i's
    segments.  Reserved ids start at 0; the rest of the universe is never
    injected."""
    size, per_phase = params.blocker_set_size, params.sets_per_phase
    starts = [[(p * per_phase + j) * size for j in range(per_phase)] for p in range(params.phases)]
    return [[list(range(lo, lo + size)) for lo in phase] for phase in starts]


def build_skb_adversary(params: SkbAdversaryParams) -> AdversarySchedule:
    n = params.n
    sets = blocker_sets(params)
    reserved = params.phases * params.sets_per_phase * params.blocker_set_size
    left, source, right = node_array(n), node_array(n, [0]), node_array(n)
    middle = node_array(n, range(1, n))

    meta = {
        "generator": "skb-blocker",
        "params": {
            "n": n,
            "blocker_set_size": params.blocker_set_size,
            "sets_per_phase": params.sets_per_phase,
            "phases": params.phases,
            "segments_per_phase": params.segments_per_phase,
            "segment_rounds": params.segment_rounds,
            "inner_width": params.inner_width,
        },
        "clamped": params.clamp_report(),
        "seed": params.seed,
        "source": 0,
        "blocker_sets": sets,
        "non_blocker_tokens": [reserved, n],  # id range [lo, hi)
        "segments": [],
        "layout_note": (
            "line = left + [source] + middle + right; retired inner nodes keep "
            "their source-adjacent order on the left; exiled nodes are prepended "
            "to the right part (newest nearest the middle)"
        ),
    }

    lines = []  # one line order per segment
    moves: list[tuple[list[Edge], list[Edge]]] = [([], [])]  # hops from the line before
    insertions: dict[int, list[tuple[int, int]]] = {}
    round_index = 0
    width = params.blocker_set_size

    for phase in range(1, params.phases + 1):
        middle, right = middle + right, node_array(n)
        set_masks = [token_mask(s) for s in sets[phase - 1]]
        for segment in range(1, params.segments_per_phase + 1):
            if not middle:
                break
            watched = middle[:width].tolist()  # one int object per node for the segment's pairs
            lines.append(left + source + middle + right)
            start = round_index + 1
            for k in range(1, params.segment_rounds + 1):
                round_index += 1
                # Node v_m receives set B_{phase, k-m+1} (0-based index k - m).
                insertions[round_index] = sorted(zip(watched[:k], set_masks[k - 1 :: -1]))
            left_before = len(left)
            left, middle, right, step = line_step(left, middle, right, width, params.inner_width)
            moves.append(step)
            iw = len(left) - left_before  # the watched nodes that retired
            meta["segments"].append(
                {
                    "phase": phase,
                    "segment": segment,
                    "rounds": [start, round_index],
                    "nodes": watched,
                    "inner": watched[:iw],
                    "outer": watched[iw:],
                }
            )

    return AdversarySchedule(
        n=n,
        horizon=round_index,
        rounds=RoundSource.lines(n, lines, params.segment_rounds, moves),
        insertion_masks=insertions,
        mode="invasive",
        metadata=meta,
        cyclic_extendable=True,
    )
