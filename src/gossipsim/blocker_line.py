"""Blocker-line adversaries: dynamic line networks that quarantine tokens.

The construction keeps the network a line anchored at a source node (node 0,
which initially holds every token).  Time is split into phases; each phase
into segments.  Per segment, a designated 2*sqrt(n)-node interval fronts the
source, a reserved "blocker" token group is scattered over the interval's
first sqrt(n) nodes to dilute difference-based protocols, and after the
segment the interval's first `inner_width` nodes are retired to the left of
the source while the rest are exiled to the far right end.  The nodes right
of the source after the last phase are the target nodes.  Up to the horizon
the source's right neighbour is always an inner node that is retired after
its segment, so no round joins the source to a target node, and the targets
stay starved of the never-scattered token groups (the sentinel tokens) until
a sentinel walks the line to them.

Two variants share the same segments, rounds, horizon, token-group
partition, interval boundaries and target nodes (equal parameters and seed
give matching metadata):

* invasive: blocker tokens are force-inserted by pre-committed events,
* oblivious: there are no insertions; the scatter is part of the start
  distribution (metadata `start_holdings`, on top of the source's tokens),
  and each scatter holder is parked at the far end of the line until its
  segment.

An oblivious adversary cannot insert tokens, and it cannot hand them over
from the source either: the source holds every token, so a round that joins
it to a future target, or that keeps an interval fronting it past its
segment, hands the target a uniformly random token, which is a sentinel with
high probability.  A scatter held from the start, though, mixes along the
line before its segment unless its holders only touch nodes holding the same
tokens, hence the parking.

All asymptotic parameter expressions are concretized with floor and clamped
below at 1; logs are base 2.  Effective values and every clamp are recorded
in the schedule metadata.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

from .core import (
    AdversarySchedule,
    Edge,
    RoundSource,
    canonical_edge,
    derive_rng,
    line_phases,
    line_step,
    node_array,
    token_mask,
)

DEFAULT_EPSILON = 1.0 / 32.0  # largest scatter fraction the dilution bound tolerates
_HALF = bytes(49 - (b >> 7) for b in range(256))  # top byte -> b"1" if its top bit is clear


@dataclass(frozen=True)
class BlockerLineParams:
    """Effective (clamped) parameters for a blocker-line schedule."""

    n: int
    seed: int
    epsilon: float = DEFAULT_EPSILON
    sqrt_n: int = field(init=False, default=0)
    phases: int = field(init=False, default=0)
    segments_per_phase: int = field(init=False, default=0)
    segment_rounds: int = field(init=False, default=0)
    inner_width: int = field(init=False, default=0)

    def __post_init__(self):
        n = self.n
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError(f"n={n} must be a perfect square")
        log2n = math.log2(n)
        object.__setattr__(self, "sqrt_n", m)
        object.__setattr__(self, "phases", line_phases(n, m)[0])
        object.__setattr__(self, "segments_per_phase", max(1, m // 3))
        object.__setattr__(self, "segment_rounds", max(1, int(self.epsilon * m)))
        object.__setattr__(self, "inner_width", math.ceil(log2n))
        if self.inner_width >= m:
            raise ValueError(
                f"n={n} too small: inner width {self.inner_width} must be below "
                f"the scatter width {m}"
            )
        need = 2 * m * self.segments_per_phase
        last_phase_right = (n - 1) - (self.phases - 1) * self.segments_per_phase * self.inner_width
        if need > last_phase_right:
            raise ValueError(
                f"n={n} too small to host {self.phases} phases of "
                f"{self.segments_per_phase} segments (need {need} right-line nodes, "
                f"have {last_phase_right} in the last phase)"
            )

    def clamp_report(self) -> dict:
        m = self.sqrt_n
        return {
            "phases_clamped": line_phases(self.n, m)[1],
            "segment_rounds_clamped": self.epsilon * m < 1,
            "segments_clamped": m // 3 < 1,
        }

    def invasive_horizon(self) -> int:
        return self.phases * self.segments_per_phase * self.segment_rounds


def blocker_partition(params: BlockerLineParams) -> list[list[int]]:
    """Contiguous token groups of size sqrt(n); group i (1-indexed) backs
    phase i.  Groups beyond the phase count are never scattered."""
    m = params.sqrt_n
    return [list(range(g * m, (g + 1) * m)) for g in range(m)]


@dataclass
class _Segment:
    phase: int
    index: int  # 1-based within the phase
    interval: list[int]
    line: array  # line order while the interval fronts node 0
    moves: tuple[list[Edge], list[Edge]]  # (removed, added) hops from the previous line


def _trajectory(params: BlockerLineParams) -> tuple[list[_Segment], list[list[int]]]:
    """Segments in round order, and the right line after each phase.

    The line is left + [0] + right, stepped by `line_step` with `right` as
    its middle and an empty right part: each interval is the first 2*sqrt(n)
    right-line nodes when its segment comes, its inner nodes retire
    leftward, and the rest are exiled to the far right end of the line.
    """
    n = params.n
    left, source, right = node_array(n), node_array(n, [0]), node_array(n, range(1, n))
    width = 2 * params.sqrt_n
    segments: list[_Segment] = []
    right_lines: list[list[int]] = []
    moves: tuple[list[Edge], list[Edge]] = ([], [])
    for phase in range(1, params.phases + 1):
        for j in range(1, params.segments_per_phase + 1):
            segments.append(_Segment(phase, j, right[:width].tolist(), left + source + right, moves))
            left, right, exiled, moves = line_step(left, right, node_array(n), width, params.inner_width)
            right += exiled
        right_lines.append(right.tolist())
    return segments, right_lines


def _base_metadata(
    params: BlockerLineParams, variant: str, segments: list[_Segment], right_lines: list[list[int]]
) -> dict:
    groups = blocker_partition(params)
    sentinel = list(range(params.phases * params.sqrt_n, params.n))  # the unused groups' tokens
    rounds = params.segment_rounds
    return {
        "generator": f"blocker-line-{variant}",
        "params": {
            "n": params.n,
            "epsilon": params.epsilon,
            "phases": params.phases,
            "segments_per_phase": params.segments_per_phase,
            "segment_rounds": params.segment_rounds,
            "inner_width": params.inner_width,
        },
        "clamped": params.clamp_report(),
        "seed": params.seed,
        "source": 0,
        "blocker_groups": groups,
        "used_groups": params.phases,
        "sentinel_tokens": sentinel,
        "layout_note": (
            "line = left + [source] + right; retired inner nodes keep their "
            "source-adjacent order on the left; exiled interval remainders are "
            "appended at the far right end; untouched right-line tail sits "
            "between the last interval and the exiled nodes"
        ),
        "segments": [
            {
                "phase": seg.phase,
                "segment": seg.index,
                "rounds": [k * rounds + 1, (k + 1) * rounds],
                "interval": list(seg.interval),
                "insert_nodes": seg.interval[: params.sqrt_n],
                "inner": seg.interval[: params.inner_width],
                "outer": seg.interval[params.inner_width :],
            }
            for k, seg in enumerate(segments)
        ],
        "right_line_per_phase": right_lines,
        "target_nodes": list(right_lines[-1]),
    }


def _half_scatter(rng: random.Random, tokens: int, width: int) -> list[int]:
    """Node masks of a 1/2-scatter: one rng.random() per (token, node),
    token-major, so draw d = b*width + i sets bit b of node i's mask when it
    is below 1/2, that is, when the top bit of its first 32-bit word, 2d, is
    clear.  CPython fills getrandbits words least significant first, so one
    getrandbits gives that bit as the top of byte 8d + 3 (little-endian) and
    leaves the rng where the random() loop would."""
    draws = tokens * width
    hits = rng.getrandbits(64 * draws).to_bytes(8 * draws, "little")[3::8].translate(_HALF)
    return [int(hits[i::width][::-1], 2) for i in range(width)]


def build_blocker_line_invasive(params: BlockerLineParams) -> AdversarySchedule:
    """Blocker-line schedule whose insertions are explicit pre-committed events.

    Per segment, every blocker token of the phase's group is inserted into
    each of the interval's first sqrt(n) nodes independently with probability
    1/2 (committed at schedule-build time).  After each phase, the full group
    is inserted at every right-line node.  Insertions are attached to the
    round *before* a segment starts so the scatter is visible throughout the
    segment (round 0 insertions apply before the first round).  Each round
    holds one token mask per node: a segment's scatter, merged with the
    previous phase's right-line completion on the round they share.
    """
    rng = derive_rng(params.seed, "blocker-line", "insertions")
    groups = blocker_partition(params)
    segments, right_lines = _trajectory(params)
    by_round: dict[int, dict[int, int]] = {}
    round_index = 0

    for seg in segments:
        group = groups[seg.phase - 1]
        scatter_nodes = seg.interval[: params.sqrt_n]
        # Groups are contiguous: mask bit b is group[b].
        at = by_round.setdefault(round_index, {})
        for node, mask in zip(scatter_nodes, _half_scatter(rng, len(group), len(scatter_nodes))):
            if mask:
                at[node] = at.get(node, 0) | mask << group[0]
        round_index += params.segment_rounds
        if seg.index == params.segments_per_phase:
            by_round[round_index] = dict.fromkeys(right_lines[seg.phase - 1], token_mask(group))

    return AdversarySchedule(
        n=params.n,
        horizon=round_index,
        rounds=RoundSource.lines(
            params.n,
            [seg.line for seg in segments],
            params.segment_rounds,
            [seg.moves for seg in segments],
        ),
        insertion_masks={t: sorted(at.items()) for t, at in by_round.items() if at},
        mode="invasive",
        metadata=_base_metadata(params, "invasive", segments, right_lines),
        cyclic_extendable=True,
    )


class _DiffedMoves:
    """Each order's (removed, added) hops from the order before, found once
    by diffing their hop sets (hops coded as ints u*n + v) and kept as code
    arrays; item k reads them back as canonical pairs.  A hop that only
    turned around is both removed and added, so it stays."""

    def __init__(self, n: int, orders: list[array]):
        self.n = n
        self._codes: list[tuple[array, array]] = []
        before = None
        for order in orders:
            after = set(map(add, map(mul, order, repeat(n)), order[1:]))
            if before is None:  # order 0 has no moves
                before = after
            self._codes.append((node_array(n * n, before - after), node_array(n * n, after - before)))
            before = after

    def __getitem__(self, k: int) -> tuple[list[Edge], list[Edge]]:
        n = self.n
        removed, added = self._codes[k]
        return (
            [canonical_edge(*divmod(c, n)) for c in removed],
            [canonical_edge(*divmod(c, n)) for c in added],
        )


def build_blocker_line_oblivious(params: BlockerLineParams) -> AdversarySchedule:
    """Blocker-line schedule whose scatter is part of the start distribution.

    Segments, rounds, horizon and target nodes are the invasive twin's.  The
    scatter holders of a segment are the nodes at even positions among its
    interval's first sqrt(n) nodes; each holds the phase's whole blocker
    group before round 1 (`metadata["start_holdings"]`, ascending
    `[node, tokens]` pairs, next to the source's tokens), and the odd
    positions hold none of it.  So along the fronting interval every second
    hop faces the whole group as difference.  Until its segment, a holder is
    parked at the far right end of the line next to the other parked holders,
    which hold the same group, so the scatter is still unmixed when its
    interval fronts the source; while an interval fronts, the line is the
    twin's with the parked holders moved to the end.  There are no rounds
    besides the twin's, and no right-line completion: targets hold only the
    blocker tokens of the holders among them.

    This start distribution is this package's choice, not taken from the
    paper: the paper's abstract allows the lower bound a general start
    distribution, and a start distribution is the only way an oblivious
    adversary places tokens.
    """
    groups = blocker_partition(params)
    segments, right_lines = _trajectory(params)
    holders = [seg.interval[: params.sqrt_n : 2] for seg in segments]
    start: dict[int, set[int]] = {}  # holder -> indices of the groups it holds
    for seg, nodes in zip(segments, holders):
        for node in nodes:
            start.setdefault(node, set()).add(seg.phase - 1)

    lines = []
    for k, seg in enumerate(segments):
        fronting = set(seg.interval)
        parked = list(
            dict.fromkeys(
                node for later in holders[k + 1 :] for node in later if node not in fronting
            )
        )
        parked_set = set(parked)
        lines.append(node_array(params.n, [v for v in seg.line if v not in parked_set] + parked))

    meta = _base_metadata(params, "oblivious", segments, right_lines)
    meta["start_holdings"] = [  # groups are contiguous and ascending: tokens come sorted
        [node, [tok for g in sorted(start[node]) for tok in groups[g]]] for node in sorted(start)
    ]
    return AdversarySchedule(
        n=params.n,
        horizon=len(segments) * params.segment_rounds,
        rounds=RoundSource.lines(params.n, lines, params.segment_rounds, _DiffedMoves(params.n, lines)),
        mode="oblivious",
        metadata=meta,
        cyclic_extendable=True,
    )
