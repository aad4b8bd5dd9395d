"""DGS1 schedule files: a line-oriented, bit-exact text format.

Layout::

    DGS1 <n> <horizon> <mode>
    R 0                      # only when setup insertions exist
    I <node> <token>
    R 1
    E <u> <v>                # u < v, ascending
    I <node> <token>         # ascending (node, token)
    ...

`I` lines are the expanded view of a round's insertion masks: one line per
token of each (node, mask) pair.

Round blocks run 1..horizon; the optional round-0 block carries insertions
that apply before the first round.  The writer emits canonical ordering and
the reader enforces it, so export -> import -> export is byte-identical.
A JSON sidecar carries generator metadata (parameters, blocker partitions,
interval boundaries, sentinel sets, extendability).
"""

from __future__ import annotations

import json
import re
from array import array
from pathlib import Path

from .core import (
    AdversarySchedule,
    NetworkSnapshot,
    RoundSource,
    mask_tokens,
    node_array,
    validate_snapshot,
)


_LINE = re.compile(".*\n")


class Dgs1Error(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def schedule_to_text(schedule: AdversarySchedule) -> str:
    """The schedule as DGS1 text, unchecked: the reader checks every round."""
    out = [f"DGS1 {schedule.n} {schedule.horizon} {schedule.mode}"]
    for t in range(0 if schedule.insertions_at(0) else 1, schedule.horizon + 1):
        out.append(f"R {t}")
        if t:
            out.extend(f"E {u} {v}" for u, v in sorted(schedule.snapshot_at(t).edges))
        for node, mask in schedule.insertions_at(t):
            out.extend(f"I {node} {tok}" for tok in mask_tokens(mask))
    return "\n".join(out) + "\n"


def export_schedule(schedule: AdversarySchedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_text(schedule), encoding="ascii")


def schedule_from_text(text: str) -> AdversarySchedule:
    if not text.endswith("\n"):
        raise Dgs1Error("missing trailing newline")
    lines = (m.group() for m in _LINE.finditer(text))  # one line at a time
    header = next(lines).split()
    if len(header) != 4 or header[0] != "DGS1":
        raise Dgs1Error("bad header", 1)
    try:
        n, horizon = int(header[1]), int(header[2])
    except ValueError:
        raise Dgs1Error("non-integer header fields", 1) from None
    mode = header[3]
    if mode not in ("oblivious", "invasive"):
        raise Dgs1Error(f"unknown mode {mode!r}", 1)

    # Round t's edges are us/vs[ends[t-1]:ends[t]]; each round's graph is
    # checked here and built again only when a run or check asks for it.
    us, vs, ends = node_array(n), node_array(n), array("Q", [0])
    insertions: dict[int, list[tuple[int, int]]] = {}
    current_round: int | None = None
    edges: list[tuple[int, int]] = []
    round_inserts: list[tuple[int, int]] = []  # (node, mask), ascending nodes

    def close_round(line_no: int) -> None:
        """Check and store the open round, whose last line is `line_no`."""
        nonlocal edges, round_inserts
        if current_round is None:
            return
        if current_round >= 1:
            if len(edges) < n - 1:  # cheap, before validate_snapshot's O(n) arrays
                raise Dgs1Error(
                    f"round {current_round}: disconnected ({len(edges)} edges on {n} "
                    f"nodes; a connected round needs {n - 1})",
                    line_no,
                )
            check = validate_snapshot(NetworkSnapshot.from_canonical(n, edges))
            if not check:
                raise Dgs1Error(
                    f"round {current_round}: {check.reason} (witness {check.witness})",
                    line_no,
                )
            for u, v in edges:
                us.append(u)
                vs.append(v)
            ends.append(len(us))
        elif edges:
            raise Dgs1Error("round 0 may not contain edges", line_no)
        if round_inserts:
            insertions[current_round] = round_inserts
        edges = []
        round_inserts = []

    line_no = 1
    try:
        for line_no, raw in enumerate(lines, start=2):
            parts = raw.split()
            if not parts:
                raise Dgs1Error("blank line", line_no)
            kind = parts[0]
            if kind == "R":
                if len(parts) != 2:
                    raise Dgs1Error("malformed round line", line_no)
                close_round(line_no - 1)
                t = int(parts[1])
                if current_round is None:
                    if t not in (0, 1):
                        raise Dgs1Error(f"first round block must be 0 or 1, got {t}", line_no)
                elif t != current_round + 1:
                    raise Dgs1Error(
                        f"round {t} out of order (expected {current_round + 1})", line_no
                    )
                current_round = t
            elif kind == "E":
                if current_round is None or len(parts) != 3:
                    raise Dgs1Error("edge line outside round block or malformed", line_no)
                u, v = int(parts[1]), int(parts[2])
                if u >= v:
                    raise Dgs1Error(f"edge ({u}, {v}) not in u < v form", line_no)
                if edges and (u, v) <= edges[-1]:
                    raise Dgs1Error(f"edge ({u}, {v}) out of order", line_no)
                if round_inserts:
                    raise Dgs1Error("edge line after insertion lines", line_no)
                edges.append((u, v))
            elif kind == "I":
                if current_round is None or len(parts) != 3:
                    raise Dgs1Error("insertion line outside round block or malformed", line_no)
                node, token = int(parts[1]), int(parts[2])
                prev, mask = round_inserts[-1] if round_inserts else (-1, 0)
                if (node, token) <= (prev, mask.bit_length() - 1) or min(node, token) < 0:
                    raise Dgs1Error(f"insertion ({node}, {token}) negative or out of order", line_no)
                if node >= n:
                    raise Dgs1Error(f"insertion node {node} outside [0, {n})", line_no)
                if node == prev:
                    round_inserts[-1] = (node, mask | 1 << token)
                else:
                    round_inserts.append((node, 1 << token))
            else:
                raise Dgs1Error(f"unknown record {kind!r}", line_no)
    except Dgs1Error:
        raise
    except ValueError:  # only int() raises a plain ValueError here
        raise Dgs1Error("non-integer fields", line_no) from None
    close_round(line_no)

    if len(ends) - 1 != horizon:
        raise Dgs1Error(f"found {len(ends) - 1} rounds, header says {horizon}")
    if mode == "oblivious" and insertions:
        raise Dgs1Error("oblivious schedule carries insertions")

    def build(t: int) -> NetworkSnapshot:
        a, b = ends[t - 1], ends[t]
        return NetworkSnapshot.from_canonical(n, zip(us[a:b], vs[a:b]))

    return AdversarySchedule(
        n=n,
        horizon=horizon,
        rounds=RoundSource(lambda t: t, build),
        insertion_masks=insertions,
        mode=mode,
    )


def import_schedule(path: str | Path, metadata_path: str | Path | None = None) -> AdversarySchedule:
    schedule = schedule_from_text(Path(path).read_text(encoding="ascii"))
    meta_file = Path(metadata_path) if metadata_path else default_metadata_path(path)
    if meta_file.exists():
        sidecar = json.loads(meta_file.read_text(encoding="utf-8"))
        if not isinstance(sidecar, dict):
            raise Dgs1Error(f"metadata sidecar {meta_file} is not a JSON object")
        schedule.cyclic_extendable = bool(sidecar.pop("cyclic_extendable", False))
        schedule.metadata = sidecar
    return schedule


def default_metadata_path(schedule_path: str | Path) -> Path:
    return Path(str(schedule_path) + ".meta.json")


def save_metadata(schedule: AdversarySchedule, path: str | Path) -> None:
    payload = dict(schedule.metadata)
    payload["cyclic_extendable"] = schedule.cyclic_extendable
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
