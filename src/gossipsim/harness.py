"""Experiment orchestration: schedule dispatch, seeded batch runs, sweeps.

Configs are JSON with explicit seeds (no ambient entropy).  Each (n, seed)
cell generates or loads a schedule, runs one simulation, and contributes one
CSV row with the fixed header::

    n,seed,adversary,protocol,completion_round,sentinel_round,wall_time_ms

Timeouts are data, not errors.  For schedules whose metadata designates
sentinel tokens and target nodes, the sentinel column records the first round
any sentinel token reached any target node.  Cells may run across a worker
pool (GOSSIPSIM_WORKERS); rows are collected and written in (n, seed) order
so output bytes never depend on scheduling.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .blocker_line import (
    DEFAULT_EPSILON,
    BlockerLineParams,
    build_blocker_line_invasive,
    build_blocker_line_oblivious,
)
from .central import k_gossip_centralized, n_broadcast, pad_state_for_kgossip
from .core import (
    AdversarySchedule,
    EngineRun,
    NetworkSnapshot,
    RoundSource,
    SimulationResult,
    TokenState,
    TokenUniverse,
    run_simulation,
    token_mask,
)
from .dgs1 import import_schedule
from .paths import build_center_terminal, build_ring_failure
from .protocols import get_protocol
from .random_schedules import build_random_interval_connected
from .skb_adversary import SkbAdversaryParams, build_skb_adversary

CSV_HEADER = ["n", "seed", "adversary", "protocol", "completion_round", "sentinel_round", "wall_time_ms"]


# ---------------------------------------------------------------------------
# Schedule dispatch


def _static_schedule(n: int, edges, name: str, horizon: int) -> AdversarySchedule:
    return AdversarySchedule(
        n=n,
        horizon=horizon,
        rounds=RoundSource.static(NetworkSnapshot(n, edges)),
        metadata={"generator": name, "params": {"n": n, "horizon": horizon}},
        cyclic_extendable=True,
    )


def build_schedule(spec: dict, n: int, fallback_seed: int) -> AdversarySchedule:
    """Instantiate the adversary named in `spec` for the given n.

    A seed inside the adversary dict pins the schedule across cells;
    otherwise the cell seed applies (schedule-construction randomness and
    protocol randomness still come from disjoint derivation streams).  The
    dynamic generators need a horizon: past it a schedule repeats its last
    graph, so a default would quietly turn them static.
    """
    name = spec["name"]
    seed = spec.get("seed", fallback_seed)
    if name in ("random", "ring-failure", "center-terminal") and "horizon" not in spec:
        raise KeyError(f"{name} needs horizon")
    horizon = spec.get("horizon", 1)
    if name == "static-line":
        return _static_schedule(n, [(i, i + 1) for i in range(n - 1)], name, horizon)
    if name == "static-cycle":
        return _static_schedule(n, [(i, (i + 1) % n) for i in range(n)], name, horizon)
    if name == "static-complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return _static_schedule(n, edges, name, horizon)
    if name == "random":
        return build_random_interval_connected(
            n, spec.get("extra_edge_prob", 0.1), seed, horizon
        )
    if name == "ring-failure":
        return build_ring_failure(n, spec.get("policy", "round-robin"), seed, horizon)[0]
    if name == "center-terminal":
        if "r" not in spec:
            raise KeyError("center-terminal needs r")
        return build_center_terminal(n, spec["r"], seed, horizon)[0]
    if name in ("blocker-invasive", "blocker-oblivious"):
        params = BlockerLineParams(n, seed, epsilon=spec.get("epsilon", DEFAULT_EPSILON))
        if name == "blocker-invasive":
            return build_blocker_line_invasive(params)
        return build_blocker_line_oblivious(params)
    if name == "skb-blocker":
        return build_skb_adversary(SkbAdversaryParams(n, seed))
    if name == "file":
        return import_schedule(spec["path"], spec.get("metadata_path"))
    raise KeyError(f"unknown adversary {name!r}")


# ---------------------------------------------------------------------------
# Initial distributions


_INITIAL_KEYS = {"single-source": {"kind", "source", "tokens", "start_holdings"},
                 "one-token-per-node": {"kind"}, "file": {"kind", "path"}}


def initial_state(spec: dict, n: int, schedule: AdversarySchedule) -> TokenState:
    """Start distribution named by `spec["kind"]`.

    `single-source` puts every token at the source (the generator's
    designated source by default); a generator that declares
    `start_holdings` (the oblivious blocker line) adds those holdings at
    their nodes, unless `spec["start_holdings"]` is false.  A key the kind
    does not read (`_INITIAL_KEYS`) is a config error, a KeyError."""
    kind = spec.get("kind", "single-source")
    unknown = sorted(spec.keys() - _INITIAL_KEYS.get(kind, spec.keys()))
    if unknown:
        raise KeyError(f"unknown {kind} key {unknown[0]!r}")
    if kind == "single-source":
        source = spec.get("source", schedule.metadata.get("source", 0))
        size = spec.get("tokens", n)
        universe = TokenUniverse(size=size, real_count=size)
        holdings = {}
        if spec.get("start_holdings", True):
            holdings = {node: tokens for node, tokens in schedule.metadata.get("start_holdings", ())}
        holdings[source] = range(size)
        return TokenState(n, universe, holdings)
    if kind == "one-token-per-node":
        universe = TokenUniverse(size=n, real_count=n)
        return TokenState(n, universe, {v: [v] for v in range(n)})
    if kind == "file":
        payload = json.loads(Path(spec["path"]).read_text(encoding="utf-8"))
        universe = TokenUniverse(
            size=payload["universe"]["size"], real_count=payload["universe"]["real"]
        )
        holdings = {int(node): toks for node, toks in payload["holdings"].items()}
        return TokenState(n, universe, holdings)
    raise KeyError(f"unknown initial distribution {kind!r}")


# ---------------------------------------------------------------------------
# Sentinel measurement


def first_sentinel_crossing(state: TokenState, metadata: dict) -> tuple[int, int, int] | None:
    """Witness `(round, node, token)` of the first arrival of a
    metadata-designated sentinel token at a target node (ties go to the
    lowest node, then token), or None if that never happened (or no
    sentinels are designated)."""
    sentinels = metadata.get("sentinel_tokens")
    targets = metadata.get("target_nodes")
    if not sentinels or not targets:
        return None
    sentinel_set = set(sentinels)
    sentinel_mask = token_mask(sentinels)
    arrivals = state.arrivals
    best = None
    for node in targets:
        if not state.holdings[node] & sentinel_mask:
            continue
        for tok, rnd in arrivals[node].items():
            if best is not None and rnd > best[0]:
                break  # rounds never decrease in arrival order
            if tok in sentinel_set and (best is None or (rnd, node, tok) < best):
                best = (rnd, node, tok)
    return best


def sentinel_round_from_state(state: TokenState, metadata: dict) -> int | None:
    """Round of `first_sentinel_crossing`, or None."""
    crossing = first_sentinel_crossing(state, metadata)
    return None if crossing is None else crossing[0]


def make_sentinel_stop(metadata: dict):
    """Stop hook for `run_simulation`: true once a round's sends or
    insertions bring a metadata-designated sentinel token to a target node.
    Insertions are tested as (node, new-token mask) pairs, never per token."""
    sentinels = set(metadata.get("sentinel_tokens") or ())
    targets = set(metadata.get("target_nodes") or ())
    if not sentinels or not targets:
        return None
    sentinel_mask = token_mask(sentinels)

    def stop(state, round_index, sent, inserted):
        return any(node in targets and mask & sentinel_mask for node, mask in inserted) or (
            not targets.isdisjoint([node for tok, node in sent if tok in sentinels])
        )

    return stop


# ---------------------------------------------------------------------------
# Single cells


@dataclass
class ExperimentConfig:
    adversary: dict
    protocol: dict
    initial: dict
    n_list: list[int]
    seeds: list[int]
    max_rounds: int
    out: str | None = None
    stop_at_sentinel: bool = False
    emit_trace: bool = False
    measure: str = "completion"  # sweep aggregation: completion | sentinel

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls(
            adversary=raw["adversary"],
            protocol=raw["protocol"],
            initial=raw.get("initial", {"kind": "single-source"}),
            n_list=list(raw["n"]),
            seeds=list(raw["seeds"]),
            max_rounds=int(raw["max_rounds"]),
            out=raw.get("out"),
            stop_at_sentinel=bool(raw.get("stop_at_sentinel", False)),
            emit_trace=bool(raw.get("emit_trace", False)),
            measure=raw.get("measure", "completion"),
        )
        if not cfg.n_list or not cfg.seeds:
            raise ValueError("config needs nonempty n list and seeds")
        if cfg.measure not in ("completion", "sentinel"):
            raise ValueError(f"measure {cfg.measure!r} is not 'completion' or 'sentinel'")
        return cfg

    def to_dict(self) -> dict:
        """The raw config form that `from_dict` reads: the fields, with
        `n_list` under "n"."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["n"] = raw.pop("n_list")
        return raw

    def to_canonical_json(self) -> str:
        """`to_dict` without the output settings, which do not change rows."""
        payload = self.to_dict()
        del payload["out"], payload["emit_trace"]
        return json.dumps(payload, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()


@dataclass
class CellResult:
    n: int
    seed: int
    completion_round: int | None
    sentinel_round: int | None
    wall_time_ms: float
    timed_out: bool
    result: SimulationResult | None = None


def run_cell(config: ExperimentConfig, n: int, seed: int, keep_result: bool = False) -> CellResult:
    schedule = build_schedule(config.adversary, n, seed)
    state = initial_state(config.initial, n, schedule)
    name = config.protocol["name"]
    start = time.perf_counter()
    if name == "central-broadcast":
        run = EngineRun(schedule, state, seed, config.max_rounds)
        source = config.initial.get("source", schedule.metadata.get("source", 0))
        _central_mode(config.protocol)  # rejects keys other than name and mode
        n_broadcast(run, source)
        result = run.result()
    elif name == "central-kgossip":
        state = pad_state_for_kgossip(state)
        run = EngineRun(schedule, state, seed, config.max_rounds)
        result = k_gossip_centralized(run, _central_mode(config.protocol)).result
    else:
        protocol = get_protocol(name)
        stop = make_sentinel_stop(schedule.metadata) if config.stop_at_sentinel else None
        result = run_simulation(
            schedule, protocol, state, config.max_rounds, seed, stop_when=stop
        )
    wall_ms = (time.perf_counter() - start) * 1000.0
    sentinel = sentinel_round_from_state(result.final_state, schedule.metadata)
    if config.emit_trace and config.out:
        save_trace(result.final_state, f"{config.out}.trace-n{n}-s{seed}.json")
    return CellResult(
        n=n,
        seed=seed,
        completion_round=result.completion_round,
        sentinel_round=sentinel,
        wall_time_ms=wall_ms,
        timed_out=result.timed_out,
        result=result if keep_result else None,
    )


def _central_mode(protocol_spec: dict) -> str:
    """A centralized protocol spec's k-gossip mode; `name` and `mode` are
    its only keys."""
    unknown = sorted(protocol_spec.keys() - {"name", "mode"})
    if unknown:
        raise KeyError(f"unknown {protocol_spec['name']} key {unknown[0]!r}")
    return protocol_spec.get("mode", "naive")


def _cell_task(payload) -> dict:
    """One cell's CSV row, from a picklable (raw config, n, seed) payload."""
    raw, n, seed = payload
    cell = run_cell(ExperimentConfig.from_dict(raw), n, seed)
    return {
        "n": n,
        "seed": seed,
        "adversary": raw["adversary"]["name"],
        "protocol": raw["protocol"]["name"],
        "completion_round": "TIMEOUT" if cell.timed_out else cell.completion_round,
        "sentinel_round": "" if cell.sentinel_round is None else cell.sentinel_round,
        "wall_time_ms": f"{cell.wall_time_ms:.3f}",
    }


# ---------------------------------------------------------------------------
# Batch runs


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("GOSSIPSIM_WORKERS", "1")))
    except ValueError:
        return 1


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the full (n, seed) grid; returns rows and writes CSV when
    config.out is set.  Identical configs produce identical data columns."""
    raw = config.to_dict()
    cells = sorted((n, seed) for n in config.n_list for seed in config.seeds)
    payloads = [(raw, n, seed) for n, seed in cells]
    workers = worker_count()
    if workers > 1 and len(payloads) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_cell_task, payloads)
    else:
        rows = list(map(_cell_task, payloads))
    if config.out:
        write_rows(config.out, rows)
        meta_path = Path(config.out + ".meta.json")
        meta_path.write_text(
            json.dumps(
                {"config_hash": config.content_hash(), "config": raw},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    return rows


def write_rows(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(rows_to_csv_text(rows))


def rows_to_csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Sweeps


def fit_loglog_slope(pairs: list[tuple[float, float]]) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    if len(pairs) < 2:
        raise ValueError("need at least two points")
    xs = [math.log2(x) for x, _ in pairs]
    ys = [math.log2(y) for _, y in pairs]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class SweepSummary:
    per_n: dict[int, dict] = field(default_factory=dict)
    slope: float | None = None
    measure: str = "completion"


def summarize_sweep(rows: list[dict], config: ExperimentConfig) -> SweepSummary:
    summary = SweepSummary(measure=config.measure)
    for n in sorted(config.n_list):
        cell_rows = [r for r in rows if r["n"] == n]
        column = "sentinel_round" if config.measure == "sentinel" else "completion_round"
        # A cell without a value reads "" (no sentinel) or "TIMEOUT".
        values = [float(r[column]) for r in cell_rows if r[column] not in ("", "TIMEOUT")]
        timeouts = sum(1 for r in cell_rows if r["completion_round"] == "TIMEOUT")
        entry = {
            "count": len(cell_rows),
            "completed": len(values),
            "timeout_fraction": timeouts / len(cell_rows) if cell_rows else 0.0,
        }
        if values:
            entry["median"] = median(values)
            entry["mean"] = sum(values) / len(values)
        summary.per_n[n] = entry
    points = [
        (n, e["median"])
        for n, e in summary.per_n.items()
        if e.get("median") and e["median"] > 0
    ]
    if len(points) >= 3:
        summary.slope = fit_loglog_slope(points)
    return summary


def sweep(config: ExperimentConfig) -> SweepSummary:
    """Run the grid, aggregate medians per n, and fit the log-log slope.

    Censored (timeout) cells are excluded from the fit; their fraction is
    reported per n.  Writes a summary CSV and a two-column plot-data file
    next to config.out when set.
    """
    if len(config.n_list) < 3:
        raise ValueError("sweep needs at least 3 n values")
    rows = run_experiment(config)
    summary = summarize_sweep(rows, config)
    if summary.slope is None:
        raise ValueError("insufficient completed n-values for slope")
    if config.out:
        base = Path(config.out)
        with open(str(base) + ".summary.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "count", "completed", "timeout_fraction", "median", "mean"])
            for n in sorted(summary.per_n):
                e = summary.per_n[n]
                writer.writerow(
                    [n, e["count"], e["completed"], f"{e['timeout_fraction']:.4f}",
                     e.get("median", ""), e.get("mean", "")]
                )
        with open(str(base) + ".plot.dat", "w", encoding="ascii") as fh:
            for n in sorted(summary.per_n):
                e = summary.per_n[n]
                if e.get("median"):
                    fh.write(f"{math.log2(n):.6f} {math.log2(e['median']):.6f}\n")
    return summary


# ---------------------------------------------------------------------------
# Blocker separation measurement


def save_trace(state: TokenState, path: str | Path) -> None:
    arrivals = [{str(tok): rnd for tok, rnd in view.items()} for view in state.arrivals]
    Path(path).write_text(json.dumps({"n": state.n, "arrivals": arrivals}) + "\n", encoding="utf-8")


def load_trace(path: str | Path) -> list[dict[int, int]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        {int(tok): rnd for tok, rnd in entry.items()} for entry in payload["arrivals"]
    ]


def measure_blocker_separation(
    arrivals: Sequence[Mapping[int, int]], metadata: dict
) -> dict:
    """Fraction of ordered adjacent inner-node pairs, over all segment run
    rounds, whose one-sided holding difference is below sqrt(n)/16.

    Holdings during round t are those with arrival time at most t-1.  Each
    node's arrivals must iterate in round order, as `TokenState.arrivals`
    and `load_trace` give them.  Each inner node's holdings are kept as a
    bitset that grows, round by round, by the node's arrivals.
    """
    segments = metadata.get("segments")
    if not segments:
        raise ValueError("metadata does not describe blocker segments")
    n = metadata["params"]["n"]
    threshold = math.sqrt(n) / 16.0
    small = 0
    total = 0
    for seg in segments:
        inner = seg["inner"]
        lo, hi = seg["rounds"]
        # Per inner node: (token, arrival round) in round order, the index
        # of the next one to take in, and the bitset taken in so far.
        pending = [list(arrivals[v].items()) for v in inner]
        taken = [0] * len(inner)
        held = [0] * len(inner)
        for t in range(lo, hi + 1):
            for i, events in enumerate(pending):
                j, mask = taken[i], held[i]
                while j < len(events) and events[j][1] <= t - 1:
                    mask |= 1 << events[j][0]
                    j += 1
                taken[i], held[i] = j, mask
            for held_a, held_b in zip(held, held[1:]):
                common = held_a & held_b
                for diff in ((held_a ^ common).bit_count(), (held_b ^ common).bit_count()):
                    total += 1
                    if diff < threshold:
                        small += 1
    if total == 0:
        raise ValueError("no adjacent inner pairs to measure")
    return {"fraction_small": small / total, "pairs_measured": total, "threshold": threshold}
