#!/usr/bin/env python3
"""gossipsim benchmark: four workloads, each one kind of harness cell,
driven through `gossipsim.harness.run_cell`, the harness's public entry
point.

Usage (from the repository root):

    python3 perfbench/run.py --workload skb-blocker --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run draws three cell seeds from --seed and repeats, for about --seconds
seconds, the workload's cell with the next seed, one cell at a time in this
process.  The end-to-end metrics are medians over the repeats, each cell's
times scaled to the host speed probe (probe.py).  Every cell's output is
checked outside the timed region; a cell fails if it raises, fails its
check, or gives a different (completion, sentinel, rounds executed) outcome
than an earlier cell of the same seed.

--trace 0 wraps nothing and prints the end-to-end metrics.  --trace 1
pairs each plain cell with a traced cell of the same seed, reports the
per-layer metrics of the median traced cell and the tracing overhead, and
writes every span to perfbench/out/.  `--workload all` runs the workloads
one after another, each in its own process, and prints a table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEEDS_PER_RUN = 3

sys.path.insert(0, str(SRC))
try:
    from gossipsim import harness
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import gossipsim from {SRC}: {exc}")
if not Path(harness.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: gossipsim imported from {harness.__file__}, not from {SRC}")

import probe  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall", "setup", "sim")


def cell_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(SEEDS_PER_RUN)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(kind: str, cell, tracer=None) -> dict:
    """Run one cell and its measurement call under the clock.  A traced
    cell has the tracer's wrappers installed only for that span of time.
    An untraced cell runs under the host speed probe: the probe's own time
    is taken out of the cell's times, and `scaled` holds them in seconds at
    the probe's nominal speed."""
    gc.collect()
    sampler = probe.Sampler() if tracer is None else contextlib.nullcontext()
    if tracer:
        tracer.cell = kind
        tracer.install()
        root = tracer.open(spans.ROOT)
    try:
        with sampler:
            start = time.perf_counter()
            out = harness.run_cell(cell.config, cell.n, cell.seed, keep_result=True)
            ran = time.perf_counter()
            measured = cell.measure(out) if cell.measure else None
            end = time.perf_counter()
    finally:
        if tracer:
            tracer.close(root)
            tracer.uninstall()
    sim = out.wall_time_ms / 1000.0
    rep = {
        "cell": out,
        "measured": measured,
        "wall": end - start,
        "setup": ran - start - sim,
        "sim": sim,
        "outcome": (out.completion_round, out.sentinel_round, out.result.rounds_executed),
    }
    if tracer is None:
        # The round loop is the last `sim` seconds of run_cell, up to the
        # sentinel read-out of a few milliseconds.
        looped = ran - sim
        rep["sim"] -= sampler.busy(looped, ran)
        rep["setup"] -= sampler.busy(start, looped)
        rep["wall"] -= sampler.busy(start, end)
        rep["scaled"] = {"setup": sampler.scaled(start, looped), "sim": sampler.scaled(looped, ran)}
        rep["scaled"]["wall"] = rep["scaled"]["setup"] + rep["scaled"]["sim"] + sampler.scaled(ran, end)
        rep["probe_s"] = statistics.median(sampler.seconds)
    return rep


class Run:
    """Bookkeeping for one benchmark run: cells, outcomes and failures."""

    def __init__(self, kind, seed: int, tiny: bool = False):
        self.kind = kind
        self.n = kind.tiny_n if tiny else kind.n
        self.seeds = cell_seeds(seed)
        self.cells = {}
        self.outcomes = {}
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, i: int, tracer=None) -> dict | None:
        """One checked cell with the i-th seed; returns its timings, or None
        if it failed."""
        seed = self.seeds[i % len(self.seeds)]
        self.attempted += 1
        where = f"{self.kind.name} seed {seed}"
        try:
            if seed not in self.cells:
                self.cells[seed] = self.kind.make(self.n, seed)
            cell = self.cells[seed]
            rep = run_timed(self.kind.name, cell, tracer)
            problems = cell.check(rep["cell"], rep["measured"])
        except Exception:  # a failed cell is data; the run goes on
            self.failures.append(f"{where}: {traceback.format_exc(limit=3)}")
            return None
        del rep["cell"], rep["measured"]  # keep no state alive between cells
        first = self.outcomes.setdefault(seed, rep["outcome"])
        if rep["outcome"] != first:
            problems.append(f"outcome {rep['outcome']} differs from {first} on a repeat")
        if problems:
            self.failures.append(f"{where}: {'; '.join(problems)}")
            return None
        return rep

    def digest(self) -> dict:
        cells = sorted([seed, *outcome] for seed, outcome in self.outcomes.items())
        text = json.dumps(cells)
        return {"cells": cells, "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}


def repeat(seconds: float, body) -> None:
    """Call body(i) for i = 0, 1, ... while another call is expected to end
    within `seconds` of the start; always at least once."""
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        began = time.perf_counter()
        body(i)
        i += 1
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return


def measure_plain(run: Run, seconds: float) -> tuple[dict, dict]:
    reps = []

    def body(i):
        rep = run.attempt(i)
        if rep:
            reps.append(rep)

    repeat(seconds, body)
    if not reps:
        return {}, {"repeats": 0}
    metrics = {f"{key}_s": statistics.median(r["scaled"][key] for r in reps) for key in TIMES}
    metrics["peak_rss_mb"] = peak_rss_mb()
    # Reported and not gated: every repeat's scaled wall time, the unscaled
    # medians and the median probe time, which shows how fast the host ran.
    return metrics, {
        "repeats": len(reps),
        "wall_s_per_repeat": [r["scaled"]["wall"] for r in reps],
        "unscaled_s": {key: statistics.median(r[key] for r in reps) for key in TIMES},
        "probe_s": statistics.median(r["probe_s"] for r in reps),
    }


def measure_traced(run: Run, seconds: float, spans_out: Path) -> tuple[dict, dict]:
    pairs = []
    tracers = []

    def body(i):
        plain = run.attempt(i)
        tracer = spans.Tracer(rep=i)
        traced = run.attempt(i, tracer)
        tracers.append(tracer)
        if plain and traced:
            pairs.append((plain, traced, tracer))

    repeat(seconds, body)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps([s for t in tracers for s in t.export()]) + "\n", encoding="utf-8")
    if not pairs:
        return {}, {}
    # Every per-layer value comes from one cell, the median traced one, so
    # its self times add up to its traced wall time exactly.  Plain times
    # here are unscaled, with the probe's own time taken out.
    pairs.sort(key=lambda p: p[1]["wall"])
    plain, traced, tracer = pairs[(len(pairs) - 1) // 2]
    overhead = statistics.median(p[1]["wall"] for p in pairs) / statistics.median(
        p[0]["wall"] for p in pairs
    )
    outcomes = [(run.kind.name, traced["outcome"])]
    metrics, status = spans.layer_metrics(tracer, outcomes, plain["sim"], overhead)
    detail = {"repeats": len(pairs), "median_repeat": tracer.rep, **status}
    return metrics, detail


def run_one(args) -> int:
    kind = WORKLOADS[args.workload]
    run = Run(kind, args.seed, args.tiny)
    if args.trace:
        spans_out = HERE / "out" / f"spans-{kind.name}-seed{args.seed}.json"
        values, detail = measure_traced(run, args.seconds, spans_out)
        units = spans.PER_LAYER_UNITS
    else:
        values, detail = measure_plain(run, args.seconds)
        units = END_TO_END_UNITS
    failed = len(run.failures)
    correct = failed == 0 and bool(values)
    print(json.dumps({"detail": {
        "workload": kind.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        **detail, "outcomes": run.digest(), "failures": run.failures,
    }}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    ok = True
    print(f"{'workload':<18} {'metric':<40} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:<18} did not report (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<40} {entry['value']:>14.6g}  {entry['unit']}")
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{name:<18} {'fail_ratio':<40} {fail_ratio:>14.6g}  share "
              f"({result['failed']}/{result['attempted']} cells)")
        ok = ok and result["correct"] and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run every cell at its smoke-test size")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
