"""Outside-in tracing for the benchmark's traced run.

The tracer wraps calls into the library's public functions from the
benchmark's own files; nothing in `src/` is timed or counted.  Each wrapped
call records a span (name, start, end, parent, cell) in memory; a cell's
spans share its cell id.  A span's self time is its duration minus the
part of its interval covered by its child spans, so the self times of every
span in a cell add up to the cell's wall time.

Counters are taken at the same boundaries from arguments and return values.
The time spent computing them is recorded as `trace.bookkeeping` spans, so
it is not charged to the layer that called the wrapped function.

A target whose public name does not exist at the commit under test is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

CLOCK = time.perf_counter
ROOT = "cell"  # span opened by the benchmark around one cell
BOOKKEEPING = "trace.bookkeeping"


# ---------------------------------------------------------------------------
# Counters taken at wrapped boundaries


def _count_arrivals(add, args, out):
    add("core.new_arrivals", len(out))


def _count_sends(add, args, out):
    # plan_round(self, state, ...) and flood_step(token, state, ...) both
    # take the state second.  A receiver counted once per (node, token) per
    # round: a second copy of the same token to the same node is wasted.
    state = args[1]
    add("protocols.sends", len(out))
    add("protocols.useful_sends", len({(v, tok) for _, v, tok in out if not state.holds(v, tok)}))


def _count_stage(add, args, out):
    log = out[2]
    add("central.load_balance.rounds", log.rounds)
    add("central.load_balance.overage", log.overage)


def _count_path_systems(add, args, out):
    add("paths.path_systems", len(out[2]))


def _count_insertions(layer):
    def observe(add, args, out):
        add(f"{layer}.insertions", len(out.insertions))

    return observe


def _note_horizon(add, args, out):
    add("harness.schedule_horizon", out.horizon)


@dataclass(frozen=True)
class Target:
    """A public library name to wrap, and what to record around it."""

    span: str  # "<layer>.<what>"; the layer is the module's name
    module: str  # module inside the gossipsim package
    attr: str  # "function" or "Class.method"
    observe: Callable | None = None  # observe(add, args, out) -> None
    rss: bool = False  # record resident-memory growth across the call
    returns_hook: bool = False  # wrap the callable it returns, not the call


TARGETS = (
    Target("core.execute", "core", "EngineRun.execute", _count_arrivals),
    Target("core.validate_plan", "core", "validate_plan"),
    Target("core.run_simulation", "core", "run_simulation"),
    Target("protocols.plan_round", "protocols", "RandDiff.plan_round", _count_sends),
    Target("protocols.plan_round", "protocols", "SymDiff.plan_round", _count_sends),
    Target("protocols.plan_round", "protocols", "SkbProtocol.plan_round", _count_sends),
    Target("protocols.flood_step", "protocols", "flood_step", _count_sends),
    Target("random_schedules.build", "random_schedules", "build_random_interval_connected", rss=True),
    Target("paths.build_ring_failure", "paths", "build_ring_failure", _count_path_systems, rss=True),
    Target("skb_adversary.build", "skb_adversary", "build_skb_adversary", _count_insertions("skb_adversary")),
    Target("blocker_line.build_invasive", "blocker_line", "build_blocker_line_invasive", _count_insertions("blocker_line")),
    Target("central.k_gossip_centralized", "central", "k_gossip_centralized"),
    Target("central.load_balance", "central", "load_balance", _count_stage),
    Target("central.n_broadcast", "central", "n_broadcast"),
    Target("harness.build_schedule", "harness", "build_schedule", _note_horizon),
    Target("harness.initial_state", "harness", "initial_state"),
    Target("harness.sentinel_stop", "harness", "make_sentinel_stop", returns_hook=True),
    Target("harness.sentinel_round_from_state", "harness", "sentinel_round_from_state"),
    Target("harness.measure_blocker_separation", "harness", "measure_blocker_separation"),
)


def rss_mb() -> float:
    """Current resident set size of this process in MB (0 where unknown)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# ---------------------------------------------------------------------------
# Span recording


class Tracer:
    """Records the spans and counters of one traced cell."""

    def __init__(self, rep: int):
        self.rep = rep
        self.cell = ""  # kind of the cell being traced, set by the runner
        self.spans: list[list] = []  # [name, start, end, parent index or -1, cell]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()  # spans whose public name is missing
        self.broken: dict[str, str] = {}  # span -> why its counters failed
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, CLOCK(), None, self._stack[-1] if self._stack else -1, self.cell])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = CLOCK()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = rss_mb() if target.rss else 0.0
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.observe is not None or target.rss:
                tracer._bookkeep(target, args, out, before)
            return out

        return wrapper

    def _bookkeep(self, target: Target, args, out, rss_before: float) -> None:
        start = CLOCK()
        if target.rss:
            self.add(f"{target.span.split('.')[0]}.rss_growth_mb", rss_mb() - rss_before)
        if target.observe is not None:
            try:
                target.observe(self.add, args, out)
            except (AttributeError, IndexError, TypeError) as exc:
                # The call's signature or result changed shape since the
                # benchmark was written: report the counter, do not crash.
                self.broken[target.span] = f"{type(exc).__name__}: {exc}"
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([BOOKKEEPING, start, CLOCK(), parent, self.cell])

    def _wrap_factory(self, target: Target, factory: Callable) -> Callable:
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            hook = factory(*args, **kwargs)
            return None if hook is None else tracer.wrap(target, hook)

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Replace every reference to each target inside the gossipsim
        package (modules that imported it by name included)."""
        for target in targets:
            try:
                owner = importlib.import_module(f"gossipsim.{target.module}")
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.add(target.span)
                continue
            make = self._wrap_factory if target.returns_hook else self.wrap
            wrapped = make(target, original)
            if path:  # a method: set it on the class that was named
                self._patch(owner, leaf, wrapped)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name.split(".")[0] == "gossipsim" and getattr(module, leaf, None) is original:
                    self._patch(module, leaf, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        had_own = name in vars(owner)
        original = vars(owner).get(name)
        setattr(owner, name, value)
        if had_own:
            self._restore.append(lambda: setattr(owner, name, original))
        else:
            self._restore.append(lambda: delattr(owner, name))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def export(self) -> list[dict]:
        return [
            {"cell": f"{self.rep}:{cell}", "name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent, cell in self.spans
        ]


# ---------------------------------------------------------------------------
# Self time


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of its interval that its children
    cover.  `spans` holds (name, start, end, parent index or -1, ...)
    records; overlapping children are counted once and clipped to the
    parent."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo = max(lo, reach)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Self time, inclusive time and call count per span name."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
        total_s[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
    return self_s, total_s, calls


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, unit, better, span it is taken at).  Every target span has a
# `.self_s` entry, so the `.self_s` metrics, `harness.unattributed_s` and
# `trace.bookkeeping.self_s` add up to `trace.wall_s`.
PER_LAYER = (
    ("core.execute.calls", "count", "lower", "core.execute"),
    ("core.execute.self_s", "s", "lower", "core.execute"),
    ("core.validate_plan.self_s", "s", "lower", "core.validate_plan"),
    ("core.run_simulation.self_s", "s", "lower", "core.run_simulation"),
    ("core.new_arrivals", "count", "lower", "core.execute"),
    ("core.rounds_per_s", "1/s", "higher", None),
    ("protocols.plan_round.calls", "count", "lower", "protocols.plan_round"),
    ("protocols.plan_round.self_s", "s", "lower", "protocols.plan_round"),
    ("protocols.flood_step.self_s", "s", "lower", "protocols.flood_step"),
    ("protocols.sends", "count", "lower", "protocols.plan_round"),
    ("protocols.useful_send_ratio", "ratio", "higher", "protocols.plan_round"),
    ("random_schedules.build.self_s", "s", "lower", "random_schedules.build"),
    ("random_schedules.rss_growth_mb", "MB", "lower", "random_schedules.build"),
    ("paths.build_ring_failure.self_s", "s", "lower", "paths.build_ring_failure"),
    ("paths.path_systems", "count", "lower", "paths.build_ring_failure"),
    ("paths.rss_growth_mb", "MB", "lower", "paths.build_ring_failure"),
    ("skb_adversary.build.self_s", "s", "lower", "skb_adversary.build"),
    ("skb_adversary.insertions", "count", "lower", "skb_adversary.build"),
    ("blocker_line.build_invasive.self_s", "s", "lower", "blocker_line.build_invasive"),
    ("blocker_line.insertions", "count", "lower", "blocker_line.build_invasive"),
    ("central.k_gossip_centralized.self_s", "s", "lower", "central.k_gossip_centralized"),
    ("central.load_balance.calls", "count", "lower", "central.load_balance"),
    ("central.load_balance.self_s", "s", "lower", "central.load_balance"),
    ("central.load_balance.rounds", "count", "lower", "central.load_balance"),
    ("central.load_balance.overage", "count", "lower", "central.load_balance"),
    ("central.n_broadcast.self_s", "s", "lower", "central.n_broadcast"),
    ("central.rounds_after_completion", "count", "lower", "central.k_gossip_centralized"),
    ("harness.build_schedule.s", "s", "lower", "harness.build_schedule"),
    ("harness.build_schedule.self_s", "s", "lower", "harness.build_schedule"),
    ("harness.initial_state.self_s", "s", "lower", "harness.initial_state"),
    ("harness.schedule_rounds_used", "ratio", "higher", "harness.build_schedule"),
    ("harness.sentinel_stop.calls", "count", "lower", "harness.sentinel_stop"),
    ("harness.sentinel_stop.self_s", "s", "lower", "harness.sentinel_stop"),
    ("harness.sentinel_round_from_state.self_s", "s", "lower", "harness.sentinel_round_from_state"),
    ("harness.measure_blocker_separation.self_s", "s", "lower", "harness.measure_blocker_separation"),
    ("harness.unattributed_s", "s", "lower", None),
    ("trace.bookkeeping.self_s", "s", "lower", None),
    ("trace.wall_s", "s", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
)
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def layer_metrics(tracer: Tracer, outcomes, plain_sim_s: float, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repeat, summed over its cells.

    `outcomes` lists each cell's (kind, (completion, sentinel, rounds
    executed)); `plain_sim_s` is the untraced round-loop time of the same
    cells, the base of `core.rounds_per_s`.  Metrics whose span has no
    public name read 0 and are listed as absent; those whose span was never
    entered read 0 and are listed as idle.
    """
    self_s, total_s, calls = summarize(tracer.spans)
    counters = tracer.counters
    rounds = sum(outcome[2] for _, outcome in outcomes)
    central = {span[4] for span in tracer.spans if span[0] == "central.k_gossip_centralized"}
    horizon = counters["harness.schedule_horizon"]
    sends = counters["protocols.sends"]
    values = {
        "core.new_arrivals": counters["core.new_arrivals"],
        "core.rounds_per_s": rounds / plain_sim_s if plain_sim_s > 0 else 0.0,
        "protocols.sends": sends,
        "protocols.useful_send_ratio": counters["protocols.useful_sends"] / sends if sends else 0.0,
        "random_schedules.rss_growth_mb": counters["random_schedules.rss_growth_mb"],
        "paths.path_systems": counters["paths.path_systems"],
        "paths.rss_growth_mb": counters["paths.rss_growth_mb"],
        "skb_adversary.insertions": counters["skb_adversary.insertions"],
        "blocker_line.insertions": counters["blocker_line.insertions"],
        "central.load_balance.rounds": counters["central.load_balance.rounds"],
        "central.load_balance.overage": counters["central.load_balance.overage"],
        "central.rounds_after_completion": sum(
            outcome[2] - outcome[0] for kind, outcome in outcomes if kind in central
        ),
        "harness.build_schedule.s": total_s.get("harness.build_schedule", 0.0),
        "harness.schedule_rounds_used": rounds / horizon if horizon else 0.0,
        "harness.unattributed_s": self_s.get(ROOT, 0.0),
        "trace.bookkeeping.self_s": self_s.get(BOOKKEEPING, 0.0),
        "trace.wall_s": total_s.get(ROOT, 0.0),
        "trace.overhead_ratio": overhead,
    }
    for name, _, _, span in PER_LAYER:
        if name not in values:
            kind = name.rsplit(".", 1)[1]
            values[name] = calls.get(span, 0) if kind == "calls" else self_s.get(span, 0.0)

    status = {"absent": [], "idle": []}
    for name, _, _, span in PER_LAYER:
        timing = name.endswith((".self_s", ".calls"))
        if span in tracer.absent or (span in tracer.broken and not timing):
            status["absent"].append(name)
        elif span is not None and not calls.get(span) and not values[name]:
            status["idle"].append(name)
    # Self time per layer within each cell kind, largest first, to check
    # which layers are heavy in which cell.
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = "harness.unattributed" if span[0] == ROOT else span[0].split(".")[0]
        layers[span[4]][layer] += own
    status["layer_self_s"] = {
        cell: dict(sorted(split.items(), key=lambda kv: -kv[1])) for cell, split in layers.items()
    }
    status["broken_counters"] = tracer.broken
    return values, status
