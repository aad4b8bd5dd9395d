"""Centralized token dissemination: load balancing, single-source broadcast
with greedy exchange rounds, and the full k-token pipeline.

The scheduler sees the full current snapshot and token state each round but
never future snapshots.  Stage budgets are ceilings of the analysis's
asymptotics with fixed constants; every stage logs the rounds it consumed
and any overage beyond its nominal budget.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    EngineRun,
    RoundBudgetExhausted,
    Send,
    SimulationResult,
    TokenState,
    TokenUniverse,
    bfs_distances,
    mask_tokens,
    token_mask,
)
from .matching import greedy_exchange_round
from .protocols import flood_step


class LoadBalanceStalled(RuntimeError):
    """Relay pipeline made no progress within its safety allowance."""


@dataclass
class StageLog:
    stage: str
    rounds: int
    placed: int = 0
    overage: int = 0
    detail: dict = field(default_factory=dict)


class ItemPool:
    """Items with a seeded random rank permutation.  An item is an index into
    `tokens`: a copy of a token, or None for a padding blank, which occupies
    a pipeline slot but produces no wire transmission."""

    def __init__(self, tokens: Sequence[int | None], rng: random.Random):
        self.tokens = list(tokens)
        self.order = list(range(len(self.tokens)))  # item ids in injection order
        rng.shuffle(self.order)
        self.ranks = {item: pos for pos, item in enumerate(self.order)}

    def __len__(self):
        return len(self.tokens)


def load_balance(
    run: EngineRun,
    full_nodes: Iterable[int],
    targets: Iterable[int],
    pool: ItemPool,
) -> tuple[list[list[Send]], dict[int, int], StageLog]:
    """Distribute the pool's items over the target nodes by gradient routing.

    Guarantees: every item lands on exactly one target; per-target counts are
    floor(|pool|/|targets|) or the ceiling; which items land where depends
    only on the rank permutation, because routing is item-blind.

    A target is below quota under the floor, or under the ceiling once no
    target is under the floor.  Each round, items queued at a below-quota
    node land there, and so do a below-quota full target's next uninjected
    items.  Then one BFS runs from the below-quota targets.  In ascending id
    order, every node with queued items and every full node while items are
    uninjected sends one item down each edge to a neighbour one level nearer
    (neighbours ascending): the head of its FIFO queue first, then the next
    item in injection order.  An arriving item lands if its node is below
    quota then, else it joins that node's queue.  Rounds beyond the nominal
    |pool| budget are logged as overage.
    """
    F = sorted(set(full_nodes))
    R = sorted(set(targets))
    if not R:
        raise ValueError("empty target set")
    if len(pool) == 0:
        raise ValueError("empty item pool")
    state = run.state
    if set(F) | set(R) != set(range(state.n)):
        raise ValueError("full set and target set must cover all nodes")
    tokens = pool.tokens
    needed = token_mask(tok for tok in tokens if tok is not None)
    for f in F:
        missing = needed ^ (needed & state.holdings[f])
        if missing:
            raise ValueError(f"full node {f} is missing pool tokens {mask_tokens(missing)}")

    total = len(pool)
    floor_q, rem = divmod(total, len(R))
    ceil_q = floor_q + (1 if rem else 0)
    order = pool.order
    counts = dict.fromkeys(R, 0)
    short = len(R) if floor_q else 0  # targets under the floor
    # A node accepts an item while counts.get(node, ceil_q) < quota: a
    # non-target never does.
    quota = floor_q if short else ceil_q
    full = set(F)
    full_targets = [f for f in F if f in counts]
    injected = 0
    queues: dict[int, deque[int]] = {}
    assignment: dict[int, int] = {}
    plans: list[list[Send]] = []
    rounds = 0
    max_extra = 64 + 8 * (total + state.n)

    def land(item: int, v: int) -> None:
        nonlocal short, quota
        assignment[item] = v
        counts[v] += 1
        if counts[v] == floor_q:
            short -= 1
            if not short:
                quota = ceil_q

    while True:
        for v in sorted(queues):
            queue = queues[v]
            while queue and counts.get(v, ceil_q) < quota:
                land(queue.popleft(), v)
            if not queue:
                del queues[v]
        for f in full_targets:
            while injected < total and counts[f] < quota:
                land(order[injected], f)
                injected += 1
        if len(assignment) == total:
            break
        if rounds - total > max_extra:
            raise LoadBalanceStalled(
                f"{total - len(assignment)} items unplaced after {rounds} rounds"
            )
        snapshot = run.current_snapshot()
        dist = bfs_distances(snapshot, [v for v in R if counts[v] < quota])
        adj = snapshot.adjacency
        senders = set(queues)
        if injected < total:
            senders |= full
        plan: list[Send] = []
        moves: list[tuple[int, int]] = []  # (item, receiving node)
        for u in sorted(senders):
            nearer = dist[u] - 1
            queue = queues.get(u)
            for w in adj[u]:
                if dist[w] != nearer:
                    continue
                if queue:
                    item = queue.popleft()
                elif u in full and injected < total:
                    item = order[injected]
                    injected += 1
                else:
                    break
                moves.append((item, w))
                if tokens[item] is not None:
                    plan.append((u, w, tokens[item]))
            if queue is not None and not queue:
                del queues[u]

        run.execute(plan)
        plans.append(plan)
        rounds += 1
        for item, w in moves:
            if counts.get(w, ceil_q) < quota:
                land(item, w)
            else:
                queues.setdefault(w, deque()).append(item)

    log = StageLog(
        stage="load-balance",
        rounds=rounds,
        placed=total,
        overage=max(0, rounds - total),
        detail={"pool": total, "targets": len(R), "counts": counts},
    )
    return plans, assignment, log


# ---------------------------------------------------------------------------
# Broadcast and gossip stages


@dataclass
class BroadcastOutcome:
    stalled: str | None  # None once every node holds the set (or the run is complete)
    stage_logs: list[StageLog]


def _holders(state, token: int) -> int:
    return sum(row[token] for row in state.member if token < len(row))


def _flood_token(run: EngineRun, token: int, max_rounds: int) -> int:
    """Flood one token until universal or the round allowance ends; returns
    rounds used."""
    state = run.state
    used = 0
    while _holders(state, token) < state.n and used < max_rounds:
        run.execute(flood_step(token, state, run.current_snapshot()))
        used += 1
    return used


def n_broadcast(
    run: EngineRun,
    source: int,
    tokens: Iterable[int] | None = None,
) -> BroadcastOutcome:
    """Disseminate the source's token set to every node.

    Runs distribute-then-exchange phases: each phase load-balances one item
    per token over the currently non-full nodes, then runs up to n greedy
    exchange rounds, and logs its rounds as `broadcast-phase-{i}`.  Phases
    are capped at ceil(3 log2 n) * ceil(sqrt(n) log2 n); exhausting the cap
    (`phase-budget`), the round budget or a load balance's safety allowance
    yields a marked outcome, never a silent loop or an escaping error.  The
    broadcast also ends once the run is complete: dummy tokens of the set
    (k-gossip padding) that are not yet everywhere are left where they are.
    """
    state = run.state
    n = state.n
    holdings = state.holdings
    token_set = token_mask(tokens) if tokens is not None else holdings[source]
    if token_set ^ (token_set & holdings[source]):
        raise ValueError("source does not hold the full broadcast set")
    if not token_set:
        return BroadcastOutcome(None, [])
    log2n = math.log2(max(2, n))
    phase_cap = math.ceil(3 * log2n) * math.ceil(math.sqrt(n) * log2n)
    ordered = mask_tokens(token_set)
    logs: list[StageLog] = []

    def non_full() -> list[int]:
        if run.complete():
            return []
        return [v for v in range(n) if token_set ^ (token_set & holdings[v])]

    try:
        for phase in range(phase_cap):
            remaining = non_full()
            if not remaining:
                break
            start = run.rounds_executed
            remaining_set = set(remaining)
            full = [v for v in range(n) if v not in remaining_set]
            pool = ItemPool(ordered, run.subsystem_rng("n-broadcast", "ranks", phase))
            load_balance(run, full, remaining, pool)
            for _ in range(n):
                if not non_full():
                    break
                run.execute(greedy_exchange_round(state, run.current_snapshot(), ordered))
            logs.append(
                StageLog(
                    stage=f"broadcast-phase-{phase}",
                    rounds=run.rounds_executed - start,
                    detail={"non_full_after": len(non_full())},
                )
            )
        return BroadcastOutcome("phase-budget" if non_full() else None, logs)
    except RoundBudgetExhausted:
        return BroadcastOutcome("round-budget", logs)
    except LoadBalanceStalled:
        return BroadcastOutcome("load-balance-stalled", logs)


def _padded_size(k: int, n: int) -> int:
    """k-gossip's universe: ceil(k/n) groups of exactly n ids."""
    return -(-k // n) * n


def pad_state_for_kgossip(state: TokenState) -> TokenState:
    """Extend the universe to a whole number of n-token groups; the dummy ids
    start out at node 0 so every token is held somewhere."""
    n, k = state.n, state.universe.real_count
    size = _padded_size(k, n)
    if state.universe.size == size:
        return state
    holdings = {v: state.tokens(v) for v in range(n)}
    holdings[0] |= set(range(k, size))
    return TokenState(n, TokenUniverse(size, k), holdings)


@dataclass
class GossipOutcome:
    result: SimulationResult
    stage_logs: list[StageLog]
    stalled: str | None = None


def k_gossip_centralized(run: EngineRun, mode: str = "naive") -> GossipOutcome:
    """Complete k-token gossip under full current-round knowledge.

    The universe must hold ceil(k/n)*n ids (`pad_state_for_kgossip`): the
    k real tokens, then dummies; group g is ids g*n .. g*n + n - 1.  Two
    strategies, chosen by `mode`:

    * naive: flood each real token in sequence (at most n rounds each, so at
      most nk in total);
    * staged: per group, (a) flood each group token for ceil(sqrt(n))
      rounds, (b) pick a greedy cover of token holders, at most
      ceil(2 sqrt(n) log2 n) nodes, (c) load-balance each cover node's
      copied-and-padded multiset over all nodes, (e) broadcast the set of
      the node holding the most group tokens, (f) flood the leftovers.
      Letter (d) is unused: README gives the measurements that removed a
      greedy-exchange stage there.  The run stops once every real token is
      everywhere: before each stage, between the floods and load-balances
      of a stage, and between n_broadcast's load-balances and exchange
      rounds.  Each stage logs its rounds once; the broadcast's phase logs
      sit in its log's `detail["phases"]`.

    Stalls (cover too large, round budget, a stalled load balance) yield a
    marked outcome identifying the stage.
    """
    if mode not in ("naive", "staged"):
        raise ValueError(f"unknown k-gossip mode {mode!r} (naive or staged)")
    state = run.state
    n = state.n
    size, k = state.universe.size, state.universe.real_count
    if size != _padded_size(k, n):
        raise ValueError(f"universe size {size} != padded size {_padded_size(k, n)}")

    logs: list[StageLog] = []
    try:
        if mode == "naive":
            start = run.rounds_executed
            for tok in range(k):
                if run.complete():
                    break
                _flood_token(run, tok, max_rounds=n)
            logs.append(StageLog("naive-broadcast", run.rounds_executed - start))
            return GossipOutcome(run.result(), logs)

        sqrt_rounds = math.ceil(math.sqrt(n))
        cover_cap = math.ceil(2 * math.sqrt(n) * math.log2(max(2, n)))
        for g_index, first in enumerate(range(0, size, n)):
            if run.complete():
                break
            group = range(first, first + n)
            group_mask = token_mask(group)
            tag = f"group-{g_index}"

            start = run.rounds_executed
            for tok in group:
                if run.complete():
                    break
                _flood_token(run, tok, max_rounds=sqrt_rounds)
                spread = _holders(state, tok)
                assert spread >= min(n, sqrt_rounds + 1), (
                    f"token {tok} at only {spread} nodes after consolidation"
                )
            logs.append(StageLog(f"{tag}-consolidation", run.rounds_executed - start))
            if run.complete():
                break

            holdings = state.holdings
            uncovered = group_mask
            allocation: dict[int, list[int]] = {}
            while uncovered:
                best = max(range(n), key=lambda v: ((holdings[v] & uncovered).bit_count(), -v))
                gain = holdings[best] & uncovered
                if not gain:
                    return GossipOutcome(run.result(), logs, f"{tag}-cover-unhit")
                allocation[best] = mask_tokens(gain)
                uncovered ^= uncovered & gain
                if len(allocation) > cover_cap:
                    return GossipOutcome(run.result(), logs, f"{tag}-cover-cap")

            start = run.rounds_executed
            for lb_counter, u in enumerate(sorted(allocation)):
                if run.complete():
                    break
                copies: list[int | None] = [t for t in allocation[u] for _ in range(sqrt_rounds)]
                copies += [None] * (n - len(copies))
                rng = run.subsystem_rng("k-gossip", tag, "ranks", lb_counter)
                load_balance(run, [u], list(range(n)), ItemPool(copies, rng))
            logs.append(StageLog(f"{tag}-distribution", run.rounds_executed - start))
            if run.complete():
                break

            best = max(range(n), key=lambda v: ((holdings[v] & group_mask).bit_count(), -v))
            broadcast_set = mask_tokens(holdings[best] & group_mask)
            start = run.rounds_executed
            outcome = n_broadcast(run, best, tokens=broadcast_set)
            rounds = run.rounds_executed - start
            logs.append(StageLog(f"{tag}-broadcast", rounds, detail={"phases": outcome.stage_logs}))
            if outcome.stalled:
                return GossipOutcome(run.result(), logs, f"{tag}-broadcast-{outcome.stalled}")
            if run.complete():
                break

            start = run.rounds_executed
            residual = [tok for tok in group if _holders(state, tok) < n]
            for tok in residual:
                if run.complete():
                    break
                _flood_token(run, tok, max_rounds=n)
            logs.append(
                StageLog(
                    f"{tag}-residual",
                    run.rounds_executed - start,
                    detail={"residual_tokens": len(residual)},
                )
            )
        return GossipOutcome(run.result(), logs)
    except RoundBudgetExhausted:
        return GossipOutcome(run.result(), logs, "round-budget")
    except LoadBalanceStalled:
        return GossipOutcome(run.result(), logs, "load-balance-stalled")
