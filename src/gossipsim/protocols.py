"""Distributed token-forwarding protocols.

Three families:

* difference-based (`rand-diff`, `sym-diff`): a node sees its neighbors'
  token sets as of the start of the round and sends a uniformly random token
  from a set difference,
* arrival-history based (`skb-*`): a node sees only its own tokens and their
  first-arrival times, samples at most one token per round, and broadcasts it
  on every incident edge; tokens with equal arrival time must get equal
  probability,
* flooding (`flood:<token>`): every holder of a designated token forwards it
  to every neighbor that lacks it.

Randomness is drawn in a canonical order (ascending directed edges for the
difference protocols, ascending nodes for the history-based ones) so runs are
reproducible.
"""

from __future__ import annotations

import random
from typing import Callable

from .core import Check, NetworkSnapshot, Send, TokenState, select_token


# ---------------------------------------------------------------------------
# Difference-based protocols


def rand_diff_step(
    state: TokenState, snapshot: NetworkSnapshot, rng: random.Random
) -> list[Send]:
    """One send per directed edge: uniform over sender-minus-receiver tokens.

    Never idles on an edge where progress is possible; draws on distinct
    directed edges are independent.  A single-token difference draws
    nothing; a difference of d > 1 tokens draws `r = rng._randbelow(d)`,
    inlined as its getrandbits loop, and sends its r-th smallest token.  So
    each pick is `rng.choice(sorted(difference))`.
    """
    plan: list[Send] = []
    holdings = state.holdings
    getrandbits = rng.getrandbits
    for u, v in snapshot.directed_edges:
        held = holdings[u]
        other = holdings[v]
        if held == other:  # most edges: one comparison instead of two big-int ops
            continue
        diff = held ^ (held & other)
        if not diff:
            continue
        count = diff.bit_count()
        if count == 1:
            tok = diff.bit_length() - 1
        else:
            k = count.bit_length()
            r = getrandbits(k)
            while r >= count:
                r = getrandbits(k)
            tok = select_token(diff, r)
        plan.append((u, v, tok))
    return plan


def sym_diff_step(
    state: TokenState, snapshot: NetworkSnapshot, rng: random.Random
) -> list[Send]:
    """One token per undirected edge, uniform over the symmetric difference.

    The endpoint holding the drawn token sends it, so at most one send
    happens per undirected edge per round.  The draw is Rand-Diff's: none
    for a single token, else the r-th smallest of `rng._randbelow(d)`.
    """
    plan: list[Send] = []
    holdings = state.holdings
    getrandbits = rng.getrandbits
    for u, v in snapshot.directed_edges:
        if u > v:  # each canonical pair once, ascending
            continue
        sym = holdings[u] ^ holdings[v]
        if not sym:
            continue
        count = sym.bit_count()
        if count == 1:
            tok = sym.bit_length() - 1
        else:
            k = count.bit_length()
            r = getrandbits(k)
            while r >= count:
                r = getrandbits(k)
            tok = select_token(sym, r)
        plan.append((u, v, tok) if state.holds(u, tok) else (v, u, tok))
    return plan


# ---------------------------------------------------------------------------
# Arrival-history protocols


class UniformSkbPolicy:
    """Uniform over held tokens, never idle.  Symmetric by construction."""

    name = "skb-uniform"

    def masses(self, round_index, node, arrivals):
        if not arrivals:
            return {}
        w = 1.0 / len(arrivals)
        return {tok: w for tok in arrivals}

    def step(self, state, snapshot, rng):
        # A uniform index into the arrival order: `rng._randbelow(m)`, which
        # is randrange(m)'s draw, inlined with its getrandbits rejection loop
        # so the stream stays the same.  A node draws even when every
        # neighbour holds its pick.  Sends to a neighbour that already holds
        # the pick are left out: under store-copy-forward they do nothing.
        plan: list[Send] = []
        adjacency = snapshot.adjacency
        member = state.member
        getrandbits = rng.getrandbits
        for node, seq in enumerate(state.holdings_seq):
            m = len(seq)
            if not m:
                continue
            k = m.bit_length()
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            tok = seq[r]
            for nb in adjacency[node]:
                try:
                    if member[nb][tok]:
                        continue
                except IndexError:  # past the row's end: not held
                    pass
                plan.append((node, nb, tok))
        return plan


SKB_MASS_TOL = 1e-9


def check_skb_policy(policy, state: TokenState, round_index: int) -> Check:
    """Verify the transmission and symmetry constraints at the given state.

    `policy.masses(round_index, node, arrivals)` maps each held token to its
    send probability for the round; the remainder up to 1 is the probability
    of sending nothing, and tokens with equal arrival rounds must get equal
    mass.  Checks, per node: zero mass on unheld tokens, total mass at most
    1, and that symmetry.  A rejection's reason is the first violation and
    its witness the list of all of them.
    """
    violations = []
    for node, arrivals in enumerate(state.arrivals):
        masses = policy.masses(round_index, node, arrivals)
        for tok, mass in masses.items():
            if tok not in arrivals and mass > SKB_MASS_TOL:
                violations.append(f"node {node}: mass {mass} on unheld token {tok}")
        total = sum(masses.values())
        if total > 1.0 + SKB_MASS_TOL:
            violations.append(f"node {node}: total mass {total} exceeds 1")
        by_arrival: dict[int, list[int]] = {}
        for tok, when in arrivals.items():
            by_arrival.setdefault(when, []).append(tok)
        for when, toks in by_arrival.items():
            if len(toks) < 2:
                continue
            ref = masses.get(toks[0], 0.0)
            for tok in toks[1:]:
                if abs(masses.get(tok, 0.0) - ref) > SKB_MASS_TOL:
                    violations.append(
                        f"node {node}: tokens {toks[0]} and {tok} arrived at "
                        f"round {when} but have masses {ref} != {masses.get(tok, 0.0)}"
                    )
                    break
    if violations:
        return Check(False, violations[0], violations)
    return Check(True)


# ---------------------------------------------------------------------------
# Flooding


def flood_step(token: int, state: TokenState, snapshot: NetworkSnapshot) -> list[Send]:
    """Every holder forwards the token on edges whose far end lacks it."""
    plan: list[Send] = []
    if not 0 <= token < state.universe.size:
        return plan
    has = [token < len(row) and row[token] == 1 for row in state.member]
    for u, v in snapshot.edges:
        if has[u] != has[v]:
            plan.append((u, v, token) if has[u] else (v, u, token))
    return plan


# ---------------------------------------------------------------------------
# Protocol objects and registry


class RandDiff:
    name = "rand-diff"

    def plan_round(self, state, snapshot, rng):
        return rand_diff_step(state, snapshot, rng)


class SymDiff:
    name = "sym-diff"

    def plan_round(self, state, snapshot, rng):
        return sym_diff_step(state, snapshot, rng)


class SkbProtocol:
    """Adapts an skb policy, which plans a round with its own `step`."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name

    def plan_round(self, state, snapshot, rng):
        return self.policy.step(state, snapshot, rng)


class Flood:
    def __init__(self, token: int):
        self.token = token
        self.name = f"flood:{token}"

    def plan_round(self, state, snapshot, rng):
        return flood_step(self.token, state, snapshot)


STEPPED_PROTOCOLS: dict[str, Callable[[], object]] = {
    "rand-diff": RandDiff,
    "sym-diff": SymDiff,
    "skb-uniform": lambda: SkbProtocol(UniformSkbPolicy()),
}


def get_protocol(name: str):
    """Resolve a protocol by CLI name (`flood:<token>` carries a parameter)."""
    if name in STEPPED_PROTOCOLS:
        return STEPPED_PROTOCOLS[name]()
    if name.startswith("flood:"):
        return Flood(int(name.split(":", 1)[1]))
    raise KeyError(f"unknown protocol {name!r}")
