"""Per-node maximum bipartite matching and the greedy exchange round.

In a greedy exchange round, each node v builds a bipartite graph between its
neighbors and the tokens it is missing (restricted to tokens some neighbor
holds), computes a maximum matching, and each matched neighbor sends the
matched token to v.  The per-node matchings compose into one valid transfer
plan because a directed edge (u, v) can only be used by v's own matching.
"""

from __future__ import annotations

from typing import Iterable

from .core import NetworkSnapshot, Send, TokenState, mask_tokens, token_mask


def max_bipartite_matching(senders_of: dict[int, list[int]]) -> set[tuple[int, int]]:
    """Maximum-cardinality matching as a set of (sender, token) pairs.

    `senders_of` maps each candidate token to the senders holding it, in
    ascending order.  Augmenting-path search seeded in ascending token order
    with that sender preference, so ties among maximum matchings break
    deterministically.
    """
    match_of_sender: dict[int, int] = {}
    match_of_token: dict[int, int] = {}

    def try_assign(tok: int, visited: set[int]) -> bool:
        for u in senders_of[tok]:
            if u in visited:
                continue
            visited.add(u)
            if u not in match_of_sender or try_assign(match_of_sender[u], visited):
                match_of_sender[u] = tok
                match_of_token[tok] = u
                return True
        return False

    for tok in sorted(senders_of):
        try_assign(tok, set())
    return {(u, tok) for tok, u in match_of_token.items()}


def exchange_instance(
    state: TokenState, snapshot: NetworkSnapshot, node: int, allowed: int = -1
) -> dict[int, list[int]]:
    """The matching instance for one receiver: each token it lacks that some
    neighbour holds, mapped to those neighbours in ascending order.  Only
    tokens in the bitset `allowed` count (e.g. the current reduction group;
    -1 allows all)."""
    holdings = state.holdings
    lacking = allowed ^ (allowed & holdings[node])
    senders_of: dict[int, list[int]] = {}
    for u in snapshot.adjacency[node]:  # ascending, so each list is sorted
        offered = holdings[u] & lacking
        for tok in mask_tokens(offered):
            senders_of.setdefault(tok, []).append(u)
    return senders_of


def greedy_exchange_round(
    state: TokenState,
    snapshot: NetworkSnapshot,
    token_filter: Iterable[int] | None = None,
) -> list[Send]:
    """One round maximizing, for every node, the number of new tokens it
    receives.  Returns the composed transfer plan."""
    allowed = -1 if token_filter is None else token_mask(token_filter)
    plan: list[Send] = []
    for v in range(state.n):
        senders_of = exchange_instance(state, snapshot, v, allowed)
        for u, tok in sorted(max_bipartite_matching(senders_of)):
            plan.append((u, v, tok))
    return plan
