"""Per-node maximum bipartite matching and the greedy exchange round.

In a greedy exchange round, each node v builds a bipartite graph between its
neighbors and the tokens it is missing (restricted to tokens some neighbor
holds), computes a maximum matching, and each matched neighbor sends the
matched token to v.  The per-node matchings compose into one valid transfer
plan because a directed edge (u, v) can only be used by v's own matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import NetworkSnapshot, Send, TokenState, mask_tokens, token_mask


@dataclass(frozen=True)
class BipartiteInstance:
    """Matching instance for one receiving node.

    `left` are candidate senders (neighbors), `right` are candidate tokens
    the receiver is missing, and `adjacency` contains (sender, token) pairs
    where the sender holds the token.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    adjacency: frozenset[tuple[int, int]]


def max_bipartite_matching(instance: BipartiteInstance) -> set[tuple[int, int]]:
    """Maximum-cardinality matching as a set of (sender, token) pairs.

    Augmenting-path search seeded in ascending token order with ascending
    sender preference, so ties among maximum matchings break
    deterministically.  Precondition, not checked: every adjacency pair
    has its sender in `left` and its token in `right`, as `exchange_instance`
    builds them.
    """
    senders_of: dict[int, list[int]] = {tok: [] for tok in instance.right}
    for u, tok in instance.adjacency:
        senders_of[tok].append(u)
    for lst in senders_of.values():
        lst.sort()

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

    for tok in sorted(instance.right):
        try_assign(tok, set())
    return {(u, tok) for tok, u in match_of_token.items()}


def exchange_instance(
    state: TokenState, snapshot: NetworkSnapshot, node: int, allowed: int = -1
) -> BipartiteInstance:
    """Build the matching instance for one receiver, restricted to the token
    bitset `allowed` (e.g. the current reduction group; -1 allows all)."""
    neighbors = snapshot.adjacency[node]
    holdings = state.holdings
    lacking = allowed ^ (allowed & holdings[node])
    missing = 0
    adjacency = []
    for u in neighbors:
        offered = holdings[u] & lacking
        if offered:
            missing |= offered
            adjacency.extend((u, tok) for tok in mask_tokens(offered))
    return BipartiteInstance(
        left=tuple(neighbors),
        right=tuple(mask_tokens(missing)),
        adjacency=frozenset(adjacency),
    )


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
        instance = exchange_instance(state, snapshot, v, allowed)
        if not instance.right:
            continue
        for u, tok in sorted(max_bipartite_matching(instance)):
            plan.append((u, v, tok))
    return plan
