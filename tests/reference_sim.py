"""Straight-line reference simulator, independent of the package internals.

Implements the round contract directly over dicts of sets, with a per-round
rng derived by the same published keying rule.  Rand-Diff: every directed
edge carries one token drawn uniformly from the sender-minus-receiver
difference, in ascending directed-edge draw order.  skb-uniform: every node
holding tokens, in ascending order, draws one of them uniformly by arrival
position and broadcasts it.  Used as the oracle for engine completion values
and skb arrival orders; kept free of gossipsim imports on purpose.
"""

import hashlib
import random


def _round_rng(seed, t):
    material = "|".join(repr(k) for k in (seed, "round", t)).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def reference_rand_diff_completion(n, edges, holdings, max_rounds, seed):
    """Rounds until every node holds every token, or None on timeout.

    `edges` is a static undirected edge list; `holdings` maps node -> set of
    tokens at round 0.
    """
    sets = {v: set(holdings.get(v, ())) for v in range(n)}
    universe = set()
    for toks in sets.values():
        universe |= toks
    directed = sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
    for t in range(1, max_rounds + 1):
        rng = _round_rng(seed, t)
        sends = []
        for u, v in directed:
            diff = sets[u] - sets[v]
            if diff:
                if len(diff) == 1:
                    (tok,) = diff
                else:
                    tok = rng.choice(sorted(diff))
                sends.append((v, tok))
        for v, tok in sends:
            sets[v].add(tok)
        if all(sets[v] == universe for v in range(n)):
            return t
    return None


def reference_skb_uniform_run(n, rounds_edges, holdings, insertions, seed):
    """skb-uniform for `len(rounds_edges)` rounds; round t's undirected
    edges are `rounds_edges[t - 1]`.

    `holdings` maps node -> its round-0 tokens in arrival order;
    `insertions` holds (round, node, token) triples.  Round-0 insertions
    land before round 1; the others land after their round's sends, by
    ascending node and token.  Every send is decided from the state at the
    start of its round.  Returns the per-round counts of new (node, token)
    arrivals and, per node, its (token, round) arrivals in order.
    """
    arrivals = {v: [(tok, 0) for tok in holdings.get(v, ())] for v in range(n)}
    held = {v: {tok for tok, _ in arrivals[v]} for v in range(n)}
    inserted = {}
    for t, node, tok in sorted(insertions):
        inserted.setdefault(t, []).append((node, tok))

    def land(node, tok, t):
        if tok in held[node]:
            return 0
        held[node].add(tok)
        arrivals[node].append((tok, t))
        return 1

    for node, tok in inserted.get(0, ()):
        land(node, tok, 0)
    per_round = []
    for t, edges in enumerate(rounds_edges, 1):
        rng = _round_rng(seed, t)
        neighbours = {v: set() for v in range(n)}
        for u, v in edges:
            if u != v:
                neighbours[u].add(v)
                neighbours[v].add(u)
        sends = []
        for v in range(n):
            if arrivals[v]:
                # randrange(m) is the engine's `_randbelow(m)` draw
                tok = arrivals[v][rng.randrange(len(arrivals[v]))][0]
                sends += [(nb, tok) for nb in sorted(neighbours[v]) if tok not in held[nb]]
        new = sum(land(nb, tok, t) for nb, tok in sends)
        new += sum(land(node, tok, t) for node, tok in inserted.get(t, ()))
        per_round.append(new)
    return per_round, arrivals
