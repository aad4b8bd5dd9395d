"""Round-synchronous simulation core for token dissemination on dynamic graphs.

The model: a fixed vertex set, one communication graph per round (always
connected), and token-forwarding semantics -- nodes store, copy, and forward
tokens, never combine or drop them.  One token may cross each *directed* edge
per round.  A schedule (graph sequence plus optional pre-committed token
insertions) is fixed before any protocol randomness is drawn, so the
adversary is oblivious to protocol coins; its graphs are built round by round
from the generator's compact per-round data.

Round structure:
  1. the protocol observes the state and the current snapshot,
  2. a transfer plan is fixed,
  3. transfers and this round's insertions apply atomically,
  4. the round counter advances.

Arrival times of initially-held tokens are round 0; a transfer or insertion
executed in round t records arrival time t.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect_left, insort
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Callable, Hashable, Iterable, NamedTuple, Protocol, Sequence

NodeId = int
TokenId = int
Edge = tuple[int, int]        # canonical form (u, v) with u <= v
Send = tuple[int, int, int]   # (sender, receiver, token)


class PlanError(ValueError):
    """A transfer plan violated edge or holding preconditions.

    This signals a buggy protocol implementation, not an adversary action.
    """


class ScheduleError(ValueError):
    """A schedule failed structural validation."""


class RoundBudgetExhausted(ScheduleError):
    """An engine run was asked to execute past its round budget."""


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def derive_rng(*keys) -> random.Random:
    """Deterministic RNG derivation from a key tuple.

    Hash-based so the stream is stable across processes and Python versions,
    which the reproducibility contract requires.
    """
    material = "|".join(repr(k) for k in keys).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


# ---------------------------------------------------------------------------
# Snapshots


class NetworkSnapshot:
    """One round's communication graph: undirected, expected connected."""

    __slots__ = ("n", "edges", "_adjacency", "_directed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        # Canonical (u <= v) pairs are kept as given; others are flipped.
        self.edges: frozenset[Edge] = frozenset(
            [e if e[0] <= e[1] else (e[1], e[0]) for e in edges]
        )
        self._adjacency = None
        self._directed = None

    @classmethod
    def from_canonical(cls, n: int, pairs: Iterable[Edge]) -> "NetworkSnapshot":
        """The graph of `pairs`, frozen as given.  Precondition: every pair is
        (u, v) with u <= v, as the `random` rounds and the DGS1 reader make
        them; a flipped pair would be a different edge."""
        snap = cls(n, ())
        snap.edges = frozenset(pairs)
        return snap

    @classmethod
    def line(cls, n: int, order: Sequence[int]) -> "NetworkSnapshot":
        """The path graph along `order` (distinct nodes; the others are
        isolated)."""
        return cls(n, zip(order, order[1:]))

    def __eq__(self, other):
        return (
            isinstance(other, NetworkSnapshot)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"NetworkSnapshot(n={self.n}, m={len(self.edges)})"

    @property
    def adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists, computed once and shared across rounds."""
        if self._adjacency is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
            for lst in adj:
                lst.sort()
            self._adjacency = adj
        return self._adjacency

    @property
    def directed_edges(self) -> list[tuple[int, int]]:
        """All directed edges in ascending (sender, receiver) order."""
        if self._directed is None:
            directed = []
            for u, v in self.edges:
                if u != v:
                    directed.append((u, v))
                    directed.append((v, u))
            directed.sort()
            self._directed = directed
        return self._directed

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    def edited(self, removed: Iterable[Edge], added: Iterable[Edge] = ()) -> "NetworkSnapshot":
        """This graph minus `removed` plus `added` (canonical pairs).

        The directed edges and adjacency this graph has already built are
        spliced, not rebuilt: removals are cut out of the directed edges in
        one pass, additions are inserted by bisection, and only the touched
        nodes' neighbour lists are copied; the others are shared.
        """
        added = frozenset(added)
        removed = self.edges.intersection(removed) - added  # a pair in both stays
        added = added - self.edges
        snap = NetworkSnapshot(self.n, ())
        snap.edges = self.edges - removed
        if added:
            snap.edges |= added
        cut = sorted(p for u, v in removed if u != v for p in ((u, v), (v, u)))
        put = [p for u, v in added if u != v for p in ((u, v), (v, u))]
        if self._directed is not None:
            directed = self._directed
            ends = [bisect_left(directed, p) for p in cut]
            starts = [0, *(i + 1 for i in ends)]
            pieces = map(directed.__getitem__, map(slice, starts, [*ends, None]))
            snap._directed = list(chain.from_iterable(pieces))
            for p in put:
                insort(snap._directed, p)
        if self._adjacency is not None:
            gone: dict[int, set[int]] = {}
            for u, v in chain(cut, put):
                gone.setdefault(u, set()).add(v)
            adj = snap._adjacency = self._adjacency.copy()
            for u, vs in gone.items():  # touched nodes' lists are copies
                adj[u] = [v for v in adj[u] if v not in vs]
            for u, v in put:
                insort(adj[u], v)
        return snap


def node_array(n: int, values: Iterable[int] = ()) -> array:
    """Compact array for node ids (or other values) below n."""
    return array("B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "I", values)


@dataclass
class Check:
    """A validator's verdict: rejection names the first violated property
    and carries a witness."""

    ok: bool
    reason: str | None = None
    witness: object = None

    def __bool__(self):
        return self.ok


def bfs_distances(snapshot: NetworkSnapshot, sources: Iterable[int]) -> list[int]:
    """Hop distance from the nearest source to every node; n + 1 marks a node
    no source reaches."""
    n = snapshot.n
    dist = [n + 1] * n
    frontier = list(set(sources))
    for s in frontier:
        dist[s] = 0
    adj = snapshot.adjacency
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] > du:
                    dist[v] = du
                    nxt.append(v)
        frontier = nxt
    return dist


def validate_snapshot(snapshot: NetworkSnapshot) -> Check:
    """Accept iff the graph is simple, loop-free, in-range, and connected.

    Rejection is a value naming the first violated property and a witness,
    not an exception.
    """
    n = snapshot.n
    if n < 1:
        return Check(False, "empty-node-set", n)
    for u, v in snapshot.edges:
        if u == v:
            return Check(False, "self-loop", (u, v))
        if not (0 <= u < n and 0 <= v < n):
            return Check(False, "node-out-of-range", (u, v))
    # Connectivity from node 0; the witness is the unreachable nodes.
    unreachable = [v for v, d in enumerate(bfs_distances(snapshot, [0])) if d > n]
    if unreachable:
        return Check(False, "disconnected", unreachable)
    return Check(True)


# ---------------------------------------------------------------------------
# Schedules


class InsertionEvent(NamedTuple):
    """One (round, node, token) insertion of a schedule's expanded view."""

    round: int
    node: NodeId
    token: TokenId


class InsertionView:
    """A schedule's insertions as events in (round, node, token) order, made
    while iterating; `len` counts mask bits."""

    def __init__(self, masks: Mapping[int, list[tuple[int, int]]]):
        self._masks = masks

    def __len__(self) -> int:
        return sum(mask.bit_count() for pairs in self._masks.values() for _, mask in pairs)

    def __eq__(self, other):
        return list(self) == list(other)

    def __iter__(self):
        for t in sorted(self._masks):
            for node, mask in self._masks[t]:
                for tok in mask_tokens(mask):
                    yield InsertionEvent(t, node, tok)


class RoundSource:
    """A schedule's graphs, built on demand.

    `key_of(t)` names the graph of round t (1 <= t <= horizon): the round
    itself, a variant index or a segment.  `build(key)` makes that graph.
    Only the latest key's snapshot is kept, so the rounds of one segment and
    a cyclic tail reuse one object and its cached adjacency and directed
    edges, while the generator keeps only its compact per-round data.  Line
    schedules derive each segment's graph from the kept one (`lines`).
    """

    __slots__ = ("key_of", "build", "_key", "_snapshot")

    def __init__(
        self, key_of: Callable[[int], Hashable], build: Callable[[Hashable], NetworkSnapshot]
    ):
        self.key_of = key_of
        self.build = build
        self._key = self._snapshot = None

    def __call__(self, t: int) -> NetworkSnapshot:
        key = self.key_of(t)
        if key != self._key:
            self._snapshot = self.build(key)
            self._key = key
        return self._snapshot

    @classmethod
    def static(cls, snapshot: NetworkSnapshot) -> "RoundSource":
        return cls(lambda t: 0, lambda key: snapshot)

    @classmethod
    def lines(
        cls,
        n: int,
        orders: Sequence[Sequence[int]],
        span: int,
        moves: Sequence[tuple[Sequence[Edge], Sequence[Edge]]],
    ) -> "RoundSource":
        """Round t is the path graph along `orders[(t-1) // span]`.

        `moves[k]` is the generator's (removed, added) canonical pairs that
        take order k-1 to order k (`moves[0]` is not read).  The segment
        after the kept one is the kept graph `edited` by its moves, so it
        costs what changes; any other access builds the line afresh."""

        def build(k: int) -> NetworkSnapshot:
            if k and source._key == k - 1:
                return source._snapshot.edited(*moves[k])
            return NetworkSnapshot.line(n, orders[k])

        source = cls(lambda t: (t - 1) // span, build)
        return source


def line_step(
    left: list[int], middle: list[int], right: list[int], width: int, inner_width: int
) -> tuple[list[int], list[int], list[int], tuple[list[Edge], list[Edge]]]:
    """One segment step of the line left + [0] + middle + right (`left`
    far-to-near, the others near-to-far).  The first `width` middle nodes
    front node 0; the first `inner_width` of them, capped at all but one,
    retire to the left and the rest go to the front of `right`: blocks left,
    0, inner, outer, rest, right become left, inner reversed, 0, rest, outer,
    right.  Returns the new left, middle and right, and the (removed, added)
    hops: the joins between blocks, read from block ends, since a block
    keeps its inner hops.  A join in both lists stays (`edited` keeps it)."""
    watched = middle[:width]
    iw = min(inner_width, max(0, len(watched) - 1))
    inner, outer, rest = watched[:iw], watched[iw:], middle[width:]
    retired = inner[::-1]
    before = [left, [0], inner, outer, rest, right]
    after = [left, retired, [0], rest, outer, right]
    removed, added = (
        [canonical_edge(a[-1], b[0]) for a, b in zip(ends, ends[1:])]
        for ends in ([b for b in blocks if b] for blocks in (before, after))
    )
    return left + retired, rest, outer + right, (removed, added)


def line_phases(n: int, root: int) -> tuple[int, bool]:
    """A line adversary's phase count, root / (2 log2 n) floored and clamped
    below at 1 (root is sqrt(n) or cbrt(n)), and whether the clamp applied."""
    phases = root / (2 * math.log2(n))
    return max(1, int(phases)), phases < 1


@dataclass
class AdversarySchedule:
    """A pre-committed sequence of graphs plus optional insertions.

    `snapshot_at(t)` is the graph for round t (rounds are 1-indexed), from
    the round source `rounds`; a sequence of one snapshot per round is
    accepted in its place.  Rounds are cheapest in order: a line schedule
    derives each segment's graph from the one before, and any other access
    builds the same graph afresh.  When `cyclic_extendable` is set, rounds beyond
    the horizon repeat the final graph (a static, still-connected tail).
    `insertion_masks[t]` holds round t's insertions as ascending (node, token
    mask) pairs: the tokens appear at the node at the end of round t, and
    round 0's before the first round (arrival time 0).  Only invasive-mode
    schedules may carry them.
    """

    n: int
    horizon: int
    rounds: RoundSource
    insertion_masks: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    mode: str = "oblivious"  # "oblivious" | "invasive"
    metadata: dict = field(default_factory=dict)
    cyclic_extendable: bool = False

    def __post_init__(self):
        snapshots = self.rounds
        if not isinstance(snapshots, RoundSource):  # parsed files, hand-built schedules
            if len(snapshots) != self.horizon:
                raise ScheduleError(f"snapshot count {len(snapshots)} != horizon {self.horizon}")
            self.rounds = RoundSource(lambda t: t, lambda t: snapshots[t - 1])

    def snapshot_at(self, t: int) -> NetworkSnapshot:
        if t < 1:
            raise ScheduleError(f"round index {t} < 1")
        if t > self.horizon:
            if not self.cyclic_extendable:
                raise ScheduleError(f"round {t} beyond horizon {self.horizon} (not extendable)")
            t = self.horizon
        return self.rounds(t)

    def insertions_at(self, t: int) -> list[tuple[int, int]]:
        return self.insertion_masks.get(t, [])

    @property
    def insertions(self) -> InsertionView:
        return InsertionView(self.insertion_masks)

    def validate(self) -> list[str]:
        """Structural checks; returns a list of problems (empty means valid)."""
        problems = []
        if self.mode not in ("oblivious", "invasive"):
            problems.append(f"unknown mode {self.mode!r}")
        if self.mode == "oblivious" and any(self.insertion_masks.values()):
            problems.append("oblivious schedule carries insertion events")
        last = None
        for t in range(1, self.horizon + 1):
            snap = self.snapshot_at(t)
            if snap is last:
                continue
            last = snap
            if snap.n != self.n:
                problems.append(f"round {t}: snapshot n={snap.n} != schedule n={self.n}")
            check = validate_snapshot(snap)
            if not check:
                problems.append(f"round {t}: {check.reason} (witness {check.witness})")
                break
        for t, pairs in self.insertion_masks.items():
            if not (0 <= t <= self.horizon):
                problems.append(f"insertion round {t} outside [0, {self.horizon}]")
                break
            if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
                problems.append(f"round {t}: insertion nodes not strictly ascending")
                break
            outside = [node for node, _ in pairs if not 0 <= node < self.n]
            if outside:
                problems.append(f"round {t}: insertion node {outside[0]} outside [0, {self.n})")
                break
        return problems


# ---------------------------------------------------------------------------
# Token state


@dataclass(frozen=True)
class TokenUniverse:
    """Token id space.  Ids >= real_count are dummies added by reductions."""

    size: int
    real_count: int

    def __post_init__(self):
        if not (0 <= self.real_count <= self.size):
            raise ValueError("real_count must be within [0, size]")


# Token sets as Python-int bitsets: bit t set <=> token t in the set.

# _SELECT8[b][r] is the position of the r-th lowest set bit of the byte b.
_SELECT8 = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]
# _LOW_MASKS[k] has the lowest 2**k bits set; grown on demand.
_LOW_MASKS: list[int] = []


# Between a membership byte row (0/1 per token id) and a bitset's binary
# digits, each way in one C pass.
_BYTES_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def token_mask(tokens: Iterable[int]) -> int:
    """Bitset of a token collection.

    A step-1 `range` is a run of ones, made by one subtraction.  One
    `1 << tok` OR per token costs O(width) each, so another collection
    holding at least 1/16 of its width is set in a byte row instead, one
    byte per id, and read as the mask's binary digits.
    """
    if isinstance(tokens, range) and tokens.step == 1 and tokens:
        if tokens.start < 0:
            raise ValueError(f"negative token {tokens.start}")
        return (1 << tokens.stop) - (1 << tokens.start)
    tokens = list(tokens)
    top = max(tokens, default=0)
    if len(tokens) * 16 < top:
        mask = 0
        for tok in tokens:
            mask |= 1 << tok
        return mask
    if min(tokens, default=0) < 0:
        raise ValueError(f"negative token {min(tokens)}")
    row = bytearray(top + 1)
    for tok in tokens:
        row[tok] = 1
    row.reverse()
    return int(row.translate(_BYTES_TO_DIGITS), 2)


def mask_tokens(mask: int) -> list[int]:
    """Tokens of a bitset in ascending order: a `find` per set bit for a
    sparse mask, one C-level pass over the digits for a dense one."""
    bits = bin(mask)[:1:-1]  # bit i at index i
    if mask.bit_count() * 8 >= len(bits):
        flags = bits.encode().translate(_DIGITS_TO_BYTES)
        return list(compress(range(len(flags)), flags))
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def select_token(mask: int, r: int) -> int:
    """The r-th smallest token of a bitset (r counts from 0, r < popcount).

    Equal to `mask_tokens(mask)[r]`: the mask is halved down to a byte by
    popcount, then the byte's bit is looked up.
    """
    k = (mask.bit_length() - 1).bit_length()  # the mask fits in 2**k bits
    if k > len(_LOW_MASKS):
        _LOW_MASKS.extend((1 << (1 << j)) - 1 for j in range(len(_LOW_MASKS), k))
    base = 0
    while k > 3:
        k -= 1
        low = mask & _LOW_MASKS[k]
        c = low.bit_count()
        if r < c:
            mask = low
        else:
            r -= c
            mask >>= 1 << k
            base += 1 << k
    return base + _SELECT8[mask][r]


class ArrivalView(Mapping):
    """One node's arrivals as a read-only mapping token -> first-arrival
    round, read live from the state.  Items come in arrival order, so their
    rounds never decrease."""

    __slots__ = ("_state", "_node")

    def __init__(self, state: TokenState, node: int):
        self._state = state
        self._node = node

    def _records(self) -> tuple[Sequence[int], Sequence[int]]:
        return self._state.holdings_seq[self._node], self._state.when[self._node]

    def __contains__(self, token) -> bool:
        return self._state.holds(self._node, token)

    def __getitem__(self, token: int) -> int:
        if token not in self:
            raise KeyError(token)
        seq, when = self._records()
        return when[seq.index(token)]

    def __iter__(self):
        return iter(self._records()[0])

    def __len__(self) -> int:
        return len(self._records()[0])

    def __repr__(self):
        return f"ArrivalView({dict(self.items())})"

    def items(self):
        return _ArrivalItems(self)


class _ArrivalItems(ItemsView):
    def __iter__(self):
        return zip(*self._mapping._records())


class TokenState:
    """Per-node token sets with first-arrival times.

    Holdings only grow (store/copy/forward semantics).  Per node v:
    `holdings[v]` is its token set as a bitset, for set algebra across
    nodes; `member[v][tok]` is 1 iff v holds tok, for single-token tests;
    `holdings_seq[v]` is its tokens in arrival order, which gives O(1)
    uniform sampling over held tokens; and `when[v][i]` is the round at
    which `holdings_seq[v][i]` first appeared at v (initially-held tokens
    have round 0).  `member[v]` covers only v's own tokens: it is longer
    than v's highest token, at most the universe size, and holds no id past
    its end.  An empty node shares one empty row and empty sequences until
    its first token lands.  `arrivals` gives the same records as one
    read-only mapping per node.

    `completed_at` is the one record of completion: node -> the first round
    at which the node holds every real token, filled where tokens land (by
    `_add_sends` and `add_mask`).  With no real tokens every node is
    complete at round 0.
    """

    __slots__ = (
        "n",
        "universe",
        "holdings",
        "member",
        "holdings_seq",
        "when",
        "current_round",
        "completed_at",
        "_real_counts",
    )

    def __init__(
        self,
        n: int,
        universe: TokenUniverse,
        initial: Mapping[int, Iterable[int]] | None = None,
    ):
        self.n = n
        self.universe = universe
        self.holdings: list[int] = [0] * n
        self.member: list[bytes | bytearray] = [b""] * n
        self.holdings_seq: list[Sequence[int]] = [()] * n
        self.when: list[Sequence[int]] = [()] * n
        self.current_round = 0
        self.completed_at: dict[int, int] = (
            {} if universe.real_count else dict.fromkeys(range(n), 0)
        )
        self._real_counts = [0] * n
        if initial:
            for node, tokens in initial.items():
                self.add_mask(node, token_mask(tokens), 0)

    def _cover(self, node: int, top: int) -> bytearray:
        """Grow the node's row to cover token `top` (< universe size): from
        512 bytes, doubling, capped at the universe size.  An empty node
        gets records of its own."""
        row = self.member[node]
        length = len(row) or 512
        while length <= top:
            length *= 2
        length = min(length, self.universe.size)
        if row:
            row.extend(bytes(length - len(row)))
        else:
            row = self.member[node] = bytearray(length)
            self.holdings_seq[node] = node_array(self.universe.size)
            self.when[node] = array("I")
        return row

    def _add_sends(self, plan: Sequence[Send], rnd: int) -> list[tuple[int, int]]:
        """Land a validated plan's sends, whose senders hold their tokens, so
        every token is in the universe; returns the new (token, node)
        arrivals in plan order."""
        member, holdings = self.member, self.holdings
        seqs, whens, counts = self.holdings_seq, self.when, self._real_counts
        real, completed = self.universe.real_count, self.completed_at
        new = []
        for _, node, token in plan:
            row = member[node]
            try:
                if row[token]:
                    continue
            except IndexError:  # past the row's end: not held yet
                row = self._cover(node, token)
            row[token] = 1
            holdings[node] |= 1 << token
            seqs[node].append(token)
            whens[node].append(rnd)
            if token < real:
                counts[node] += 1
                if counts[node] == real:
                    completed[node] = rnd
            new.append((token, node))
        return new

    def add_mask(self, node: int, mask: int, rnd: int) -> int:
        """Add a token set at once; returns the mask of its newly held
        tokens (0 if none), which are appended in ascending order."""
        held = self.holdings[node]
        new = mask ^ (mask & held)
        if not new:
            return 0
        if new.bit_length() > self.universe.size:
            raise ValueError(f"token {new.bit_length() - 1} outside universe {self.universe}")
        tokens = mask_tokens(new)
        row = self.member[node]
        if len(row) < new.bit_length():
            row = self._cover(node, new.bit_length() - 1)
        held |= new
        width = held.bit_length()
        if len(tokens) * 16 >= width:  # dense: the row's prefix is held's digits
            row[:width] = bin(held)[:1:-1].encode().translate(_DIGITS_TO_BYTES)
        else:
            for tok in tokens:
                row[tok] = 1
        self.holdings[node] = held
        self.holdings_seq[node].fromlist(tokens)
        self.when[node].fromlist([rnd] * len(tokens))
        real = self.universe.real_count
        self._real_counts[node] += (new & ((1 << real) - 1)).bit_count()
        if self._real_counts[node] == real:
            self.completed_at.setdefault(node, rnd)
        return new

    @property
    def arrivals(self) -> list[ArrivalView]:
        """Per node, a read-only mapping token -> first-arrival round."""
        return [ArrivalView(self, v) for v in range(self.n)]

    def holds(self, node: int, token: int) -> bool:
        row = self.member[node]
        return 0 <= token < len(row) and row[token] == 1

    def tokens(self, node: int) -> frozenset[int]:
        return frozenset(self.holdings_seq[node])

    def node_complete(self, node: int) -> bool:
        return node in self.completed_at

    def all_complete(self) -> bool:
        return len(self.completed_at) == self.n

    def __eq__(self, other):
        return (
            isinstance(other, TokenState)
            and self.n == other.n
            and self.universe == other.universe
            and self.current_round == other.current_round
            and self.holdings == other.holdings
            and self.arrivals == other.arrivals
        )


def validate_plan(plan: Sequence[Send], snapshot: NetworkSnapshot, state: TokenState) -> None:
    """Raise PlanError unless every send uses a live edge, a held token, and
    each directed edge carries at most one token.  A plan with several
    faults reports the first in plan order.

    One pass checks each send and collects its directed edge; only a
    faulty plan is walked again, to name its first fault."""
    edges = snapshot.edges
    member = state.member
    size = state.universe.size
    used: set[tuple[int, int]] = set()
    use = used.add
    try:
        for u, v, tok in plan:
            if not (
                ((u, v) if u < v else (v, u) if v < u else None) in edges
                and 0 <= tok < size
                and member[u][tok]
            ):
                break
            use((u, v))
        else:
            if len(used) == len(plan):
                return
    except IndexError:  # a token past its sender's row
        pass
    # Some send is faulty: find the first and say what is wrong with it.
    used.clear()
    for send in plan:
        u, v, tok = send
        if u == v:
            raise PlanError(f"self-send {send}")
        if not snapshot.has_edge(u, v):
            raise PlanError(f"send {send} uses absent edge")
        if (u, v) in used:
            raise PlanError(f"directed edge ({u}, {v}) used twice")
        used.add((u, v))
        if not state.holds(u, tok):
            raise PlanError(f"sender {u} does not hold token {tok}")


# ---------------------------------------------------------------------------
# Engine


class SteppedProtocol(Protocol):
    name: str

    def plan_round(
        self, state: TokenState, snapshot: NetworkSnapshot, rng: random.Random
    ) -> list[Send]: ...


@dataclass
class SimulationResult:
    """Outcome of one run.  `completion_round` is None on timeout."""

    completion_round: int | None
    timed_out: bool
    rounds_executed: int
    per_round_new_arrivals: list[int]
    per_node_completion: dict[int, int]
    final_state: TokenState
    stopped_early: bool = False


class EngineRun:
    """Driver for a single run: owns the state, round counter, and rng streams.

    Used directly by centralized schedulers (which plan each round with full
    knowledge of the current snapshot but never future ones) and wrapped by
    `run_simulation` for distributed per-round protocols.  It keeps no
    completion record of its own: `complete()` and `result()` read the
    state's `completed_at`.
    """

    def __init__(
        self,
        schedule: AdversarySchedule,
        state: TokenState,
        seed: int,
        max_rounds: int,
    ):
        if schedule.horizon < max_rounds and not schedule.cyclic_extendable:
            raise ScheduleError(
                f"horizon {schedule.horizon} < max_rounds {max_rounds} and schedule "
                "is not cyclic-extendable"
            )
        if state.current_round != 0:
            raise ValueError("EngineRun requires a fresh state (current_round == 0)")
        self.schedule = schedule
        self.state = state
        self.seed = seed
        self.max_rounds = max_rounds
        self.per_round_new_arrivals: list[int] = []
        # Round-0 insertions land before the first round with arrival time 0.
        self.inserted: list[tuple[int, int]] = [
            (node, new)
            for node, mask in schedule.insertions_at(0)
            if (new := state.add_mask(node, mask, 0))
        ]

    @property
    def next_round(self) -> int:
        return self.state.current_round + 1

    @property
    def rounds_executed(self) -> int:
        return self.state.current_round

    def exhausted(self) -> bool:
        return self.next_round > self.max_rounds

    def complete(self) -> bool:
        return self.state.all_complete()

    def current_snapshot(self) -> NetworkSnapshot:
        return self.schedule.snapshot_at(self.next_round)

    def round_rng(self) -> random.Random:
        return derive_rng(self.seed, "round", self.next_round)

    def subsystem_rng(self, *keys) -> random.Random:
        """Named stream for scheduler-internal randomness (e.g. permutations)."""
        return derive_rng(self.seed, *keys)

    def execute(self, plan: Sequence[Send]) -> list[tuple[int, int]]:
        """Execute the next round: `plan`'s transfers and the schedule's
        insertions for the round land atomically.

        Raises PlanError (before anything changes) if the plan is invalid.
        New arrivals, and the completions they bring, are recorded by the
        state at the executed round index; nothing is ever removed.  Returns
        the sends' new (token, node) arrivals in plan order, for the stop
        hook of `run_simulation`.  The insertions that added tokens are kept
        in `inserted` as ascending (node, new-token mask) pairs, never
        expanded per token; `per_round_new_arrivals` counts both.
        """
        t = self.next_round
        if t > self.max_rounds:
            raise RoundBudgetExhausted(f"round budget {self.max_rounds} exhausted")
        snapshot = self.schedule.snapshot_at(t)
        state = self.state
        validate_plan(plan, snapshot, state)
        sent = state._add_sends(plan, t)
        count = len(sent)
        self.inserted = inserted = []
        for node, mask in self.schedule.insertions_at(t):
            new = state.add_mask(node, mask, t)
            if new:
                inserted.append((node, new))
                count += new.bit_count()
        state.current_round = t
        self.per_round_new_arrivals.append(count)
        return sent

    def result(self, stopped_early: bool = False) -> SimulationResult:
        done = self.complete()
        completed = self.state.completed_at
        return SimulationResult(
            completion_round=max(completed.values()) if done else None,
            timed_out=not done,
            rounds_executed=self.rounds_executed,
            per_round_new_arrivals=list(self.per_round_new_arrivals),
            per_node_completion=dict(completed),
            final_state=self.state,
            stopped_early=stopped_early,
        )


StopHook = Callable[[TokenState, int, list, list], bool]
"""`stop_when(state, round, sent, inserted)`: called after each executed
round with `EngineRun.execute`'s (token, node) send arrivals and the round's
`EngineRun.inserted` (node, new-token mask) pairs; True ends the run."""


def run_simulation(
    schedule: AdversarySchedule,
    protocol: SteppedProtocol,
    initial: TokenState,
    max_rounds: int,
    seed: int,
    stop_when: StopHook | None = None,
) -> SimulationResult:
    """Run a per-round protocol against a schedule.

    Runs rounds 1..max_rounds or until every node holds every non-dummy
    token.  Identical (schedule, protocol, initial, seed) inputs reproduce
    identical results: protocol randomness comes from a per-round stream
    derived from the run seed, never from the schedule's generation seed, and
    draws within a round follow the protocol's canonical order.

    `stop_when(state, round, sent, inserted)` may end the run early (used
    for sentinel-arrival measurements): `sent` is the round's (token, node)
    send arrivals and `inserted` its (node, new-token mask) insertions, as
    `EngineRun.execute` and `EngineRun.inserted` give them.  The result is
    then marked stopped_early.
    """
    run = EngineRun(schedule, initial, seed, max_rounds)
    stopped = False
    while not run.complete() and not run.exhausted():
        snapshot = run.current_snapshot()
        rng = run.round_rng()
        plan = protocol.plan_round(run.state, snapshot, rng)
        sent = run.execute(plan)
        if stop_when is not None and stop_when(
            run.state, run.rounds_executed, sent, run.inserted
        ):
            stopped = True
            break
    return run.result(stopped_early=stopped)
