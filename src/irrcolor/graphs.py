"""Immutable bitmask-backed simple graphs and structural operations.

Vertices are the integers 0..n-1.  A vertex set is a plain ``int`` used as a
bitmask (type alias ``VertexSet``); adjacency is one mask per vertex.  Graph
values are frozen, so they can be shared freely across threads and all
operations here are pure functions.  A direct ``Graph(n, adj)`` checks its
rows; the package's own constructors (the codecs, ``from_edge_list`` and the
structural operations) check their own inputs and build rows that are
correct by construction, so they skip that check through ``_unchecked``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import FormatError, LoopError, ParameterError, UnsupportedSizeError

VertexSet = int

_G6_HEADER = b">>graph6<<"


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from(vertices: Iterable[int]) -> VertexSet:
    """Build a vertex-set mask from an iterable of indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class _Frozen:
    """Refuses assignment and deletion; ``__init__`` sets the fields through
    ``object.__setattr__``.  The fields stay in ``__dict__`` for the hot
    solver reads: on CPython 3.11 a NamedTuple field reads about twice as
    slowly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """Simple undirected graph: ``adj[v]`` is the open neighborhood of v.

    Invariants: adjacency is symmetric, loop-free, and no mask has bits at
    or beyond index n.  The public constructor ``Graph(n, adj)`` checks them;
    the package's own constructors build through ``_unchecked`` instead.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        self._check()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def _check(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency bits beyond vertex range at {v}")
            if row >> v & 1:
                raise LoopError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")

    @property
    def vertices(self) -> VertexSet:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def closed(self, v: int) -> VertexSet:
        """Closed neighborhood mask N[v]."""
        return self.adj[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)


def _unchecked(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph whose rows the caller built symmetric, loop-free and in range,
    without the public constructor's check."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


class ConnectivityProfile(NamedTuple):
    """Connectivity facts at the granularity the solvers need."""

    connected: bool
    cut_vertices: VertexSet
    bridges: tuple[tuple[int, int], ...]


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from 0-based edge pairs; duplicates collapse."""
    if n < 0:
        raise ParameterError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise LoopError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _unchecked(n, tuple(adj))


def closed_neighborhood_of_set(g: Graph, s: VertexSet) -> VertexSet:
    """N[S]: the union of closed neighborhoods over the members of ``s``."""
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def bipartition(g: Graph) -> Optional[tuple[VertexSet, VertexSet]]:
    """2-color by BFS, lowest vertex of each component on side one.

    Returns ``(V1, V2)`` or ``None`` when an odd cycle exists.
    """
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        for v in queue:  # the loop reaches what the body appends
            for u in bits(g.adj[v]):
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    v1 = mask_from(v for v in range(g.n) if side[v] == 0)
    return v1, g.vertices & ~v1


def connectivity_profile(g: Graph) -> ConnectivityProfile:
    """Connected flag plus cut vertices and bridges (low-link search).

    The depth-first search keeps its own stack, so long paths need no deep
    recursion.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    cuts = 0
    bridges: list[tuple[int, int]] = []
    timer = 0
    components = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        components += 1
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, bits(g.adj[root]))]  # (vertex, its parent, its unseen neighbors)
        while stack:
            u, parent, rest = stack[-1]
            v = next(rest, None)
            if v is None:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if parent != root and low[u] >= disc[parent]:
                        cuts |= 1 << parent
                    if low[u] > disc[parent]:
                        bridges.append((min(parent, u), max(parent, u)))
            elif disc[v] < 0:
                disc[v] = low[v] = timer
                timer += 1
                if u == root:
                    root_children += 1
                stack.append((v, u, bits(g.adj[v])))
            elif v != parent:
                low[u] = min(low[u], disc[v])
        if root_children > 1:
            cuts |= 1 << root
    return ConnectivityProfile(components <= 1, cuts, tuple(sorted(bridges)))


def component_count(g: Graph) -> int:
    seen = 0
    count = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        count += 1
        frontier = 1 << s
        while frontier:
            seen |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
    return count


def corona_k1(g: Graph) -> Graph:
    """Attach one pendant to every vertex; pendant of v sits at index n+v."""
    n = g.n
    adj = [row for row in g.adj] + [0] * n
    for v in range(n):
        adj[v] |= 1 << (n + v)
        adj[n + v] = 1 << v
    return _unchecked(2 * n, tuple(adj))


def merge_copies(g: Graph, shared: VertexSet, copies: int) -> Graph:
    """Glue ``copies`` copies of ``g`` along the vertex set ``shared``.

    Shared vertices keep one instance (listed first, in original order); the
    remaining vertices are duplicated per copy.  Parallel edges arising inside
    the shared part collapse to single edges.
    """
    if copies < 1:
        raise ParameterError("need at least one copy")
    if shared & ~g.vertices:
        raise ParameterError("shared set has bits outside the graph")
    shared_vs = list(bits(shared))
    private_vs = [v for v in range(g.n) if not shared >> v & 1]
    k = len(shared_vs)
    p = len(private_vs)
    total = k + copies * p
    pos_shared = {v: i for i, v in enumerate(shared_vs)}
    edges = []
    for c in range(copies):
        base = k + c * p
        pos = dict(pos_shared)
        pos.update({v: base + i for i, v in enumerate(private_vs)})
        for u, v in g.edges():
            edges.append((pos[u], pos[v]))
    return from_edge_list(total, edges)


# --- graph6 codec -----------------------------------------------------------
#
# Layout: one size byte n+63 (n <= 62), then the upper triangle x(i,j) for
# 0 <= i < j <= n-1 in column-major order, packed big-endian into 6-bit
# groups, each group offset by 63.  Padding bits must be zero.


def to_graph6(g: Graph) -> bytes:
    if g.n > 62:
        raise UnsupportedSizeError(f"graph6 size byte limited to n <= 62, got {g.n}")
    out = bytearray([g.n + 63])
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def parse_graph6(data) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise FormatError("graph6 records are ASCII") from exc
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise FormatError("empty graph6 record")
    first = data[0]
    if first == 126:
        raise FormatError("multi-byte graph6 size fields (n > 62) not supported")
    if not 63 <= first <= 126:
        raise FormatError(f"size byte {first} outside the printable range 63..126")
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    payload = data[1:]
    if len(payload) != need:
        raise FormatError(f"expected {need} payload bytes for n={n}, got {len(payload)}")
    bitstream = []
    for b in payload:
        if not 63 <= b <= 126:
            raise FormatError(f"payload byte {b} outside the printable range 63..126")
        group = b - 63
        bitstream.extend((group >> (5 - i)) & 1 for i in range(6))
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    if any(bitstream[idx:]):
        raise FormatError("nonzero padding bits")
    return _unchecked(n, tuple(adj))


# --- edge-list text format ---------------------------------------------------
#
# First non-comment line "n m", then m lines "u v" (0-based).  Lines starting
# with '#' are comments.


def parse_edge_list(text: str) -> Graph:
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: expected two integers, got {raw!r}") from exc
        if n is None:
            n, m = a, b
        else:
            edges.append((a, b))
    if n is None:
        raise FormatError("no header line 'n m' found")
    if len(edges) != m:
        raise FormatError(f"header declared {m} edges, found {len(edges)}")
    g = from_edge_list(n, edges)
    if g.m != m:  # a repeated edge, in either direction, would collapse
        raise FormatError(f"header declared {m} edges, found {g.m} distinct")
    return g


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
