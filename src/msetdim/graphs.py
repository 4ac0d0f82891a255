"""Immutable undirected graphs, seeded random generation, BFS sphere tables,
diameter, and empirical sphere-expansion audits.

Distances use a dedicated sentinel (UNREACHABLE) for vertices in other
components; no operation ever substitutes a large finite number.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exponents import RegimeParams
from .seeding import AUDIT_PAIRS, AUDIT_SINGLES, GNP_EDGES, substream

UNREACHABLE = -1

# Sources per BFS kernel call: each vertex keeps one bit per source in a
# single uint64 word.
BLOCK = 64

# Bytes an all-sources level table may take; graphs whose table would be
# larger stream their BFS blocks.  ceil(n/64) blocks of depth+1 levels of n
# uint64 words fit up to n of about 9000 at depth 6.
TABLE_BYTES = 64 << 20


class GraphFormatError(ValueError):
    """Malformed edge-list file."""


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with CSR adjacency.

    Immutable after construction and safe to share across workers.  Build via
    `Graph.from_edges`; the raw fields are an implementation detail.
    """

    n: int
    _indptr: np.ndarray
    _indices: np.ndarray
    _edges: np.ndarray  # (m, 2) with u < v, lexicographically sorted

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], strict: bool = True) -> "Graph":
        """Build from an iterable of unordered pairs.

        With strict=True (default), self-loops, duplicate edges, and
        out-of-range labels raise ValueError; with strict=False duplicates
        are silently merged (self-loops and bad labels still raise).
        """
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        arr = np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keys = lo * n + hi
        uniq = np.unique(keys)
        if strict and uniq.size != keys.size:
            raise ValueError("duplicate edges are not allowed")
        return Graph._from_sorted_keys(n, uniq)

    @staticmethod
    def _from_sorted_keys(n: int, keys: np.ndarray) -> "Graph":
        lo = keys // n
        hi = keys % n
        edge_arr = np.column_stack([lo, hi]).astype(np.int64)
        both_src = np.concatenate([lo, hi])
        both_dst = np.concatenate([hi, lo])
        # native-width indices, so gathering by them casts nothing
        order = np.argsort(both_src * n + both_dst, kind="stable")
        indices = both_dst[order].astype(np.intp)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both_src, minlength=n), out=indptr[1:])
        for a in (edge_arr, indices, indptr):
            a.setflags(write=False)
        return Graph(n=int(n), _indptr=indptr, _indices=indices, _edges=edge_arr)

    @property
    def num_edges(self) -> int:
        return int(self._edges.shape[0])

    @property
    def edge_array(self) -> np.ndarray:
        """(m, 2) array with u < v, sorted lexicographically; read-only."""
        return self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, v in self._edges:
            yield int(u), int(v)

    def neighbors(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.num_edges / self.n

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _check_sources(g: Graph, sources: Sequence[int]) -> np.ndarray:
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        raise ValueError("source set must be non-empty")
    if src.min() < 0 or src.max() >= g.n:
        raise ValueError("source vertex out of range")
    if np.unique(src).size != src.size:
        raise ValueError("duplicate source vertices")
    return src


def bfs_distances(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Distance from the source set to every vertex; UNREACHABLE where none."""
    src = _check_sources(g, sources)
    indptr, indices = g._indptr, g._indices
    dist = np.full(g.n, UNREACHABLE, dtype=np.int32)
    dist[src] = 0
    # slot[v] is one position of v among the level's new neighbors, written
    # and read for those alone, so each level costs its edges and not n
    slot = np.empty(g.n, dtype=np.int64)
    frontier = src
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        lens = ends - starts
        gather = np.repeat(ends - np.cumsum(lens), lens) + np.arange(int(lens.sum()))
        nbrs = indices[gather]
        nbrs = nbrs[dist[nbrs] == UNREACHABLE]
        at = np.arange(nbrs.size)
        slot[nbrs] = at
        frontier = nbrs[slot[nbrs] == at]
        level += 1
        dist[frontier] = level
    return dist


# ---------------------------------------------------------------------------
# Sphere tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereTable:
    """BFS layering from a source set.

    Layer k holds the vertices at distance exactly k from the set (the
    radius-k sphere); balls are unions of layers.  Layers partition the
    reachable vertex set; unreachable vertices carry the UNREACHABLE sentinel.
    """

    sources: tuple[int, ...]
    dist: np.ndarray

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])

    @property
    def max_level(self) -> int:
        m = int(self.dist.max(initial=UNREACHABLE))
        return m

    def sphere(self, k: int) -> np.ndarray:
        """Vertices at distance exactly k."""
        return np.flatnonzero(self.dist == k)

    def ball(self, k: int) -> np.ndarray:
        """Vertices at distance at most k."""
        return np.flatnonzero((self.dist >= 0) & (self.dist <= k))

    def sphere_sizes(self) -> np.ndarray:
        """|sphere(k)| for k = 0..max_level (empty graph edge: length >= 1)."""
        top = max(self.max_level, 0)
        reach = self.dist[self.dist >= 0]
        return np.bincount(reach, minlength=top + 1)

    def unreachable(self) -> np.ndarray:
        return np.flatnonzero(self.dist == UNREACHABLE)

    def layers(self) -> list[np.ndarray]:
        return [self.sphere(k) for k in range(self.max_level + 1)]


def bfs_spheres(g: Graph, sources: Sequence[int]) -> SphereTable:
    """Sphere table for the given non-empty source set."""
    src = _check_sources(g, sources)
    dist = bfs_distances(g, src)
    dist.setflags(write=False)
    return SphereTable(sources=tuple(int(s) for s in src), dist=dist)


def _bfs_levels(g: Graph, src: np.ndarray) -> Iterator[np.ndarray]:
    """uint64 frontier words of each BFS level from at most BLOCK sources.

    Level 0 first; bit j of a vertex's word at level d is set when the vertex
    is at distance d from src[j].  A step advances all the searches at once,
    in one of two ways (Beamer, Asanovic and Patterson, SC'12): a frontier
    whose vertices hold under an eighth of the 2m adjacency entries scatters
    its words into their neighbors (top-down); a larger one ORs every
    vertex's neighbor words (bottom-up).  Once every vertex holds every
    source bit, the level just yielded is the last, and the step that could
    only find an empty frontier is skipped.  Callers must not modify the
    words.
    """
    n = g.n
    indptr, indices = g._indptr, g._indices
    degrees = g.degrees
    frontier = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(frontier, src, np.uint64(1) << np.arange(src.size, dtype=np.uint64))
    visited = frontier.copy()
    full = np.uint64((1 << src.size) - 1)
    # reduceat reads an empty segment as its first element, so vertices of
    # degree 0 are left out and keep an empty word
    linked = np.flatnonzero(degrees)
    starts = indptr[linked]
    while frontier.any():
        yield frontier
        if (visited == full).all():
            return
        active = np.flatnonzero(frontier)
        lens = degrees[active]
        edges = int(lens.sum())
        reached = np.zeros(n, dtype=np.uint64)
        if 8 * edges < indices.size:
            # positions indptr[v] .. indptr[v+1]-1 of each active v, in order
            entries = np.repeat(indptr[active + 1] - np.cumsum(lens), lens) + np.arange(edges)
            np.bitwise_or.at(reached, indices[entries], np.repeat(frontier[active], lens))
        else:
            reached[linked] = np.bitwise_or.reduceat(frontier[indices], starts)
        frontier = reached & ~visited
        visited |= frontier


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """(k, len(words)) uint8 array whose row j holds bit j of every word."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets.T, axis=0, count=k, bitorder="little")


def _bfs_block(g: Graph, src: np.ndarray) -> np.ndarray:
    """(len(src), n) int32 BFS distances from each of at most BLOCK sources.

    Plane b collects bit b of every distance: the OR of the frontiers of the
    levels whose number has bit b set.  Each plane is unpacked once, straight
    into (source, vertex) order; unreached bits are -1 (UNREACHABLE).
    """
    k = src.size
    reached = np.zeros(g.n, dtype=np.uint64)
    planes: list[np.ndarray] = []
    for level, frontier in enumerate(_bfs_levels(g, src)):
        reached |= frontier
        if level >> len(planes):
            planes.append(np.zeros(g.n, dtype=np.uint64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= frontier
    dist = -_unpack(~reached, k).astype(np.int32)
    for b, plane in enumerate(planes):
        dist |= np.left_shift(_unpack(plane, k), b, dtype=np.int32)
    return dist


def _probes(g: Graph, probes: Sequence[int]) -> np.ndarray:
    """The probes as an int64 array, repeats allowed, all range-checked."""
    src = np.asarray(probes, dtype=np.int64).reshape(-1)
    if src.size and (src.min() < 0 or src.max() >= g.n):
        raise ValueError("source vertex out of range")
    return src


def _blocks(src: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of at most BLOCK probes, checked by _probes."""
    for start in range(0, src.size, BLOCK):
        yield src[start : start + BLOCK]


# Per graph, its level table once swept (None when it keeps none).  Keyed by
# identity and dropped with the graph; a pickled graph leaves it behind.
_TABLES: "weakref.WeakKeyDictionary[Graph, tuple | None]" = weakref.WeakKeyDictionary()


def _level_table(g: Graph) -> tuple[tuple[np.ndarray, ...], ...] | None:
    """The frontier words of the all-sources BFS, swept once per graph:
    entry [b][d] is the read-only level-d word array of the block of sources
    BLOCK*b onwards, for d up to that block's own depth.  None when the
    words would exceed TABLE_BYTES; callers then stream their blocks."""
    if g not in _TABLES:
        _TABLES[g] = _sweep_levels(g)
    return _TABLES[g]


def _sweep_levels(g: Graph) -> tuple[tuple[np.ndarray, ...], ...] | None:
    """The level table, or None as soon as the words swept so far, scaled
    to all blocks, pass TABLE_BYTES (so a graph too deep for the bound gives
    up within its first block).  Holds nothing but the table and the BFS's
    own working words."""
    n = g.n
    blocks = -(-n // BLOCK)
    table: list[tuple[np.ndarray, ...]] = []
    words = 0
    for b, src in enumerate(_blocks(_probes(g, range(n)))):
        levels = []
        for frontier in _bfs_levels(g, src):
            frontier.setflags(write=False)
            levels.append(frontier)
            if 8 * (words + n * len(levels)) * blocks > TABLE_BYTES * (b + 1):
                return None
        words += n * len(levels)
        table.append(tuple(levels))
    return tuple(table)


def _frontier_blocks(
    g: Graph, sources: Sequence[int]
) -> Iterator[tuple[Iterable[np.ndarray], np.uint64]]:
    """(level words, member mask) per block of sources.

    The one place that decides between the level table and streaming: the
    first call on a graph sweeps its table, and every call reads it when it
    fits TABLE_BYTES.  A graph over the bound streams: each BLOCK
    consecutive sources get a fresh BFS and the mask of their bits.  From
    the table, a block is the sweep's block of the sources it holds, masked
    to their bits; a source listed k times is masked in k passes, so repeats
    count as in the BFS path.
    """
    src = _probes(g, sources)
    table = _level_table(g)
    if table is None:
        for block in _blocks(src):
            yield _bfs_levels(g, block), np.uint64((1 << block.size) - 1)
        return
    vertices, repeats = np.unique(src, return_counts=True)
    for k in range(int(repeats.max(initial=0))):
        chosen = vertices[repeats > k]
        masks = np.zeros(len(table), dtype=np.uint64)
        np.bitwise_or.at(masks, chosen // BLOCK, np.uint64(1) << (chosen % BLOCK).astype(np.uint64))
        for b in np.flatnonzero(masks):
            yield table[b], masks[b]


def _count_matrix(rows: np.ndarray, length: int) -> np.ndarray:
    """(n, length+1) per-vertex histograms of distance rows: column d counts
    the rows at distance d, the last column those UNREACHABLE.  The flat
    bincount index is built in place in one int64 copy of `rows`."""
    _, n = rows.shape
    flat = rows.astype(np.int64)
    flat[rows < 0] = length
    flat += np.arange(n, dtype=np.int64) * (length + 1)
    counts = np.bincount(flat.ravel(), minlength=n * (length + 1))
    return counts.reshape(n, length + 1)


def _level_counts(g: Graph, sources: Sequence[int], width: int = 0) -> np.ndarray:
    """(n, max(L+1, width) + 1) int64 histograms, L the largest finite
    distance from a source: column d counts the sources at distance d, the
    last those in other components.  Equals _count_matrix(distances_from(g,
    sources), max(L+1, width)), but adds the popcounts of the sources' bits
    in the level-d frontier words into column d, so no distance row is
    written.  The words come from the graph's level table, swept on the
    first call, or from a fresh BFS per BLOCK sources when the table would
    not fit TABLE_BYTES (see _frontier_blocks); memory is O(n * L) on top
    of the table or one block."""
    columns = [np.zeros(g.n, dtype=np.int64) for _ in range(width)]
    for levels, mask in _frontier_blocks(g, sources):
        for level, frontier in enumerate(levels):
            if level == len(columns):
                columns.append(np.zeros(g.n, dtype=np.int64))
            columns[level] += np.bitwise_count(frontier & mask)
    # a table block runs to the depth of all its sources: drop levels past L
    while len(columns) > width and not columns[-1].any():
        columns.pop()
    return np.column_stack(columns + [len(sources) - sum(columns)])


def _deepest_level(g: Graph) -> int:
    """The largest finite distance between two vertices: the depth of the
    deepest all-sources block, read from the level table when the graph
    keeps one, streamed when it is over TABLE_BYTES."""
    return max(sum(1 for _ in levels) for levels, _ in _frontier_blocks(g, range(g.n))) - 1


def distances_from(g: Graph, probes: Sequence[int]) -> np.ndarray:
    """(len(probes), n) matrix of single-source BFS distances."""
    rows = np.empty((len(probes), g.n), dtype=np.int32)
    for i, src in enumerate(_blocks(_probes(g, probes))):
        rows[i * BLOCK : i * BLOCK + src.size] = _bfs_block(g, src)
    return rows


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances (int32, UNREACHABLE sentinel).

    Computed BLOCK sources at a time by the bit-parallel BFS kernel.  The
    result takes 4 * n**2 bytes (1.6 GB at n = 20000), so code that only
    needs a statistic of all pairs streams the blocks instead.
    """
    return distances_from(g, range(g.n))


def is_connected(g: Graph) -> bool:
    return not np.any(bfs_distances(g, [0]) == UNREACHABLE)


def diameter(g: Graph) -> int | float:
    """Exact diameter; math.inf when the graph is disconnected.

    One single-source BFS settles connectivity first, so a disconnected
    graph costs no all-sources sweep; a connected one counts the levels of
    each all-sources block and writes no distance row.
    """
    if not is_connected(g):
        return math.inf
    return _deepest_level(g)


def predicted_diameter(n: int, d: float) -> int:
    """Heuristic diameter for a random graph with n vertices, average degree d.

    Returns the smallest i >= 1 with d**i >= n * 2*log10(n); the boundary is
    inclusive.  The decimal-log threshold is a fixed desk-scale convention
    for the asymptotic requirement that d**i outgrow n by a logarithmic
    factor.
    """
    if d <= 1:
        raise ValueError(f"average degree must exceed 1, got {d}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    threshold = n * (2.0 * math.log10(n))
    i = max(1, math.ceil(math.log(threshold) / math.log(d)))
    while i > 1 and d ** (i - 1) >= threshold:
        i -= 1
    while d**i < threshold:
        i += 1
    return i


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomGraphSpec:
    """Seeded binomial random graph: every pair is an edge with probability p.

    Density is given either as p directly or as a degree exponent x, in which
    case p = n**x / (n-1) so the expected average degree is exactly n**x.
    """

    n: int
    p: float | None = None
    x: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if (self.p is None) == (self.x is None):
            raise ValueError("give exactly one of p or x")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.x is not None:
            if not 0.0 < self.x < 1.0:
                raise ValueError(f"x must lie in (0, 1), got {self.x}")
            if self.n > 1 and self.edge_probability > 1.0:
                raise ValueError(
                    f"x={self.x} gives edge probability above 1 at n={self.n}"
                )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def edge_probability(self) -> float:
        if self.p is not None:
            return float(self.p)
        if self.n == 1:
            return 0.0
        return float(self.n) ** float(self.x) / (self.n - 1)

    @property
    def expected_degree(self) -> float:
        return (self.n - 1) * self.edge_probability


def _sample_pair_indices(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, total) kept independently with probability p.

    Geometric skip sampling: gaps between kept indices are iid Geometric(p),
    so expected work is O(p * total) rather than O(total).
    """
    if total == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log1mp = math.log1p(-p)
    chunks = []
    pos = -1
    while pos < total - 1:
        remaining = total - 1 - pos
        block = min(max(256, int(1.2 * remaining * p) + 16), 4_000_000)
        u = 1.0 - rng.random(block)  # in (0, 1], keeps log finite
        gaps = (np.log(u) // log1mp).astype(np.int64) + 1
        hits = pos + np.cumsum(gaps)
        pos = int(hits[-1])
        chunks.append(hits[hits < total])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _pair_index_to_edge(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert t = v*(v-1)/2 + u with 0 <= u < v (linear order on pairs)."""
    v = ((1.0 + np.sqrt(1.0 + 8.0 * t.astype(np.float64))) // 2.0).astype(np.int64)
    v = np.where(v * (v - 1) // 2 > t, v - 1, v)
    v = np.where((v + 1) * v // 2 <= t, v + 1, v)
    u = t - v * (v - 1) // 2
    return u, v


def generate_gnp(spec: RandomGraphSpec) -> Graph:
    """Sample the seeded binomial random graph described by `spec`.

    Identical specs (seed included) give byte-identical edge sets regardless
    of worker count: the sampler is a single sequential substream.
    """
    n = spec.n
    p = spec.edge_probability
    rng = substream(spec.seed, GNP_EDGES)
    total = n * (n - 1) // 2
    idx = _sample_pair_indices(total, p, rng)
    u, v = _pair_index_to_edge(idx)
    keys = u * n + v
    keys.sort()
    return Graph._from_sorted_keys(n, keys)


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, path: str) -> None:
    """Text format: first line "n m", then m lines "u v" with u < v, sorted."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        for u, v in g.edge_array:
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> Graph:
    """Parse the edge-list format; malformed input raises GraphFormatError."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphFormatError("missing 'n m' header")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from None
    n, m = numbers[0], numbers[1]
    body = numbers[2:]
    if n < 1:
        raise GraphFormatError(f"vertex count must be positive, got {n}")
    if m < 0 or len(body) != 2 * m:
        raise GraphFormatError(
            f"expected {2 * m} endpoint tokens for m={m}, found {len(body)}"
        )
    edges = list(zip(body[0::2], body[1::2]))
    try:
        return Graph.from_edges(n, edges, strict=True)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Named small graphs (test fixtures and demos)
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to `leaves` outer vertices."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# Expansion audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelAudit:
    """Sampled sphere-size accuracy at one (level, source-set size) cell.

    For levels up to the sparse radius, `observed` holds ratios
    |sphere| / (|sources| * degree**level) with expectation 1; at the next
    level it holds |sphere| / n against the saturation prediction
    1 - exp(-|sources| * rate) - |sources| * degree**radius / n.
    """

    level: int
    source_size: int
    observed: tuple[float, ...]
    expected: float
    max_abs_deviation: float
    tolerance: float
    flagged: bool


@dataclass(frozen=True)
class ExpansionReport:
    params: RegimeParams
    sample_size: int
    seed: int
    multiplier: float
    levels: tuple[LevelAudit, ...]
    partial: bool

    @property
    def flagged_cells(self) -> tuple[LevelAudit, ...]:
        return tuple(cell for cell in self.levels if cell.flagged)


def audit_expansion(
    g: Graph,
    params: RegimeParams,
    sample_size: int,
    seed: int,
    multiplier: float = 3.0,
) -> ExpansionReport:
    """Measure sphere sizes for sampled singleton and pair sources.

    Deviations are compared against multiplier * spread_tolerance (the top
    level additionally absorbs a ln(n)/sqrt(n) term).  The graph must be
    connected and params.degree must match the measured average degree within
    10 percent.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if not is_connected(g):
        raise ValueError("expansion audit requires a connected graph")
    measured = g.average_degree
    if abs(measured / params.degree - 1.0) > 0.10:
        raise ValueError(
            f"params.degree={params.degree:.3f} is more than 10% away from "
            f"measured average degree {measured:.3f}"
        )
    n = g.n
    radius = params.sparse_radius
    top = radius + 1
    rng_single = substream(seed, AUDIT_SINGLES)
    rng_pairs = substream(seed, AUDIT_PAIRS)
    singles = rng_single.choice(n, size=min(sample_size, n), replace=False)
    a = rng_pairs.integers(0, n, size=sample_size)
    b = rng_pairs.integers(0, n - 1, size=sample_size)
    b = b + (b >= a)

    # The graph is connected, so every row is finite and bincount gives the
    # sphere sizes; a pair's row is the minimum of its endpoints' rows.
    sizes: dict[int, list[np.ndarray]] = {1: [], 2: []}
    for src in _blocks(_probes(g, singles)):
        sizes[1].extend(np.bincount(row) for row in _bfs_block(g, src))
    for src_a, src_b in zip(_blocks(_probes(g, a)), _blocks(_probes(g, b))):
        pair_rows = np.minimum(_bfs_block(g, src_a), _bfs_block(g, src_b))
        sizes[2].extend(np.bincount(row) for row in pair_rows)
    reached_top = any(len(counts) > top for s in (1, 2) for counts in sizes[s])

    ln_term = math.log(n) / math.sqrt(n)
    cells = []
    for s in (1, 2):
        for level in range(top + 1):
            obs = []
            for counts in sizes[s]:
                size = int(counts[level]) if level < len(counts) else 0
                if level <= radius:
                    obs.append(size / (s * params.degree**level))
                else:
                    obs.append(size / n)
            if level <= radius:
                expected = 1.0
                scale = params.spread_tolerance
            else:
                expected = (
                    1.0
                    - math.exp(-s * params.coverage_rate)
                    - s * params.degree**radius / n
                )
                scale = params.spread_tolerance + ln_term
            max_dev = max(abs(o - expected) for o in obs)
            tolerance = multiplier * scale
            cells.append(
                LevelAudit(
                    level=level,
                    source_size=s,
                    observed=tuple(obs),
                    expected=expected,
                    max_abs_deviation=max_dev,
                    tolerance=tolerance,
                    flagged=max_dev > tolerance,
                )
            )
    return ExpansionReport(
        params=params,
        sample_size=sample_size,
        seed=seed,
        multiplier=multiplier,
        levels=tuple(cells),
        partial=not reached_top,
    )
