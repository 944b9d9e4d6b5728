"""Planar surface-code lattice under qubit loss.

For L >= 3 the lattice is the standard single-logical patch with
L^2 + (L-1)^2 edge qubits: an (L-1) x L grid of vertices, vertical edges
dangling off the top and bottom rows (where logical Z strings terminate),
and the full left and right exteriors as the dual regions where logical X
strings terminate.  This geometry is exactly self-dual for bond
percolation, so the loss threshold sits at 1/2.  ``L = 2`` is the 4-qubit
one-plaquette instance of the detection/correction protocol (edge order:
top, left, right, bottom), whose X-string terminals degenerate to the two
bottom corner cells.

The lattice is two graphs over the same edges: the primal graph of
vertices and the dual graph of cells.  Its read-only ``primal`` and
``dual`` arrays are the one edge representation: row e holds edge e's two
primal nodes and its two dual cells.  Each graph's terminals are its last
two nodes.  In the primal graph, every dangling top edge ends on node
``n_vertices`` and every dangling bottom edge on node ``n_vertices + 1``;
in the dual graph, the two exterior regions are the last two cells.

Losing an edge merges its two dual cells: merged cells away from the
terminal regions become superplaquettes (mod-2 product of their members),
merged cells absorbed by a terminal are discarded, and every star simply
drops its lost edges.  A deformed logical Z exists iff the surviving
primal graph connects its two terminals; a deformed logical X exists iff
the surviving dual graph connects its two terminals.

The survival kernel labels both graphs at once: in the combined graph the
primal nodes come first and the dual cells follow, offset by
``n_vertices + 2``, and every kept edge joins its two primal nodes and its
two dual cells.  A mask survives when both terminal pairs share a label.

Survival curves (`percolation_threshold`) draw one uniform vector per
(L, sample) that serves every loss rate, so each curve is monotone and its
points at different p are correlated; ``binom_std`` stays each point's
marginal error.  A block of samples first contracts the edges kept at every
grid rate (one components call over the whole block), then bisects on the
much smaller graph of the edges whose fate varies across the grid: one
call per bisection step, ceil(log2(G+1)) of them for a G-point grid.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .qudit import PauliString, seed_streams


class ConsistencyError(RuntimeError):
    """Internal invariant violated (reformed generators failed validation)."""


@dataclass
class LossLattice:
    """Surface-code lattice with a lost-edge mask and current generators.

    The edges exist only as ``primal`` and ``dual``, read-only (n_edges, 2)
    arrays holding each edge's two primal nodes and two dual cells; edge e
    is row e of both, and qubit e of every generator.  The primal graph has
    ``n_vertices + 2`` nodes and the dual graph ``n_cells``; in both, the
    last two nodes are the terminals a logical string runs between.
    """

    L: int
    n_edges: int
    lost: frozenset[int]
    z_generators: list[frozenset[int]]
    x_generators: list[frozenset[int]]
    n_vertices: int        # stars; the primal terminals are the next two ids
    n_cells: int
    primal: np.ndarray = field(compare=False, repr=False)
    dual: np.ndarray = field(compare=False, repr=False)

    def validate_commutation(self) -> None:
        """Every (Z, X) generator pair must share an even number of edges.

        Z generators are indexed by edge, so each X generator toggles the
        overlap parity of only the Z generators it meets.
        """
        z_on_edge: dict[int, list[int]] = {}
        for zi, zg in enumerate(self.z_generators):
            for e in zg:
                z_on_edge.setdefault(e, []).append(zi)
        for xg in self.x_generators:
            odd: set[int] = set()
            for e in xg:
                odd.symmetric_difference_update(z_on_edge.get(e, ()))
            if odd:
                zg = self.z_generators[min(odd)]
                raise ConsistencyError(
                    f"generators {sorted(zg)} and {sorted(xg)} anticommute")

    def validate_support(self) -> None:
        for g in self.z_generators + self.x_generators:
            if g & self.lost:
                raise ConsistencyError("generator touches a lost edge")


def build_lattice(L: int) -> LossLattice:
    """Construct the loss-free lattice with its stabilizer generators."""
    if L < 2:
        raise ValueError(f"linear size must be >= 2, got {L}")
    return _build_minimal() if L == 2 else _build_planar(L)


def _build_planar(L: int) -> LossLattice:
    """Standard self-dual patch: (L-1) x L vertices, L^2 + (L-1)^2 edges."""
    rows, cols = L - 1, L

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    n_vertices = rows * cols
    top, bottom = n_vertices, n_vertices + 1   # primal terminals
    # dual regions: cells (i, j) with i in 0..rows, j in 0..cols-2,
    # then the left and right exterior terminals
    n_cell_grid = (rows + 1) * (cols - 1)

    def cell(i: int, j: int) -> int:
        return i * (cols - 1) + j

    term_l, term_r = n_cell_grid, n_cell_grid + 1

    primal: list[tuple[int, int]] = []
    dual: list[tuple[int, int]] = []
    for rv in range(rows + 1):
        for c in range(cols):   # row rv of vertical edges
            if rv == 0:
                primal.append((top, vertex(0, c)))
            elif rv <= rows - 1:
                primal.append((vertex(rv - 1, c), vertex(rv, c)))
            else:
                primal.append((vertex(rows - 1, c), bottom))
            dual.append((term_l if c == 0 else cell(rv, c - 1),
                         term_r if c == cols - 1 else cell(rv, c)))
        if rv <= rows - 1:
            for ch in range(1, cols):   # then the horizontal edges of vertex row rv
                primal.append((vertex(rv, ch - 1), vertex(rv, ch)))
                dual.append((cell(rv, ch - 1), cell(rv + 1, ch - 1)))

    assert len(primal) == L * L + (L - 1) * (L - 1)
    return _patch(L, primal, dual, n_vertices=n_vertices, n_cells=n_cell_grid + 2)


def _build_minimal() -> LossLattice:
    """The protocol's 4-qubit patch: one star, two corner plaquettes.

    Edge order matches the protocol's qubit numbering (top, left, right,
    bottom).  Node 0 is the vertex, and the terminals come last as in every
    lattice: the top, left and right edges end on primal node 1, the bottom
    edge on node 2.  Cells 0 and 1 are the plaquettes; the bottom-corner
    cells 2 and 3 are the X-string terminals.
    """
    return _patch(2, [(1, 0), (1, 0), (0, 1), (0, 2)], [(0, 1), (0, 2), (1, 3), (2, 3)],
                  n_vertices=1, n_cells=4)


def _patch(L: int, primal: list[tuple[int, int]], dual: list[tuple[int, int]], *,
           n_vertices: int, n_cells: int) -> LossLattice:
    """The loss-free lattice on the edges (``primal[e]``, ``dual[e]``) with its
    validated generators.

    Every vertex (primal node below ``n_vertices``) gives a star, every
    cell but the two dual terminals a plaquette.
    """
    star: list[set[int]] = [set() for _ in range(n_vertices)]
    plaq: list[set[int]] = [set() for _ in range(n_cells - 2)]
    for e, (ends, cells) in enumerate(zip(primal, dual)):
        for node in ends:
            if node < n_vertices:
                star[node].add(e)
        for cl in cells:
            if cl < n_cells - 2:
                plaq[cl].add(e)
    lat = LossLattice(
        L=L, n_edges=len(primal), lost=frozenset(),
        z_generators=[frozenset(s) for s in plaq],
        x_generators=[frozenset(s) for s in star],
        n_vertices=n_vertices, n_cells=n_cells,
        primal=np.array(primal), dual=np.array(dual))
    lat.primal.setflags(write=False)
    lat.dual.setflags(write=False)
    lat.validate_commutation()
    return lat


def apply_losses(lattice: LossLattice,
                 spec: Iterable[int] | float,
                 rng: np.random.Generator | None = None) -> LossLattice:
    """Mark edges lost, either an explicit list or an iid rate in [0, 1] with a
    generator.  Any real scalar but a bool (an int or a numpy number too) is a rate."""
    if isinstance(spec, numbers.Real) and not isinstance(spec, bool):
        rate = float(spec)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must lie in [0, 1], got {spec}")
        if rng is None:
            raise ValueError("iid loss rate requires a seeded generator")
        mask = rng.random(lattice.n_edges) < rate
        lost = frozenset(int(i) for i in np.nonzero(mask)[0])
    else:
        listed = [int(e) for e in spec]
        if len(set(listed)) != len(listed):
            raise ValueError("duplicate edge in explicit loss list")
        for e in listed:
            if not 0 <= e < lattice.n_edges:
                raise IndexError(f"edge {e} out of range")
        lost = frozenset(listed)
    return replace(lattice, lost=frozenset(lattice.lost | lost))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def reform_stabilizers(lattice: LossLattice) -> LossLattice:
    """Merge plaquettes across lost edges and shrink stars.

    Union-find runs over dual cells; classes that absorbed a terminal cell
    (one of the last two) merge into the boundary and are discarded.  A
    merged plaquette is the mod-2 product of its member cells: the kept
    edges whose two cells lie in different classes, since an edge inside
    one class cancels and a lost edge joins two cells of one class.
    Commutation of the result is re-verified exhaustively.
    """
    lost = lattice.lost
    # one flat list per column: an (n_edges, 2) .tolist() would allocate a
    # list per edge on every call
    cell_a, cell_b = lattice.dual.T.tolist()
    end_a, end_b = lattice.primal.T.tolist()
    uf = _UnionFind(lattice.n_cells)
    for e in lost:
        uf.union(cell_a[e], cell_b[e])

    cell_root = [uf.find(cl) for cl in range(lattice.n_cells)]
    boundary = set(cell_root[-2:])
    merged: dict[int, set[int]] = {}
    for e, (a, b) in enumerate(zip(cell_a, cell_b)):
        if (ra := cell_root[a]) != (rb := cell_root[b]):
            for r in (ra, rb):
                if r not in boundary:
                    merged.setdefault(r, set()).add(e)
    z_gens = [frozenset(s) for _, s in sorted(merged.items())]

    # losses can enclose an island: a surviving-graph component with no
    # terminal, whose shrunk stars multiply to the identity.  Drop the first
    # star of each island to keep the generator list independent.
    uf_p = _UnionFind(lattice.n_vertices + 2)
    for e, (a, b) in enumerate(zip(end_a, end_b)):
        if e not in lost:
            uf_p.union(a, b)
    seen = {uf_p.find(lattice.n_vertices), uf_p.find(lattice.n_vertices + 1)}
    x_gens = []
    for g in lattice.x_generators:
        if not (shrunk := g - lost):
            continue
        root = uf_p.find(end_a[next(iter(shrunk))])
        if root in seen:
            x_gens.append(shrunk)
        seen.add(root)

    out = replace(lattice, z_generators=z_gens, x_generators=x_gens)
    out.validate_support()
    out.validate_commutation()
    return out


@dataclass
class LogicalSearch:
    correctable: bool
    t_z: PauliString | None
    t_x: PauliString | None


def _terminal_path(pairs: np.ndarray, n_nodes: int, edges: Iterable[int]) -> list[int] | None:
    """Edges of a shortest path over ``edges`` between the last two nodes, or None."""
    end_a, end_b = pairs.T.tolist()
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for e in edges:
        a, b = end_a[e], end_b[e]
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    source, target = n_nodes - 2, n_nodes - 1
    prev: dict[int, tuple[int, int] | None] = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            path = []
            while prev[node] is not None:
                node, edge = prev[node]
                path.append(edge)
            return path[::-1]
        for nxt, edge in adjacency[node]:
            if nxt not in prev:
                prev[nxt] = (node, edge)
                queue.append(nxt)
    return None


def find_logical(lattice: LossLattice) -> LogicalSearch:
    """Deformed logical operators avoiding all lost edges.

    Call after :func:`reform_stabilizers`; the returned strings commute with
    every current generator and anticommute with each other.
    """
    surviving = [e for e in range(lattice.n_edges) if e not in lattice.lost]
    z_path = _terminal_path(lattice.primal, lattice.n_vertices + 2, surviving)
    x_path = _terminal_path(lattice.dual, lattice.n_cells, surviving)
    t_z = (PauliString.from_map(lattice.n_edges, {e: "Z" for e in z_path})
           if z_path else None)
    t_x = (PauliString.from_map(lattice.n_edges, {e: "X" for e in x_path})
           if x_path else None)
    return LogicalSearch(t_z is not None and t_x is not None, t_z, t_x)


# ---------------------------------------------------------------------------
# percolation survival


@dataclass
class SurvivalPoint:
    L: int
    p: float
    samples: int
    survivors: int

    @property
    def fraction(self) -> float:
        return self.survivors / self.samples

    @property
    def binom_std(self) -> float:
        f = self.fraction
        return math.sqrt(max(f * (1 - f), 0.0) / self.samples)


@dataclass
class PercolationResult:
    points: list[SurvivalPoint]
    threshold: float | None


#: edges per block of samples that `percolation_threshold` contracts and
#: bisects together (68 samples at L=16, 16 at L=32); it bounds the block's
#: memory and changes no result
BLOCK_EDGES = 32_768


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Component label of each of ``n`` nodes under the undirected edges (a[i], b[i])."""
    # imported here, not at module level: loading scipy.sparse.csgraph costs
    # about 0.3 s, which every `import qloss` would otherwise pay
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _both_sides(lattice: LossLattice) -> tuple[np.ndarray, np.ndarray]:
    """The combined graph of one lattice: its (2 n_edges, 2) edge ends and its
    four terminals (primal pair, then dual pair).

    Primal nodes come first and dual cells after them, offset by
    ``n_vertices + 2``; edge e is row e on the primal side and row
    ``n_edges + e`` on the dual side.
    """
    n_primal = lattice.n_vertices + 2
    n = n_primal + lattice.n_cells
    ends = np.concatenate([lattice.primal, lattice.dual + n_primal])
    return ends, np.array([n_primal - 2, n_primal - 1, n - 2, n - 1])


def _block_edges(keep: np.ndarray, n_nodes: int, ends: np.ndarray):
    """Copy index and both node ids of each kept edge of a (k, n_edges) mask
    stack in the block-diagonal combined graph, copy i numbered from
    i*n_nodes.  The primal sides of all kept edges come first, then their
    dual sides, each in the row-major order of ``keep``'s true entries."""
    copy, edge = np.nonzero(keep)
    copy, rows = np.tile(copy, 2), np.concatenate([edge, edge + keep.shape[1]])
    off = copy * n_nodes
    return copy, ends[rows, 0] + off, ends[rows, 1] + off


def survival_check(lattice: LossLattice, lost_mask: np.ndarray) -> bool:
    """Correctability test for one loss mask (no generator reformation).

    The mask is one coupled draw at rate 1/2: u = 0 on lost edges, 1 on
    kept ones, so the sample survives on the one-point grid [0.5] exactly
    when its kept edges span both sides.
    """
    u = np.where(np.asarray(lost_mask, dtype=bool), 0.0, 1.0)[None]
    return bool(_surviving_prefix(lattice, u, np.array([0.5]))[0] == 1)


def _surviving_prefix(lattice: LossLattice, u: np.ndarray, p_sorted: np.ndarray) -> np.ndarray:
    """Per row of ``u``: on how many leading points of ``p_sorted`` it survives.

    Row s keeps the edges with ``u[s] >= p`` at rate p.  An edge with
    ``u >= p_sorted[-1]`` is kept at every grid rate, so one `_components`
    call over those edges labels the fixed part of every row; an edge with
    ``u < p_sorted[0]`` is kept at none.  The rest are the varying edges:
    each joins two fixed-part labels, and those inside one label drop out.
    Bisection then answers each step with one `_components` call over the
    varying edges kept at each open row's middle rate.
    """
    ends, terminals = _both_sides(lattice)
    k, n = len(u), terminals[-1] + 1
    _, a, b = _block_edges(u >= p_sorted[-1], n, ends)
    labels = _components(a, b, k * n)
    varying = (u >= p_sorted[0]) & (u < p_sorted[-1])
    copy, a, b = _block_edges(varying, n, ends)
    a, b, rate = labels[a], labels[b], np.tile(u[varying], 2)
    between = a != b
    copy, a, b, rate = copy[between], a[between], b[between], rate[between]
    term = labels[np.arange(k)[:, None] * n + terminals]
    n_labels = int(labels.max()) + 1
    lo = np.zeros(k, dtype=np.int64)                # survives on p_sorted[:lo]
    hi = np.full(k, len(p_sorted), dtype=np.int64)  # dies on p_sorted[hi:]
    cut = np.empty(k)
    while (todo := np.flatnonzero(lo < hi)).size:
        mid = (lo[todo] + hi[todo] + 1) // 2
        cut.fill(np.inf)
        cut[todo] = p_sorted[mid - 1]
        on = rate >= cut[copy]
        t = _components(a[on], b[on], n_labels)[term[todo]]
        alive = (t[:, 0] == t[:, 1]) & (t[:, 2] == t[:, 3])   # both sides span
        lo[todo] = np.where(alive, mid, lo[todo])
        hi[todo] = np.where(alive, hi[todo], mid - 1)
    return lo


def percolation_threshold(L_grid: Sequence[int], samples: int,
                          p_grid: Sequence[float], seed: int = 0) -> PercolationResult:
    """Monte Carlo survival curves and the two-size crossing estimate.

    Each (L, sample) draws one uniform vector ``u`` from the generator
    seeded by (seed, L, sample index), and its loss mask at every rate p is
    ``u < p``.  The kept sets shrink as p grows and spanning is monotone in
    them, so a sample survives on a prefix of the sorted p grid: its curve
    is monotone, and points at different p are correlated (``binom_std``
    stays each point's marginal error).  Samples are evaluated in blocks of
    at most `BLOCK_EDGES` edges, on the combined primal and dual graph of
    each sample.  A block contracts the edges kept at every grid rate once,
    then finds every sample's last surviving grid point by bisection over
    the edges whose fate varies across the grid (`_surviving_prefix`): one
    components call for the contraction and ceil(log2(G+1)) small ones for
    a G-point grid.  Counts depend neither on the block size nor on the
    other grid points or their order.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples per point")
    if len(L_grid) == 0 or len(p_grid) == 0:
        raise ValueError("lattice sizes and loss rates must not be empty")
    if not all(0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError(f"loss rates must lie in [0, 1], got {list(p_grid)}")
    if len(set(L_grid)) != len(L_grid):
        raise ValueError(f"lattice sizes must not repeat, got {list(L_grid)}")
    rates = np.asarray(p_grid, dtype=float)
    order = np.argsort(rates, kind="stable")
    p_sorted, n_p = rates[order], len(rates)
    points: list[SurvivalPoint] = []
    for L in L_grid:
        lat = build_lattice(L)
        block = max(1, BLOCK_EDGES // lat.n_edges)
        # hist[j]: samples that survive on exactly the first j sorted points
        hist = np.zeros(n_p + 1, dtype=np.int64)
        streams = seed_streams(seed, L, count=samples)
        for start in range(0, samples, block):
            u = np.stack([rng.random(lat.n_edges) for rng in islice(streams, block)])
            hist += np.bincount(_surviving_prefix(lat, u, p_sorted), minlength=n_p + 1)
        survivors = np.empty(n_p, dtype=np.int64)
        survivors[order] = np.cumsum(hist[::-1])[::-1][1:]
        points.extend(SurvivalPoint(L, float(p), samples, int(n))
                      for p, n in zip(p_grid, survivors))
    threshold = None
    if len(L_grid) >= 2:
        threshold = crossing_estimate(points, min(L_grid), max(L_grid))
    return PercolationResult(points, threshold)


def crossing_estimate(points: Sequence[SurvivalPoint], L_small: int,
                      L_large: int) -> float | None:
    """Interpolated p where the survival curves of two sizes cross."""
    small = sorted((pt for pt in points if pt.L == L_small), key=lambda q: q.p)
    large = sorted((pt for pt in points if pt.L == L_large), key=lambda q: q.p)
    ps = [pt.p for pt in small]
    if ps != [pt.p for pt in large]:
        raise ValueError("curves must share one p grid")
    diff = [s.fraction - l.fraction for s, l in zip(small, large)]
    for i in range(len(diff) - 1):
        if diff[i] == 0.0 and 0 < small[i].fraction < 1:
            return ps[i]
        if diff[i] < 0 <= diff[i + 1]:
            span = diff[i + 1] - diff[i]
            t = -diff[i] / span if span else 0.5
            return ps[i] + t * (ps[i + 1] - ps[i])
    return None
