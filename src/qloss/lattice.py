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

The loss-free geometry of each L is built and validated once per process
(`build_lattice` keeps the last few sizes); every call gets its own
generator lists over the shared frozensets, arrays and adjacency.  The
adjacency lists each graph's node's (neighbour, edge) pairs in ascending
edge order; it is built with the geometry, and `find_logical` walks it,
skipping the lost edges, instead of rebuilding it for each loss pattern.

Losing an edge merges its two dual cells: merged cells away from the
terminal regions become superplaquettes (mod-2 product of their members),
merged cells absorbed by a terminal are discarded, and every star simply
drops its lost edges.  A deformed logical Z exists iff the surviving
primal graph connects its two terminals; a deformed logical X exists iff
the surviving dual graph connects its two terminals.

Reform and survival label both graphs at once, in one combined graph
(`_both_sides`): the primal nodes come first and the dual cells follow,
offset by ``n_vertices + 2``; edge e is one edge on each side.  Survival
puts every kept edge on both sides, and a mask survives when both terminal
pairs share a label.  Reform puts kept edges on the primal side and lost
edges on the dual side: the dual labels are the merged classes, listed as
plaquettes in the order of their smallest cell, and the primal labels find
the islands.  The labels come from `_components`, a numpy hook-and-jump
kernel in the style of Shiloach and Vishkin: each round hooks every root
under the smallest root it shares an edge with, then pointer-jumps until
each node points at its root.  Parents are always smaller ids, so no cycle
forms, and each round removes a root, so the rounds end.  Each component's
root is its smallest node, and components are numbered in that order, as
scipy's ``connected_components`` numbers them; scipy is only the tests'
reference.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .qudit import PauliString, SeedDomain, seed_for

#: per graph node, its (neighbour, edge) pairs in ascending edge order
Adjacency = tuple[tuple[tuple[int, int], ...], ...]


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
    ``adjacency`` holds the same edges per node, primal graph first: it
    ignores ``lost``, so every lattice derived from one geometry shares it.
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
    adjacency: tuple[Adjacency, Adjacency] = field(compare=False, repr=False)

    def validate_commutation(self) -> None:
        """Every (Z, X) generator pair must share an even number of edges.

        Each (X generator, edge) incidence is joined with the Z generators on
        that edge.  Sorted by (X, Z), the joined pairs form one run per pair
        of generators that meet, as long as the number of edges they share.
        The first odd run names the first X generator in list order that
        anticommutes with any Z generator, with its lowest-indexed such
        partner.
        """
        n_z = len(self.z_generators)
        gens = self.z_generators + self.x_generators
        sizes = np.fromiter(map(len, gens), dtype=np.int64, count=len(gens))
        # every (generator, edge) incidence, generator-major: the Z ones first
        edge = np.fromiter(chain.from_iterable(gens), dtype=np.int64)
        owner = np.repeat(np.arange(len(gens)), sizes)
        split = int(sizes[:n_z].sum())
        z_edge, x_edge = edge[:split], edge[split:]
        # the Z generators on edge e are on_edge[start[e]:start[e] + count[e]]
        on_edge = owner[:split][np.argsort(z_edge, kind="stable")]
        count = np.bincount(z_edge, minlength=self.n_edges)
        start = np.cumsum(count) - count
        k = count[x_edge]                     # Z generators met by each X incidence
        first = np.cumsum(k) - k
        at = np.arange(k.sum()) - np.repeat(first - start[x_edge], k)
        pair = np.sort((np.repeat(owner[split:], k) - n_z) * n_z + on_edge[at])
        # every run is even exactly when the sorted pairs repeat two by two
        if not pair.size % 2 and (pair[::2] == pair[1::2]).all():
            return
        runs = np.flatnonzero(np.diff(pair, prepend=-1, append=-1))
        odd = runs[np.flatnonzero(np.diff(runs) % 2)[0]]
        xi, zi = divmod(int(pair[odd]), n_z)
        raise ConsistencyError(f"generators {sorted(self.z_generators[zi])} and "
                               f"{sorted(self.x_generators[xi])} anticommute")

    def validate_support(self) -> None:
        if not all(map(self.lost.isdisjoint, chain(self.z_generators, self.x_generators))):
            raise ConsistencyError("generator touches a lost edge")


def build_lattice(L: int) -> LossLattice:
    """The loss-free lattice with its stabilizer generators.

    The geometry of each L is built and validated once (`_loss_free`); every
    call returns it with generator lists of its own, so a caller may append
    to them, over the shared frozensets, read-only arrays and adjacency.
    """
    if L < 2:
        raise ValueError(f"linear size must be >= 2, got {L}")
    lat = _loss_free(L)
    return replace(lat, z_generators=list(lat.z_generators),
                   x_generators=list(lat.x_generators))


@lru_cache(maxsize=4)
def _loss_free(L: int) -> LossLattice:
    """The one validated loss-free lattice of size L (a survival sweep over
    two sizes and a correction run at a third all stay cached)."""
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
        primal=np.array(primal), dual=np.array(dual),
        adjacency=(_adjacency(primal, n_vertices + 2), _adjacency(dual, n_cells)))
    lat.primal.setflags(write=False)
    lat.dual.setflags(write=False)
    lat.validate_commutation()
    return lat


def _adjacency(pairs: list[tuple[int, int]], n_nodes: int) -> Adjacency:
    """Each node's (neighbour, edge) pairs, in ascending edge order."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for e, (a, b) in enumerate(pairs):
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    return tuple(map(tuple, adjacency))


def apply_losses(lattice: LossLattice,
                 spec: Iterable[int] | float,
                 rng: np.random.Generator | None = None) -> LossLattice:
    """Mark edges lost, either an explicit list or an iid rate in [0, 1] with a
    generator.  Any real scalar but a bool (an int or a numpy number too) is a rate;
    a listed edge must be an integer (a Python or numpy int, not a bool)."""
    if isinstance(spec, numbers.Real) and not isinstance(spec, bool):
        rate = float(spec)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must lie in [0, 1], got {spec}")
        if rng is None:
            raise ValueError("iid loss rate requires a seeded generator")
        lost = frozenset(np.flatnonzero(rng.random(lattice.n_edges) < rate).tolist())
    else:
        listed = list(spec)
        for e in listed:
            if isinstance(e, bool) or not isinstance(e, numbers.Integral):
                raise ValueError(f"edge {e!r} is not an integer")
        listed = [int(e) for e in listed]
        if len(set(listed)) != len(listed):
            raise ValueError("duplicate edge in explicit loss list")
        for e in listed:
            if not 0 <= e < lattice.n_edges:
                raise IndexError(f"edge {e} out of range")
        lost = frozenset(listed)
    return replace(lattice, lost=lattice.lost | lost)


def reform_stabilizers(lattice: LossLattice) -> LossLattice:
    """Merge plaquettes across lost edges and shrink stars.

    One `_components` call labels the combined graph (`_both_sides`) with
    kept edges on the primal side and lost edges on the dual side.  A dual
    class holding a terminal cell (one of the last two) merges into the
    boundary and is discarded; every other class is a plaquette, the mod-2
    product of its cells: the kept edges whose two cells carry different
    labels, since a lost edge joins two cells of one class.  Those edges'
    (label, edge) pairs, stable-sorted by label, fall into one run per
    plaquette, in the order of its smallest cell and each in ascending edge
    order.  The stars are the geometry's, shrunk by ``lost``, so the result
    depends only on the geometry and ``lost``.  Support and commutation of
    the result are re-verified exhaustively.
    """
    lost = lattice.lost
    lost_mask = np.zeros(lattice.n_edges, dtype=bool)
    lost_mask[list(lost)] = True
    ends, terminals = _both_sides(lattice)
    # edge e is row e (primal side) if kept, row n_edges + e (dual side) if lost
    a, b = ends[np.arange(lattice.n_edges) + lattice.n_edges * lost_mask].T
    labels = _components(a, b, terminals[-1] + 1)

    # the labels of every edge's two cells; they differ on kept edges only
    cells = labels[lattice.dual + lattice.n_vertices + 2]
    between = np.flatnonzero(cells[:, 0] != cells[:, 1])
    # (class, edge) pairs, edge-major; the boundary classes drop out
    cls, edge = cells[between].ravel(), np.repeat(between, 2)
    left, right = labels[terminals[2:]]
    inner = (cls != left) & (cls != right)
    cls, edge = cls[inner], edge[inner]
    order = np.argsort(cls, kind="stable")
    cls, edge = cls[order], edge[order].tolist()
    cut = (np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist()
    z_gens = [frozenset(edge[i:j]) for i, j in zip([0, *cut], [*cut, len(edge)])] if edge else []

    # losses can enclose an island: a surviving-graph component with no
    # terminal, whose shrunk stars multiply to the identity.  Drop the first
    # star of each island to keep the generator list independent.
    # both primal nodes of a kept edge carry its island's label
    island = labels[lattice.primal[:, 0]].tolist()
    seen = set(labels[terminals[:2]].tolist())
    x_gens = []
    for g in _loss_free(lattice.L).x_generators:
        if not (shrunk := g - lost):
            continue
        label = island[next(iter(shrunk))]
        if label in seen:
            x_gens.append(shrunk)
        seen.add(label)

    out = replace(lattice, z_generators=z_gens, x_generators=x_gens)
    out.validate_support()
    out.validate_commutation()
    return out


@dataclass
class LogicalSearch:
    correctable: bool
    t_z: PauliString | None
    t_x: PauliString | None


def _terminal_path(adjacency: Adjacency, lost: frozenset[int]) -> list[int] | None:
    """Edges of a shortest path between the last two nodes that avoids ``lost``, or None.

    Breadth-first from the second-to-last node over each node's (neighbour,
    edge) pairs in ascending edge order.  A node's predecessor is fixed when
    the node is first reached, so the search ends as soon as it reaches the
    last node.
    """
    source, target = len(adjacency) - 2, len(adjacency) - 1
    # each reached node's (predecessor, edge from it); None until reached
    prev: list[tuple[int, int] | None] = [None] * len(adjacency)
    prev[source] = source, -1
    queue = [source]
    for node in queue:   # the queue grows while it is walked
        for nxt, edge in adjacency[node]:
            if prev[nxt] is not None or edge in lost:
                continue
            prev[nxt] = node, edge
            if nxt == target:
                path = []
                while nxt != source:
                    nxt, edge = prev[nxt]
                    path.append(edge)
                return path[::-1]
            queue.append(nxt)
    return None


def find_logical(lattice: LossLattice) -> LogicalSearch:
    """Deformed logical operators avoiding all lost edges.

    Call after :func:`reform_stabilizers`; the returned strings commute with
    every current generator and anticommute with each other.  Each is a
    shortest terminal-to-terminal path over the geometry's adjacency (built
    once per L with the loss-free lattice), skipping the lost edges.
    """
    primal, dual = lattice.adjacency
    z_path = _terminal_path(primal, lattice.lost)
    x_path = _terminal_path(dual, lattice.lost)
    t_z = PauliString.from_map(lattice.n_edges, dict.fromkeys(z_path, "Z")) if z_path else None
    t_x = PauliString.from_map(lattice.n_edges, dict.fromkeys(x_path, "X")) if x_path else None
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
    """Component label of each of ``n`` nodes under the undirected edges (a[i], b[i]).

    Components are numbered 0, 1, ... in the order of their smallest node,
    as scipy's ``connected_components`` numbers them.  ``root`` starts as
    the identity, and the edges are carried as the roots of their two ends.
    Each round hooks every larger root under the smallest root it meets on
    an edge, pointer-jumps (``root = root[root]``) until every node points at
    a root again, maps the edges to the new roots and drops those whose two
    ends now share one.  A parent is always smaller than its child, so there
    are no cycles; an edge kept for the next round joins two distinct roots,
    so that round removes at least one root and the rounds end.  Each root is
    then its component's smallest node.
    """
    root = np.arange(n)
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        a, b = root[a], root[b]
        apart = a != b
        a, b = a[apart], b[apart]
    # numpy's cumsum casts a bool mask in small buffered chunks; one cast is cheaper
    return (np.cumsum((root == np.arange(n)).astype(np.int64)) - 1)[root]


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
    when its kept edges span both sides.  The mask holds one entry per edge:
    any other shape raises ValueError.
    """
    mask = np.asarray(lost_mask, dtype=bool)
    if mask.shape != (lattice.n_edges,):
        raise ValueError(f"loss mask must have shape ({lattice.n_edges},), got {mask.shape}")
    u = np.where(mask, 0.0, 1.0)[None]
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

    Each L draws from one generator, ``seed_for(seed,
    SeedDomain.PERCOLATION_SAMPLES, L)``: sample i is row i of its (samples,
    n_edges) block of uniforms ``u``, and its loss mask at every rate p is
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
        rng = seed_for(seed, SeedDomain.PERCOLATION_SAMPLES, L)
        for start in range(0, samples, block):
            u = rng.random((min(block, samples - start), lat.n_edges))
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
