"""Lattice construction, loss reformation, logical search, percolation."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from qloss import lattice as lattice_mod
from qloss.lattice import (ConsistencyError, LossLattice, apply_losses, build_lattice,
                           crossing_estimate, find_logical, percolation_threshold,
                           reform_stabilizers, survival_check, SurvivalPoint)
from qloss.protocol import CODE_QUBITS, SURVIVING_QUBITS, _code
from qloss.qudit import PauliString, SeedDomain, seed_for


def gf2_rank(gens, n_edges):
    """Independent GF(2) rank oracle over edge-indicator vectors."""
    rows = []
    for g in gens:
        v = 0
        for e in g:
            v |= 1 << e
        rows.append(v)
    rank = 0
    for bit in range(n_edges):
        pivot = next((i for i, v in enumerate(rows) if (v >> bit) & 1), None)
        if pivot is None:
            continue
        pv = rows.pop(pivot)
        rows = [v ^ pv if (v >> bit) & 1 else v for v in rows]
        rank += 1
    return rank


def generator_count(lat):
    return len(lat.z_generators) + len(lat.x_generators)


def pauli_strings(gens, n_edges, letter):
    """Commutation oracle: each generator as a Pauli word on the edges."""
    return [PauliString.from_map(n_edges, dict.fromkeys(g, letter)) for g in gens]


def curve(res, L):
    return [pt for pt in res.points if pt.L == L]


def reference_terminal_path(pairs, n_nodes, edges):
    """Per-call reference: the adjacency rebuilt over ``edges`` in their order,
    and the last node returned when it leaves the queue."""
    end_a, end_b = pairs.T.tolist()
    adjacency = [[] for _ in range(n_nodes)]
    for e in edges:
        a, b = end_a[e], end_b[e]
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    source, target = n_nodes - 2, n_nodes - 1
    prev = {source: None}
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


def reference_logical_letters(lat):
    """The letters of `find_logical`'s two strings (None for a missing one),
    from the per-call reference search over the surviving edges."""
    surviving = [e for e in range(lat.n_edges) if e not in lat.lost]
    z = reference_terminal_path(lat.primal, lat.n_vertices + 2, surviving)
    x = reference_terminal_path(lat.dual, lat.n_cells, surviving)
    return (PauliString.from_map(lat.n_edges, {e: "Z" for e in z}).letters if z else None,
            PauliString.from_map(lat.n_edges, {e: "X" for e in x}).letters if x else None)


def reference_generators(lat):
    """`reform_stabilizers`' two generator lists, the plaquettes built in a
    dict keyed by class label and listed in label order, and the loss-free
    geometry's stars shrunk by the losses (a reformed input has already
    dropped the first star of each island)."""
    lost_mask = np.zeros(lat.n_edges, dtype=bool)
    lost_mask[list(lat.lost)] = True
    ends, terminals = lattice_mod._both_sides(lat)
    a, b = ends[np.arange(lat.n_edges) + lat.n_edges * lost_mask].T
    labels = lattice_mod._components(a, b, terminals[-1] + 1)
    cell_a, cell_b = labels[lat.dual + lat.n_vertices + 2].T
    between = np.flatnonzero(cell_a != cell_b)
    boundary = set(labels[terminals[2:]].tolist())
    merged = {}
    for e, ca, cb in zip(between.tolist(), cell_a[between].tolist(), cell_b[between].tolist()):
        for c in (ca, cb):
            if c not in boundary:
                merged.setdefault(c, set()).add(e)
    z_gens = [frozenset(s) for _, s in sorted(merged.items())]
    node_label = labels.tolist()
    end_a = lat.primal[:, 0].tolist()
    seen = set(labels[terminals[:2]].tolist())
    x_gens = []
    for g in build_lattice(lat.L).x_generators:
        if not (shrunk := g - lat.lost):
            continue
        label = node_label[end_a[next(iter(shrunk))]]
        if label in seen:
            x_gens.append(shrunk)
        seen.add(label)
    return z_gens, x_gens


class TestBuild:
    def test_minimal_instance(self):
        lat = build_lattice(2)
        assert lat.n_edges == 4
        assert sorted(sorted(g) for g in lat.z_generators) == [[0, 1], [0, 2]]
        assert [sorted(g) for g in lat.x_generators] == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("L", [2, 3, 4, 6])
    def test_all_generator_pairs_commute(self, L):
        build_lattice(L).validate_commutation()  # raises on failure

    def test_anticommuting_pair_raises(self):
        lat = build_lattice(3)
        edge = min(lat.x_generators[0])  # one edge of a star
        bad = replace(lat, z_generators=[frozenset({edge})] + lat.z_generators[1:])
        with pytest.raises(ConsistencyError, match="anticommute"):
            bad.validate_commutation()
        # two single-edge Z generators each meet the first star once; the
        # lower-indexed one sits on the star's higher edge, so the name comes
        # from the generator index, not from the edge order
        star = lat.x_generators[0]
        z = list(lat.z_generators)
        z[1], z[3] = frozenset({max(star)}), frozenset({min(star)})
        with pytest.raises(ConsistencyError) as err:
            replace(lat, z_generators=z).validate_commutation()
        assert str(err.value) == f"generators [{max(star)}] and {sorted(star)} anticommute"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_commutation_check_names_the_first_odd_pair(self, data):
        # brute force over every pair: the first X generator in list order
        # that overlaps a Z generator oddly, with its lowest-indexed such partner
        lat = build_lattice(3)
        gens = st.lists(st.frozensets(st.integers(0, lat.n_edges - 1), max_size=6), max_size=8)
        z, x = data.draw(gens), data.draw(gens)
        expected = next((f"generators {sorted(zg)} and {sorted(xg)} anticommute"
                         for xg in x for zg in z if len(xg & zg) % 2), None)
        bad = replace(lat, z_generators=z, x_generators=x)
        if expected is None:
            bad.validate_commutation()
        else:
            with pytest.raises(ConsistencyError) as err:
                bad.validate_commutation()
            assert str(err.value) == expected

    def test_l3_generator_count_by_enumeration(self):
        lat = build_lattice(3)
        assert lat.n_edges == 13  # 3^2 + 2^2
        assert generator_count(lat) == lat.n_edges - 1

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_generators_independent(self, L):
        lat = build_lattice(L)
        rank = gf2_rank(lat.z_generators, lat.n_edges) + \
            gf2_rank(lat.x_generators, lat.n_edges)
        assert rank == generator_count(lat) == lat.n_edges - 1

    def test_rejects_tiny_lattice(self):
        with pytest.raises(ValueError):
            build_lattice(1)

    @pytest.mark.parametrize("L", [2, 5])
    def test_callers_own_their_generator_lists(self, L):
        # the geometry is shared; appending to one caller's lists must not
        # reach the next build of the same size
        fresh = lattice_mod._build_minimal() if L == 2 else lattice_mod._build_planar(L)
        lat = build_lattice(L)
        lat.z_generators.append(frozenset({0}))
        lat.x_generators.clear()
        again = build_lattice(L)
        assert again == fresh
        assert again.primal is lat.primal and again.adjacency is lat.adjacency
        assert again.z_generators is not lat.z_generators

    @pytest.mark.parametrize("L", [2, 5])
    def test_cached_arrays_stay_read_only(self, L):
        build_lattice(L)
        lat = build_lattice(L)
        for arr in (lat.primal, lat.dual):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


class TestApplyLosses:
    def test_empty_list_unchanged(self):
        lat = build_lattice(3)
        assert apply_losses(lat, []).lost == frozenset()

    def test_rate_one_loses_everything(self):
        lat = build_lattice(3)
        out = apply_losses(lat, 1.0, np.random.default_rng(0))
        assert len(out.lost) == lat.n_edges

    def test_seeded_rate_is_reproducible(self):
        lat = build_lattice(4)
        a = apply_losses(lat, 0.3, np.random.default_rng(42))
        b = apply_losses(lat, 0.3, np.random.default_rng(42))
        assert a.lost == b.lost

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            apply_losses(build_lattice(2), [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            apply_losses(build_lattice(2), [99])

    @pytest.mark.parametrize("rate", [0, 1, np.float32(0.5)])
    def test_int_and_numpy_rates_are_rates(self, rate):
        # these used to fall into the edge-list branch: "not iterable"
        lat = build_lattice(4)
        out = apply_losses(lat, rate, np.random.default_rng(5))
        assert out.lost == apply_losses(lat, float(rate), np.random.default_rng(5)).lost
        if rate in (0, 1):
            assert len(out.lost) == rate * lat.n_edges

    def test_explicit_edge_list_still_accepted(self):
        lat = build_lattice(4)
        assert apply_losses(lat, [0, 3, 7]).lost == frozenset({0, 3, 7})
        assert apply_losses(lat, np.array([2, 5])).lost == frozenset({2, 5})
        with pytest.raises(TypeError):
            apply_losses(lat, True, np.random.default_rng(0))  # a bool is no rate

    @pytest.mark.parametrize("edges", [[1.5, 2.9], [True], [np.True_], [2, 1.0], ["3"]])
    def test_non_integer_edges_rejected(self, edges):
        # floats used to be truncated ([1.5, 2.9] lost {1, 2}) and True lost edge 1
        with pytest.raises(ValueError, match="not an integer"):
            apply_losses(build_lattice(4), edges)

    def test_numpy_integer_edges_accepted(self):
        lat = build_lattice(4)
        assert apply_losses(lat, [np.int32(2), np.int64(5), np.uint8(7)]).lost == {2, 5, 7}

    @pytest.mark.parametrize("rate", [float("nan"), -0.2, 1.5, float("inf")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        # these used to lose no edge (nan, -0.2) or every edge (1.5, inf)
        with pytest.raises(ValueError, match="loss rate"):
            apply_losses(build_lattice(4), rate, np.random.default_rng(0))


class TestReform:
    def test_minimal_instance_loses_qubit_one(self):
        lat = apply_losses(build_lattice(2), [0])
        ref = reform_stabilizers(lat)
        assert [sorted(g) for g in ref.z_generators] == [[1, 2]]    # Z2 Z3
        assert [sorted(g) for g in ref.x_generators] == [[1, 2, 3]]  # X2 X3 X4

    def test_no_losses_unchanged(self):
        lat = build_lattice(4)
        ref = reform_stabilizers(lat)
        assert sorted(map(sorted, ref.z_generators)) == \
            sorted(map(sorted, lat.z_generators))
        assert sorted(map(sorted, ref.x_generators)) == \
            sorted(map(sorted, lat.x_generators))

    def test_collinear_superplaquette_merge(self):
        # lose the two edges shared by three plaquettes in one column band:
        # the merged generator is the mod-2 product of all three
        lat = build_lattice(4)
        col = [g for g in lat.z_generators]
        # find two plaquettes sharing an edge, chain of three
        by_edge = {}
        for gi, g in enumerate(col):
            for e in g:
                by_edge.setdefault(e, []).append(gi)
        shared = [(e, gis) for e, gis in by_edge.items() if len(gis) == 2]
        # pick a chain p0 -e1- p1 -e2- p2
        e1, (p0, p1) = shared[0]
        e2 = next(e for e, gis in shared
                  if p1 in gis and e != e1 and gis != [p0, p1])
        p2 = next(g for g in by_edge[e2] if g != p1)
        chain = {p0, p1, p2}
        ref = reform_stabilizers(apply_losses(lat, [e1, e2]))
        expected = frozenset()
        for gi in chain:
            expected = expected ^ col[gi]
        expected = frozenset(expected - {e1, e2})
        assert expected in set(ref.z_generators)
        ref.validate_commutation()

    def test_second_reform_is_the_reform_of_the_union(self):
        # the stars come from the geometry, so a reformed lattice that loses
        # more edges reforms as one reform of all its losses
        rng = np.random.default_rng(4)
        for _ in range(300):
            L = int(rng.integers(3, 8))
            first = reform_stabilizers(apply_losses(build_lattice(L), 0.15, rng))
            twice = reform_stabilizers(apply_losses(first, 0.15, rng))
            once = reform_stabilizers(apply_losses(build_lattice(L), twice.lost))
            assert (twice.z_generators, twice.x_generators) == \
                (once.z_generators, once.x_generators), (L, sorted(twice.lost))

    def test_random_masks_keep_invariants(self):
        rng = np.random.default_rng(1)
        trials = 0
        for _ in range(200):
            L = int(rng.integers(2, 9))
            lat = build_lattice(L)
            ref = reform_stabilizers(apply_losses(lat, 0.25, rng))
            ref.validate_support()
            ref.validate_commutation()
            res = find_logical(ref)
            if not res.correctable:
                continue
            trials += 1
            n_surv = ref.n_edges - len(ref.lost)
            assert generator_count(ref) == n_surv - 1
            # support exclusion for logicals too
            assert not (set(res.t_z.support) & ref.lost)
            assert not (set(res.t_x.support) & ref.lost)
            # logicals commute with every generator, anticommute together
            for g in pauli_strings(ref.z_generators, ref.n_edges, "Z"):
                assert g.commutes(res.t_x)
            for g in pauli_strings(ref.x_generators, ref.n_edges, "X"):
                assert g.commutes(res.t_z)
            assert not res.t_z.commutes(res.t_x)
        assert trials > 50

    def test_plaquettes_equal_scipy_classes_in_cell_order(self):
        # oracle: scipy's classes of cells joined by lost edges; every class
        # without a terminal cell is one plaquette, its kept edges with
        # exactly one cell in the class, listed by the class's smallest cell
        rng = np.random.default_rng(22)
        for _ in range(150):
            L, rate = int(rng.integers(2, 11)), float(rng.uniform(0.1, 0.5))
            lat = apply_losses(build_lattice(L), rate, rng)
            lost = sorted(lat.lost)
            a, b = lat.dual[lost].T
            labels = scipy_labels(a, b, lat.n_cells)
            inside = labels[lat.dual]
            kept = np.setdiff1d(np.arange(lat.n_edges), lost)
            classes = sorted(set(labels.tolist()) - set(labels[-2:].tolist()),
                             key=lambda c: np.flatnonzero(labels == c)[0])
            expected = [frozenset(kept[(inside[kept] == c).sum(axis=1) == 1].tolist())
                        for c in classes]
            assert reform_stabilizers(lat).z_generators == expected, (L, rate)

    def test_island_of_two_vertices_keeps_their_edge_once(self):
        # two adjacent vertices cut off from everything but their shared
        # edge: both stars shrink to that edge, which must stay exactly once
        lat = build_lattice(5)
        a, b = lat.primal.T
        v, w = 6, 7                   # vertices (1, 1) and (1, 2), both interior
        shared = int(np.flatnonzero((a == v) & (b == w))[0])
        touching = np.flatnonzero(np.isin(a, (v, w)) | np.isin(b, (v, w)))
        ref = reform_stabilizers(apply_losses(lat, touching[touching != shared].tolist()))
        assert ref.x_generators.count(frozenset({shared})) == 1
        assert len(ref.x_generators) == lat.n_vertices - 1
        assert gf2_rank(ref.x_generators, ref.n_edges) == len(ref.x_generators)


def vertical_edges(lat) -> np.ndarray:
    """Mask of a planar lattice's vertical edges: they join vertices L apart
    (one row apart) or touch a primal terminal; horizontal ones join
    neighbours in a row."""
    a, b = lat.primal.T
    return (abs(a - b) == lat.L) | (np.maximum(a, b) >= lat.n_vertices)


class TestFindLogical:
    def test_minimal_instance_deformed_tz(self):
        ref = reform_stabilizers(apply_losses(build_lattice(2), [0]))
        res = find_logical(ref)
        assert res.correctable
        assert str(res.t_z) == "IZIZ"   # Z2 Z4
        assert str(res.t_x) == "IIIX"   # X4

    def test_no_losses_yields_spanning_strings(self):
        lat = build_lattice(5)
        res = find_logical(reform_stabilizers(lat))
        assert res.correctable
        # a vertical top-to-bottom string
        assert vertical_edges(lat)[list(res.t_z.support)].all()

    def test_full_horizontal_cut_defeats_tz(self):
        lat = build_lattice(4)
        # every vertical edge between vertex rows 0 and 1
        a, b = lat.primal.T
        cut = np.flatnonzero(vertical_edges(lat) & (np.minimum(a, b) < lat.L)
                             & (np.maximum(a, b) < lat.n_vertices)).tolist()
        assert len(cut) == lat.L
        ref = reform_stabilizers(apply_losses(lat, cut))
        res = find_logical(ref)
        assert res.t_z is None and not res.correctable

    def test_minimal_instance_matches_protocol_code(self):
        # the lattice pipeline reproduces the protocol's code definitions
        lat = build_lattice(2)
        code4 = _code("four_qubit", 4, CODE_QUBITS)
        z_words = {str(PauliString.from_map(4, {e: "Z" for e in g}))
                   for g in lat.z_generators}
        assert z_words == {str(code4.stabilizers["S1Z"]),
                           str(code4.stabilizers["S2Z"])}
        x_words = {str(PauliString.from_map(4, {e: "X" for e in g}))
                   for g in lat.x_generators}
        assert x_words == {str(code4.stabilizers["S1X"])}

        ref = reform_stabilizers(apply_losses(lat, [0]))
        code3 = _code("three_qubit", 4, SURVIVING_QUBITS)
        assert {str(PauliString.from_map(4, {e: "Z" for e in g}))
                for g in ref.z_generators} == {str(code3.stabilizers["S1Z"])}
        assert {str(PauliString.from_map(4, {e: "X" for e in g}))
                for g in ref.x_generators} == {str(code3.stabilizers["S1X"])}
        res = find_logical(ref)
        assert str(res.t_z) == str(code3.logicals["TZ"])
        assert str(res.t_x) == str(code3.logicals["TX"])


class TestSurvival:
    def test_fast_paths_agree_with_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            L = int(rng.integers(2, 7))
            lat = build_lattice(L)
            mask = rng.random(lat.n_edges) < rng.uniform(0.1, 0.9)
            ref = reform_stabilizers(apply_losses(lat, [int(i) for i in
                                                        np.nonzero(mask)[0]]))
            expected = find_logical(ref).correctable
            assert survival_check(lat, mask) == expected

    @pytest.mark.parametrize("shape", ["short", "long", "2-D"])
    def test_mask_of_wrong_shape_rejected(self, shape):
        # a mask one edge short used to give a verdict, a longer one an IndexError
        lat = build_lattice(6)
        mask = np.random.default_rng(3).random(lat.n_edges) < 0.3
        bad = {"short": mask[:-1], "long": np.append(mask, False), "2-D": mask[None]}[shape]
        with pytest.raises(ValueError, match="shape"):
            survival_check(lat, bad)


class TestCachedGeometry:
    """The cached adjacency and the array-built plaquettes against the
    per-call references (`reference_terminal_path`, `reference_generators`)."""

    @pytest.mark.parametrize("p", [0.1, 0.45, 0.6])
    @pytest.mark.parametrize("L", [2, 3, 5, 12, 32])
    def test_matches_per_call_reference(self, L, p):
        base = build_lattice(L)
        rng = np.random.default_rng((L, round(100 * p)))
        for _ in range(6 if L == 32 else 25):
            lossy = apply_losses(base, p, rng)
            ref = reform_stabilizers(lossy)
            assert (ref.z_generators, ref.x_generators) == reference_generators(lossy)
            found = find_logical(ref)
            letters = tuple(None if t is None else t.letters for t in (found.t_z, found.t_x))
            assert letters == reference_logical_letters(ref)

    def test_reformed_input_matches_per_call_reference(self):
        # losses that split an island of a lattice reformed once: a reference that
        # shrinks its input's stars drops a second star there (18 of 19)
        first = [1, 16, 18, 19, 23, 32, 36, 39]
        once = reform_stabilizers(apply_losses(build_lattice(5), first))
        more = apply_losses(once, [4, 13, 22, 38])
        twice = reform_stabilizers(more)
        assert len(twice.x_generators) == 19
        assert (twice.z_generators, twice.x_generators) == reference_generators(more)
        union = reform_stabilizers(apply_losses(build_lattice(5), sorted(more.lost)))
        assert (union.z_generators, union.x_generators) == reference_generators(more)


def scipy_labels(a, b, n):
    """Reference labelling: scipy numbers components by their smallest node."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


_GRAPHS = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n)))


class TestComponents:
    """`_components` against scipy's labels, not just the same partition."""

    @given(graph=_GRAPHS)
    @settings(max_examples=300, deadline=None)
    @example(graph=(1, []))                          # one node, no edges
    @example(graph=(1, [(0, 0), (0, 0)]))            # self-loops only
    @example(graph=(5, []))                          # isolated nodes only
    @example(graph=(2, [(0, 1), (1, 0), (0, 1)]))    # parallel edges
    @example(graph=(6, [(4, 2), (2, 2), (5, 4)]))    # isolated 0, 1 and 3
    def test_labels_equal_scipy(self, graph):
        n, edges = graph
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        a, b = ends[:, 0], ends[:, 1]
        assert np.array_equal(lattice_mod._components(a, b, n), scipy_labels(a, b, n))

    def test_long_shuffled_path(self):
        rng = np.random.default_rng(4)
        n = 20_000
        nodes = rng.permutation(n)
        order = rng.permutation(n - 1)
        a, b = nodes[:-1][order], nodes[1:][order]
        labels = lattice_mod._components(a, b, n)
        assert np.array_equal(labels, scipy_labels(a, b, n))
        assert not labels.any()

    def test_block_contraction_graph(self):
        # the graph `_surviving_prefix` contracts first: one block of L=16
        # samples, the edges kept at the largest rate of a grid
        lat = build_lattice(16)
        ends, terminals = lattice_mod._both_sides(lat)
        n = terminals[-1] + 1
        k = lattice_mod.BLOCK_EDGES // lat.n_edges
        u = np.random.default_rng(16).random((k, lat.n_edges))
        _, a, b = lattice_mod._block_edges(u >= 0.55, n, ends)
        assert np.array_equal(lattice_mod._components(a, b, k * n),
                              scipy_labels(a, b, k * n))


class TestBlockKernel:
    """The block survival kernel against the per-mask references."""

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_stack_matches_find_logical_row_for_row(self, L):
        lat = build_lattice(L)
        rng = np.random.default_rng(100 + L)
        rates = rng.uniform(0.05, 0.95, size=(40, 1))
        lost = np.vstack([rng.random((40, lat.n_edges)) < rates,
                          np.zeros(lat.n_edges, dtype=bool),
                          np.ones(lat.n_edges, dtype=bool)])
        expected = [find_logical(reform_stabilizers(apply_losses(
            lat, [int(e) for e in np.nonzero(row)[0]]))).correctable for row in lost]
        assert [survival_check(lat, row) for row in lost] == expected
        assert expected[-2:] == [True, False]

    @pytest.mark.parametrize("grid", [
        # unsorted, a repeated rate, both endpoints
        [0.5, 0.3, 1.0, 0.7, 0.5, 0.0],
        # one rate: no edge varies, the contraction alone decides
        [0.45],
        # every sample spans at the largest rate (checked below)
        [0.002, 0.0, 0.001],
    ])
    @pytest.mark.parametrize("budget", [lattice_mod.BLOCK_EDGES, 100])
    def test_sweep_matches_per_mask_loop(self, budget, grid, monkeypatch):
        # a budget of 100 edges puts 25, 7, 4 and 2 masks in a block at
        # L=2, 3, 4, 5; 101 samples is a multiple of none of them.  L=2's dual
        # terminals are its two bottom corner cells.
        monkeypatch.setattr(lattice_mod, "BLOCK_EDGES", budget)
        sizes, samples, seed = [2, 3, 4, 5], 101, 17
        res = percolation_threshold(sizes, samples, grid, seed=seed)
        ref = []
        for L in sizes:
            lat = build_lattice(L)
            # sample s is row s of its size's block
            u = seed_for(seed, SeedDomain.PERCOLATION_SAMPLES, L).random((samples, lat.n_edges))
            for p in grid:
                ref.append(sum(survival_check(lat, ~(row >= p)) for row in u))
        assert [pt.survivors for pt in res.points] == ref
        if max(grid) == 0.002:
            assert ref[::len(grid)] == [samples] * len(sizes)

    def test_first_samples_of_a_longer_run(self):
        # the n samples of a run are the first n rows of a longer run's block
        L, grid, seed, samples = 4, [0.35, 0.5], 23, 150
        lat = build_lattice(L)
        u = seed_for(seed, SeedDomain.PERCOLATION_SAMPLES, L).random((samples + 60, lat.n_edges))
        res = percolation_threshold([L], samples, grid, seed=seed)
        assert [pt.survivors for pt in res.points] == [
            sum(survival_check(lat, row < p) for row in u[:samples]) for p in grid]

    @given(L=st.integers(2, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_correctable_pattern_holds_one_logical_qubit(self, L, data):
        lat = build_lattice(L)
        lost = data.draw(st.lists(st.booleans(), min_size=lat.n_edges,
                                  max_size=lat.n_edges))
        ref = reform_stabilizers(apply_losses(lat, [e for e, x in enumerate(lost) if x]))
        if not find_logical(ref).correctable:
            return
        n_surviving = ref.n_edges - len(ref.lost)
        k = (n_surviving - gf2_rank(ref.z_generators, ref.n_edges)
             - gf2_rank(ref.x_generators, ref.n_edges))
        assert k == 1


_RATES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


class TestCoupledSweep:
    """One draw per (L, sample) serves every loss rate of the grid."""

    @given(L=st.integers(2, 6), grid=_RATES, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_survivors_never_increase_with_p(self, L, grid, seed):
        pts = sorted(percolation_threshold([L], 100, grid, seed=seed).points,
                     key=lambda pt: pt.p)
        assert all(lo.survivors >= hi.survivors for lo, hi in zip(pts, pts[1:]))

    @given(L=st.integers(2, 6), grid=_RATES, seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_count_ignores_other_points_and_order(self, L, grid, seed, data):
        full = {pt.p: pt.survivors
                for pt in percolation_threshold([L], 100, grid, seed=seed).points}
        # a prefix of a permutation: any non-empty sub-grid, in any order
        sub = data.draw(st.permutations(grid))
        sub = sub[:data.draw(st.integers(1, len(sub)))]
        for pt in percolation_threshold([L], 100, sub, seed=seed).points:
            assert pt.survivors == full[pt.p]

    @given(L=st.integers(2, 6), grid=_RATES, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_counts_ignore_the_block_budget(self, L, grid, seed):
        default = percolation_threshold([L], 100, grid, seed=seed).points
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_mod, "BLOCK_EDGES", 100)
            small = percolation_threshold([L], 100, grid, seed=seed).points
        assert [pt.survivors for pt in small] == [pt.survivors for pt in default]


class TestPercolation:
    @pytest.mark.parametrize("p", [-0.01, 1.5, float("nan")])
    def test_rate_outside_unit_interval_raises(self, p):
        with pytest.raises(ValueError, match="loss rates"):
            percolation_threshold([4], 100, [0.5, p])

    def test_extreme_rates(self):
        res = percolation_threshold([4], 100, [0.0, 1.0], seed=1)
        assert curve(res, 4)[0].fraction == 1.0
        assert curve(res, 4)[1].fraction == 0.0

    def test_determinism(self):
        a = percolation_threshold([4, 6], 100, [0.4, 0.5, 0.6], seed=5)
        b = percolation_threshold([4, 6], 100, [0.4, 0.5, 0.6], seed=5)
        assert [(p.L, p.p, p.survivors) for p in a.points] == \
            [(p.L, p.p, p.survivors) for p in b.points]

    def test_monotonicity_within_bands(self):
        res = percolation_threshold([6], 400, list(np.linspace(0.2, 0.8, 7)), seed=2)
        pts = curve(res, 6)
        for lo, hi in zip(pts, pts[1:]):
            band = 3 * math.sqrt(lo.binom_std**2 + hi.binom_std**2)
            assert hi.fraction <= lo.fraction + band

    def test_small_crossing_near_half(self):
        res = percolation_threshold([8, 12], 300,
                                    list(np.linspace(0.38, 0.62, 13)), seed=3)
        assert res.threshold is not None
        assert 0.40 <= res.threshold <= 0.60

    def test_repeated_size_raises(self):
        with pytest.raises(ValueError, match="must not repeat"):
            percolation_threshold([6, 6], 100, [0.3, 0.4, 0.5, 0.6])

    def test_empty_grids_raise(self):
        with pytest.raises(ValueError, match="must not be empty"):
            percolation_threshold([], 100, [0.5])
        with pytest.raises(ValueError, match="must not be empty"):
            percolation_threshold([4], 100, [])

    def test_samples_floor(self):
        with pytest.raises(ValueError):
            percolation_threshold([4], 50, [0.5], seed=0)

    def test_crossing_estimate_interpolation(self):
        pts = [SurvivalPoint(4, 0.4, 100, 90), SurvivalPoint(4, 0.5, 100, 50),
               SurvivalPoint(4, 0.6, 100, 20),
               SurvivalPoint(8, 0.4, 100, 95), SurvivalPoint(8, 0.5, 100, 50),
               SurvivalPoint(8, 0.6, 100, 5)]
        thr = crossing_estimate(pts, 4, 8)
        assert thr == pytest.approx(0.5, abs=1e-9)
