"""State/process tomography, resampling errors, process fidelities, table report."""

import math

import numpy as np
import pytest

from qloss import tomography
from qloss.tolerances import ATOL_TRACE
from qloss.channels import NoiseModel
from qloss.protocol import (analytic_run, code_space_population, code_space_projector,
                            encode, four_qubit_code, three_qubit_code)
from qloss.qudit import (DensityOperator, PauliString, PureState, SeedDomain, make_state,
                         seed_for)
from qloss.tomography import (EmptyBranchError, TABLE_COLUMNS, ideal_branch_choi,
                              invert_counts, process_fidelity, process_tomography,
                              record_density, resample_errors, sample_counts,
                              setting_probabilities, settings, state_tomography,
                              table_report)

S1X_LAW = lambda phi: 4 * math.cos(phi / 2) / (3 + math.cos(phi))


def random_qubit_density(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    d = 2**n
    r = d if rank is None else rank
    m = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = m @ m.conj().T
    return m / np.trace(m)


#: +1/-1 eigenprojectors per measurement basis, indexed [letter][bit]
PROJECTORS = {
    "X": (0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
          0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)),
    "Y": (0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex),
          0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)),
    "Z": (np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])),
}


def kron_trace_probabilities(rho2, setting):
    """Reference: Tr(rho2 P_o) for every outcome o, P_o built by np.kron."""
    n = len(setting)
    probs = np.empty(2**n)
    for outcome in range(2**n):
        proj = np.array([[1.0 + 0j]])
        for q in range(n):
            bit = (outcome >> (n - 1 - q)) & 1
            proj = np.kron(proj, PROJECTORS[setting[q]][bit])
        probs[outcome] = np.real(np.trace(rho2 @ proj))
    return np.clip(probs, 0.0, None)


def embed_qubit_density(mat, n):
    """Lift a 2^n qubit operator into the dims=3 register (no leak)."""
    full = np.zeros((3**n, 3**n), dtype=complex)
    for i, row in enumerate(np.ndindex(*(2,) * n)):
        for j, col in enumerate(np.ndindex(*(2,) * n)):
            ii = 0
            for l in row:
                ii = 3 * ii + l
            jj = 0
            for l in col:
                jj = 3 * jj + l
            full[ii, jj] = mat[i, j]
    return DensityOperator(n, 3, full)


def inverted_row(rho2, code):
    """Reference row: Tr(rho2 M)/Tr(rho2) per table column, from an estimate."""
    qubits = code.qubits
    ops = {name: p.restricted(qubits).embedded(2) for name, p in code.all_observables().items()}
    ops["P_CS"] = code_space_projector(
        [g.restricted(qubits) for g in code.stabilizers.values()], 2)
    tr = float(np.real(np.trace(rho2)))
    vals = {name: float(np.real(np.trace(rho2 @ m))) / tr for name, m in ops.items()}
    return {col: vals.get(col, float("nan")) for col in TABLE_COLUMNS}


def random_counts(n, seed):
    """A (3^n, 2^n) table of small integer counts, every setting non-empty."""
    table = np.random.default_rng(seed).integers(0, 20, size=(3**n, 2**n)).astype(float)
    table[:, 0] += 1
    return table


class TestStateTomography:
    def test_exact_mode_on_logical_zero(self):
        rho = encode(0.0).to_density()
        est, _ = state_tomography(rho, qubits=(0, 1, 2, 3))
        target = np.zeros(16, dtype=complex)
        target[0b0000] = target[0b1111] = 1 / math.sqrt(2)
        fid = float(np.real(target.conj() @ est @ target))
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_exact_mode_reproduces_s1x_value(self):
        res = analytic_run(math.pi / 2, 0.5 * math.pi)
        est, _ = state_tomography(res.rho_no_loss, qubits=(0, 1, 2, 3))
        sx = np.array([[1.0]])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        for _ in range(4):
            sx = np.kron(sx, x)
        assert float(np.real(np.trace(est @ sx))) == pytest.approx(
            S1X_LAW(0.5 * math.pi), abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_inversion_unbiased_random_two_qubit(self, n, seed):
        mat = random_qubit_density(n, seed)
        rho = embed_qubit_density(mat, n)
        est, _ = state_tomography(rho)
        assert np.max(np.abs(est - mat)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_post_selected_inversion_scales_by_weight(self, n):
        # a retained fraction w of every setting's attempts: the estimate
        # carries the branch weight as its trace
        mat, w = random_qubit_density(n, 7), 0.37
        probs = dict(zip(settings(n), w * setting_probabilities(mat)))
        est = invert_counts(probs, attempted={s: 1.0 for s in probs})
        assert np.max(np.abs(est - w * mat)) < 1e-12

    @pytest.mark.parametrize("bad,attempted", [
        (-1.0, None), (math.inf, None), (math.nan, None),
        (math.nan, 1.0), (None, math.inf), (None, math.nan), (None, 0.0), (None, -1.0),
    ])
    def test_impossible_counts_raise(self, bad, attempted):
        # one bad count in setting XX, or a bad attempted total for it
        counts = {s: np.array([40.0, 30.0, 20.0, 10.0]) for s in settings(2)}
        if bad is not None:
            counts[("X", "X")][1] = bad
        totals = None if attempted is None else {s: 100.0 for s in counts}
        if attempted is not None:
            totals[("X", "X")] = attempted
        with pytest.raises(ValueError):
            invert_counts(counts, totals)

    def test_finite_shots_within_resampled_band(self):
        rho = encode(0.0).to_density()
        est, counts = state_tomography(rho, qubits=(0, 1, 2, 3),
                                       shots_per_setting=100, seed=17)
        target = np.zeros(16, dtype=complex)
        target[0b0000] = target[0b1111] = 1 / math.sqrt(2)

        def fid_stat(c):
            # pure-target fidelity as the raw overlap: unbiased on the
            # (possibly non-PSD) linear-inversion estimate
            rec = invert_counts(c)
            return {"fid": float(np.real(target.conj() @ rec @ target))}

        fid = fid_stat(counts)["fid"]
        std = resample_errors(counts, fid_stat, iterations=100, seed=3)["fid"]
        assert abs(fid - 1.0) <= 5 * max(std, 1e-4)

    def test_setting_enumeration(self):
        assert len(settings(4)) == 81
        assert len(set(settings(4))) == 81

    def test_leaked_population_contaminates_z_counts(self):
        # qubit in |2>: records as dark in Z, unpolarized in X/Y
        rho = make_state(1, 3, [2]).to_density()
        rec = record_density(rho, (0,))
        assert np.allclose(rec, np.diag([0.0, 1.0]))
        probs = dict(zip(settings(1), setting_probabilities(rec)))
        assert np.allclose(probs[("Z",)], [0.0, 1.0])
        assert np.allclose(probs[("X",)], [0.5, 0.5])

    @pytest.mark.parametrize("rank", [1, 2, None])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_matches_kron_trace(self, n, rank):
        for seed in range(5):
            mat = random_qubit_density(n, 200 + seed, rank)
            ref = np.array([kron_trace_probabilities(mat, s) for s in settings(n)])
            assert np.max(np.abs(setting_probabilities(mat) - ref)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_functional_equals_trace_of_inversion(self, n):
        # Tr(rho_hat M) read off the frequency table through Tr(M D_{s,o}), against
        # the trace of the inverted estimate
        rng = np.random.default_rng(300 + n)
        for seed in range(4):
            table = random_counts(n, seed)
            freqs = table / table.sum(axis=1, keepdims=True)
            est = invert_counts(dict(zip(settings(n), table)))
            herm = rng.normal(size=(2**n,) * 2) + 1j * rng.normal(size=(2**n,) * 2)
            words = [PauliString(tuple(rng.choice(list("IXYZ"), n))).embedded(2)
                     for _ in range(6)]
            ops = [np.eye(2**n), (herm + herm.conj().T) / 2**(n + 1)] + words
            c = [tomography._per_ion_map(m.reshape((2,) * (2 * n)), tomography._DUAL, n)
                 for m in ops]
            for m, c_m in zip(ops, c):
                assert np.max(np.abs(c_m.imag)) <= 1e-15
                got = np.sum(freqs * c_m.real) / np.sum(freqs * c[0].real)
                ref = np.real(np.trace(est @ m)) / np.real(np.trace(est))
                assert got == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("code", [four_qubit_code(), three_qubit_code()],
                             ids=lambda c: c.name)
    def test_code_row_equals_inverted_row(self, code):
        n = len(code.qubits)
        for seed in range(10):
            table = random_counts(n, 400 + seed)
            got = tomography._row_values(table / table.sum(axis=1, keepdims=True),
                                         tomography._row_functionals(code))
            ref = inverted_row(invert_counts(dict(zip(settings(n), table))), code)
            np.testing.assert_allclose(got, list(ref.values()), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shots", [1, 37, np.arange(1, 28)])
    def test_sampled_rows_sum_to_shots(self, shots):
        rng = seed_for(0, SeedDomain.TABLE_CELLS)
        table = sample_counts(random_qubit_density(3, 11), shots, rng)
        assert table.shape == (27, 8)
        assert np.array_equal(table.sum(axis=1), np.broadcast_to(shots, 27))


class TestProcessTomography:
    @pytest.mark.parametrize("phi", [0.10 * math.pi, 0.30 * math.pi,
                                     0.53 * math.pi, 0.81 * math.pi])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_exact_mode_reproduces_ideal_choi(self, phi, branch):
        choi, _ = process_tomography(phi, branch)
        ideal = ideal_branch_choi(phi, branch)
        assert np.max(np.abs(choi.matrix - ideal.matrix)) < 1e-9
        assert process_fidelity(choi, ideal) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("phi", np.linspace(0.05, math.pi, 7))
    def test_choi_pair_trace_one(self, phi):
        c0, _ = process_tomography(phi, 0)
        c1, _ = process_tomography(phi, 1)
        assert c0.trace() + c1.trace() == pytest.approx(1.0, abs=1e-10)

    def test_zero_angle_identity(self):
        choi, _ = process_tomography(0.0, 0)
        assert np.allclose(choi.matrix, ideal_branch_choi(0.0, 0).matrix, atol=1e-12)

    def test_loss_branch_single_entry(self):
        phi = 0.53 * math.pi
        choi, _ = process_tomography(phi, 1)
        expected = np.zeros((4, 4))
        expected[2, 2] = 0.5 * math.sin(phi / 2) ** 2
        assert np.max(np.abs(choi.matrix - expected)) < 1e-12

    @pytest.mark.parametrize("post", [0, 1])
    def test_exact_choi_stays_linear_through_tiny_branches(self, post):
        # each input keeps its own branch output, however small: zeroing the
        # inputs below ATOL_TRACE one by one made the loss-branch Choi near
        # phi = 7.8e-7 pi non-PSD and wrong by most of its size
        for phi in np.geomspace(1e-9, 0.1, 81) * math.pi:
            ideal = ideal_branch_choi(phi, post)
            try:
                choi, _ = process_tomography(phi, post)
            except EmptyBranchError:
                assert ideal.trace() <= ATOL_TRACE, phi
                continue
            trace = choi.trace()
            assert np.linalg.eigvalsh(choi.matrix).min() >= -1e-12 * trace, phi
            assert np.max(np.abs(choi.matrix - ideal.matrix)) <= 1e-9 * trace, phi

    def test_empty_branch_raises(self):
        with pytest.raises(EmptyBranchError):
            process_tomography(0.0, 1)

    def test_sampled_branch_without_a_retained_shot_raises(self):
        # the loss branch keeps at most sin^2(0.0125 pi) ~ 1.5e-3 of an input, and
        # at seed 0 none of the 100 shots of any input and setting survive
        with pytest.raises(EmptyBranchError, match="retained no shot"):
            process_tomography(0.025 * math.pi, 1, shots=100, seed=0)

    @pytest.mark.parametrize("post_select", [-1, 2])
    def test_unknown_post_selection_raises(self, post_select):
        with pytest.raises(ValueError, match="ancilla outcome"):
            process_tomography(0.3, post_select)

    @pytest.mark.parametrize("phi", np.linspace(0.0, 2 * math.pi, 11))
    def test_ideal_choi_closed_forms(self, phi):
        # no loss: 0.5 (c|00> + |11>)(c<00| + <11|); loss: 0.5 s^2 |10><10|
        c, s = math.cos(phi / 2), math.sin(phi / 2)
        no_loss = 0.5 * np.outer([c, 0, 0, 1], [c, 0, 0, 1])
        loss = np.zeros((4, 4))
        loss[2, 2] = 0.5 * s**2
        assert np.allclose(ideal_branch_choi(phi, 0).matrix, no_loss, rtol=0, atol=1e-15)
        assert np.allclose(ideal_branch_choi(phi, 1).matrix, loss, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("branch", [-1, 2])
    def test_ideal_choi_rejects_unknown_branch(self, branch):
        with pytest.raises(ValueError):
            ideal_branch_choi(0.3, branch)

    def test_neighbouring_angles_draw_different_counts(self):
        # the generator is keyed by phi's bits, so the next float draws anew
        phi = 0.3 * math.pi
        _, near = process_tomography(phi, 0, shots=1000, seed=0)
        _, next_up = process_tomography(np.nextafter(phi, 1), 0, shots=1000, seed=0)
        assert ([v["counts"] for v in near["inputs"].values()]
                != [v["counts"] for v in next_up["inputs"].values()])

    def test_signed_zero_angles_draw_the_same_counts(self):
        _, plus = process_tomography(0.0, 0, shots=100, seed=0)
        _, minus = process_tomography(-0.0, 0, shots=100, seed=0)
        assert plus["inputs"] == minus["inputs"]

    def test_post_selections_draw_different_uniforms(self, monkeypatch):
        keys, seed_for = [], tomography.seed_for

        def recording(*args):
            keys.append(args)
            return seed_for(*args)

        monkeypatch.setattr(tomography, "seed_for", recording)
        for post in (0, 1):
            process_tomography(0.5 * math.pi, post, shots=100, seed=0)
        first, second = (seed_for(*key).random(8) for key in keys)
        assert not np.any(first == second)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("post", [0, 1])
    def test_sampled_estimates_are_physical(self, seed, post):
        # the raw inversion of one input has trace sum(counts) / (3 shots), and
        # the Choi trace is half that of inputs |0> and |1> together
        for phi in np.array([0.05, 0.10, 0.3, 0.53, 0.81]) * math.pi:
            choi, details = process_tomography(phi, post, shots=1000, seed=seed)
            raw_trace = sum(np.sum(counts) for label in ("0", "1")
                            for counts in details["inputs"][label].get("counts", {}).values()
                            ) / (6 * 1000)
            trace = choi.trace()
            assert np.linalg.eigvalsh(choi.matrix).min() >= -1e-12 * trace, phi
            assert abs(trace - raw_trace) <= 1e-12, phi
            assert process_fidelity(choi, ideal_branch_choi(phi, post)) <= 1 + 1e-12, phi

    def test_sampled_mode_statistics(self):
        phi = 0.3 * math.pi
        choi, _ = process_tomography(phi, 0, shots=4000, seed=5)
        ideal = ideal_branch_choi(phi, 0)
        assert process_fidelity(choi, ideal) == pytest.approx(1.0, abs=0.05)


class TestResampling:
    def test_vanishing_noise_in_large_count_limit(self):
        rho = encode(0.0).to_density()
        _, counts = state_tomography(rho, qubits=(0, 1))
        scaled = {s: np.asarray(v) * 1e8 for s, v in counts.items()}

        def stat(c):
            rec = invert_counts(c)
            return {"zz": float(np.real(rec[0, 0] + rec[3, 3]))}

        stds = resample_errors(scaled, stat, iterations=100, seed=1)
        assert stds["zz"] < 1e-3

    def test_coin_against_binomial_closed_form(self):
        counts = {("Z",): np.array([50.0, 50.0])}

        def stat(c):
            vec = c[("Z",)]
            return {"Z": float((vec[0] - vec[1]) / vec.sum())}

        # closed form: std of <Z> = 2 sqrt(p(1-p)/n) = 0.1 at p=1/2, n=100
        stds = resample_errors(counts, stat, iterations=100, seed=0)
        assert abs(stds["Z"] - 0.1) < 0.03

    def test_determinism(self):
        counts = {("Z",): np.array([30.0, 70.0]), ("X",): np.array([55.0, 45.0])}

        def stat(c):
            return {"Z": float(c[("Z",)][0]), "X": float(c[("X",)][0])}

        a = resample_errors(counts, stat, iterations=50, seed=12)
        b = resample_errors(counts, stat, iterations=50, seed=12)
        assert a == b

    def test_all_zero_setting_rejected(self):
        with pytest.raises(ValueError):
            resample_errors({("Z",): np.zeros(2)}, lambda c: {}, seed=0)

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_fewer_than_two_iterations_rejected(self, iterations):
        # 0 used to return {} and 1 an all-zero sigma
        counts = {("Z",): np.array([30.0, 70.0])}
        with pytest.raises(ValueError, match="iterations"):
            resample_errors(counts, lambda c: {"Z": float(c[("Z",)][0])},
                            iterations=iterations, seed=0)

    @pytest.mark.parametrize("seed", [5, (5, 1, 2, 0)])
    def test_draw_stack_equals_per_iteration_draws(self, seed):
        # one multinomial call draws the iterations one after another
        table = random_counts(3, 17)
        table[4] = [0, 0, 3, 0, 0, 0, 0, 0]
        master, *key = seed if isinstance(seed, tuple) else (seed,)
        rng = lambda: seed_for(master, SeedDomain.TABLE_RESAMPLING, *key)
        stack = tomography._resampled_tables(table, 7, rng())
        totals = table.sum(axis=1)
        loop_rng = rng()
        loop = np.array([loop_rng.multinomial(np.rint(totals).astype(np.int64),
                                              table / totals[:, None]).astype(float)
                         for it in range(7)])
        assert stack.dtype == loop.dtype and stack.tobytes() == loop.tobytes()
        assert np.array_equal(tomography._resampled_tables(table, 3, rng()), stack[:3])


class TestCodeSpace:
    def test_logical_zero_in_code(self):
        rho = encode(0.0).to_density()
        assert code_space_population(rho, four_qubit_code()) == pytest.approx(1.0)

    def test_maximally_mixed_four_qubit(self):
        mixed = embed_qubit_density(np.eye(16) / 16, 4)
        # lift to the 5-ion register with the ancilla in |0>
        anc = np.zeros((3, 3))
        anc[0, 0] = 1.0
        full = DensityOperator(5, 3, np.kron(mixed.mat, anc))
        assert code_space_population(full, four_qubit_code()) == pytest.approx(1 / 8)

    def test_reconstructed_loss_branch(self):
        res = analytic_run(0.7, 0.2 * math.pi)
        assert code_space_population(res.rho_loss, three_qubit_code()) == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_on_random_states(self, seed):
        mat = random_qubit_density(2, 100 + seed)
        rho = embed_qubit_density(mat, 2)
        # use the 2-qubit repetition-style code {ZZ} with logical X1, Z1
        from qloss.protocol import CodeDefinition
        code = CodeDefinition(
            "zz", (0, 1),
            {"S1Z": PauliString.from_map(2, {0: "Z", 1: "Z"})},
            {"TX": PauliString.from_map(2, {0: "X", 1: "X"}),
             "TZ": PauliString.from_map(2, {0: "Z"}),
             "TY": PauliString.from_map(2, {0: "Y", 1: "X"})})
        p = code_space_population(rho, code)
        assert 0.0 <= p <= 1.0
        zz = float(np.real(np.trace(
            rho.mat @ code.stabilizers["S1Z"].embedded(3))))
        assert p == pytest.approx(0.5 * (1 + zz), abs=1e-9)

    def test_unity_iff_all_generators_plus_one(self):
        rho = encode(0.0).to_density()
        code = four_qubit_code()
        from qloss.qudit import expectation
        assert code_space_population(rho, code) == pytest.approx(1.0, abs=1e-9)
        for g in code.stabilizers.values():
            assert expectation(rho, g) == pytest.approx(1.0, abs=1e-9)

    def test_non_commuting_generators_rejected(self):
        from qloss.protocol import CodeDefinition
        bad = CodeDefinition(
            "bad", (0,),
            {"A": PauliString.from_map(1, {0: "X"}),
             "B": PauliString.from_map(1, {0: "Z"})},
            {"TX": PauliString.from_map(1, {0: "X"}),
             "TZ": PauliString.from_map(1, {0: "Z"}),
             "TY": PauliString.from_map(1, {0: "Y"})})
        with pytest.raises(ValueError):
            code_space_population(make_state(1, 3, [0]).to_density(), bad)


class TestFidelities:
    def test_process_fidelity_round_trip(self):
        phi = 0.3 * math.pi
        choi, _ = process_tomography(phi, 0)
        assert process_fidelity(ideal_branch_choi(phi, 0), choi) == \
            pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (3, 3)])
    def test_non_finite_choi_raises(self, bad, entry):
        good = ideal_branch_choi(0.3, 0).matrix
        broken = good.copy()
        broken[entry] = bad
        for a, b in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match="non-finite"):
                process_fidelity(a, b)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_angle_has_no_ideal_choi(self, phi):
        with pytest.raises(ValueError):
            ideal_branch_choi(phi, 0)

    def test_rank_one_normalization(self):
        # both branch Choi matrices are rank-1: overlap formula gives 1
        for phi in (0.2, 1.1, 2.0):
            for b in (0, 1):
                m = ideal_branch_choi(phi, b).matrix
                evals = np.linalg.eigvalsh(m)
                assert (evals > 1e-12).sum() == 1
                assert process_fidelity(m, m) == pytest.approx(1.0, abs=1e-12)


class TestTableReport:
    def test_ideal_rows(self):
        rows = table_report(alphas=(0.0, math.pi), phis=(0.1 * math.pi,))
        by_key = {(r.section, r.alpha): r for r in rows}
        for alpha in (0.0, math.pi):
            enc = by_key[("encoding", alpha)]
            assert enc.values["TX"] == pytest.approx(0.0, abs=1e-10)
            assert enc.values["TZ"] == pytest.approx(1.0 if alpha == 0 else -1.0,
                                                     abs=1e-10)
            assert enc.values["P_CS"] == pytest.approx(1.0, abs=1e-10)

    def test_plus_i_no_loss_s1x(self):
        rows = table_report(alphas=(math.pi / 2,), phis=(0.1 * math.pi,))
        row = next(r for r in rows if r.section == "no_loss")
        assert row.values["S1X"] == pytest.approx(S1X_LAW(0.1 * math.pi), abs=1e-10)
        assert row.values["S1X"] == pytest.approx(0.99994, abs=1e-4)

    def test_noisy_loss_branch_pcs_ordering(self):
        model = NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit")
        rows = table_report(alphas=(math.pi,), noise=model)
        loss_rows = [r for r in rows if r.section == "loss"]
        pcs = [r.values["P_CS"] for r in sorted(loss_rows, key=lambda r: r.phi)]
        assert pcs[0] < pcs[1] < pcs[2]  # Table ordering 0.44 < 0.63 < 0.80

    def test_loss_rows_have_no_s2z(self):
        rows = table_report(alphas=(0.0,), phis=(0.2 * math.pi,))
        loss = next(r for r in rows if r.section == "loss")
        assert math.isnan(loss.values["S2Z"])
        assert list(loss.values.keys()) == list(TABLE_COLUMNS)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_no_loss_row_at_zero_loss(self, sampled):
        rows = table_report(alphas=(0.0, math.pi / 2), phis=(0.0,), sampled=sampled,
                            shots_per_setting={0.0: 20})
        assert [r.section for r in rows] == ["encoding", "no_loss"] * 2

    def test_sampled_mode_reports_errors(self):
        rows = table_report(alphas=(0.0,), phis=(0.5 * math.pi,), sampled=True,
                            shots_per_setting={0.5 * math.pi: 50}, seed=4)
        sampled_rows = [r for r in rows if r.errors is not None]
        assert sampled_rows
        for r in sampled_rows:
            finite = {k: v for k, v in r.errors.items()
                      if not math.isnan(r.values[k])}
            assert finite and all(v >= 0 for v in finite.values())
            # finite-shot estimate close to ideal within a loose band
            assert abs(r.values["S1Z"] - 1.0) < 0.5

    def test_sampled_rows_match_inverted_resampling(self):
        # reference: every resampled table inverted and its row traced
        alphas, phis, shots, seed = (0.0, math.pi / 2), (0.2 * math.pi, 0.5 * math.pi), 50, 2
        rows = table_report(alphas, phis, seed=seed, sampled=True,
                            shots_per_setting=dict.fromkeys(phis, shots))
        sampled = iter(r for r in rows if r.errors is not None)
        checked = 0
        for a_idx, alpha in enumerate(alphas):
            for p_idx, phi in enumerate(phis):
                res = analytic_run(alpha, phi)
                for b, (rho, code) in enumerate(((res.rho_no_loss, four_qubit_code()),
                                                 (res.rho_loss, three_qubit_code()))):
                    # the cell's counts come from its table-cell generator; its
                    # resampling generator redraws them (each setting keeping its
                    # total) once per iteration
                    cell = (a_idx, p_idx, b)
                    table = sample_counts(record_density(rho.normalized(), code.qubits),
                                          shots, seed_for(seed, SeedDomain.TABLE_CELLS, *cell))
                    totals = table.sum(axis=1)
                    resampling = seed_for(seed, SeedDomain.TABLE_RESAMPLING, *cell)
                    redraws = [resampling.multinomial(np.rint(totals).astype(int),
                                                      table / totals[:, None])
                               for it in range(100)]
                    point, *resampled = [
                        inverted_row(invert_counts(dict(zip(settings(len(code.qubits)), t))),
                                     code) for t in [table] + redraws]
                    row = next(sampled)
                    assert (row.alpha, row.phi) == (alpha, phi)
                    for col in TABLE_COLUMNS:
                        std = np.std([r[col] for r in resampled])
                        for got, ref in ((row.values[col], point[col]),
                                         (row.errors[col], std)):
                            assert got == pytest.approx(ref, abs=1e-12, nan_ok=True)
                    checked += 1
        assert checked == 8 and next(sampled, None) is None

    def test_zero_shot_preset_rejected(self):
        # it used to fall into exact mode and "resample" the probabilities
        with pytest.raises(ValueError, match="shot"):
            table_report(alphas=(math.pi / 2,), phis=(0.5 * math.pi,), sampled=True,
                         shots_per_setting={0.5 * math.pi: 0})

    def test_sampled_cells_draw_from_distinct_keys(self, monkeypatch):
        keys = []

        def recording_seed_for(*key):
            keys.append(key)
            return seed_for(*key)

        monkeypatch.setattr(tomography, "seed_for", recording_seed_for)
        phis = (0.2 * math.pi, 0.5 * math.pi)
        table_report(alphas=(0.0, math.pi), phis=phis, sampled=True,
                     shots_per_setting=dict.fromkeys(phis, 5), seed=3)
        # each cell's counts key and its resampling key, one generator each
        cells = [k for k in keys if k[1] == SeedDomain.TABLE_CELLS]
        resampling = [k for k in keys if k[1] == SeedDomain.TABLE_RESAMPLING]
        assert cells and len(resampling) == len(cells) == len(keys) / 2
        assert all(len(k) == 5 for k in keys) and len(set(keys)) == len(keys)
        # distinct keys must also seed distinct streams
        states = {tuple(np.random.SeedSequence(k[0], spawn_key=k[1:]).generate_state(4))
                  for k in keys}
        assert len(states) == len(keys)


SHOT_CALLS = {
    "state_tomography": lambda n: state_tomography(encode(0.0).to_density(), (0, 1, 2, 3),
                                                   shots_per_setting=n),
    "table_report": lambda n: table_report((0.0,), (0.5 * math.pi,), sampled=True,
                                           shots_per_setting={0.5 * math.pi: n}),
    "process_tomography": lambda n: process_tomography(0.5 * math.pi, 0, shots=n),
}


class TestShotCounts:
    @pytest.mark.parametrize("call", SHOT_CALLS.values(), ids=SHOT_CALLS.keys())
    def test_non_integer_count_rejected(self, call):
        # multinomial used to truncate 2.5 to 2 draws, normalised by 2.5
        with pytest.raises(ValueError, match="integer"):
            call(2.5)

    @pytest.mark.parametrize("call", SHOT_CALLS.values(), ids=SHOT_CALLS.keys())
    def test_numpy_integer_count_accepted(self, call):
        call(np.int64(3))
