"""Kraus maps: branch maps, Choi conversion, depolarizing model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qloss.channels import (ChoiMatrix, DegenerateRateError, NoiseModel, _extended_pauli,
                            branch_maps, channel_to_choi, depolarize_one,
                            mixing_probability, qnd_noise_mixture, record_qubit)
from qloss.protocol import _code, encode
from qloss.qudit import DensityOperator, PauliString, PureState, expectation, make_state

COMP = np.diag([1.0, 1.0, 0.0])


class TestBranchMaps:
    def test_zero_angle(self):
        e0, e1 = branch_maps(0.0)
        assert np.allclose(e0, COMP)
        assert np.allclose(e1, 0.0)

    def test_full_angle(self):
        e0, e1 = branch_maps(math.pi)
        k0 = np.zeros((3, 3))
        k0[1, 1] = 1.0
        k1 = np.zeros((3, 3))
        k1[2, 0] = 1.0
        assert np.allclose(e0, k0, atol=1e-12)
        assert np.allclose(e1, k1, atol=1e-12)

    def test_completeness_on_computational_subspace(self):
        e0, e1 = branch_maps(0.3 * math.pi)
        total = e0.conj().T @ e0 + e1.conj().T @ e1
        assert np.max(np.abs(total - COMP)) < 1e-12

    @pytest.mark.parametrize("phi", np.linspace(0.0, math.pi, 20))
    def test_branch_probability_identity(self, phi):
        # Tr(E1(rho)) = (1/2) sin^2(phi/2) for both logical basis states
        _, e1 = branch_maps(phi)
        for alpha in (0.0, math.pi):
            rho = encode(alpha).to_density()
            out = rho.apply_operator(e1, (0,))
            assert out.trace() == pytest.approx(0.5 * math.sin(phi / 2) ** 2,
                                                abs=1e-12)


class TestChoi:
    def test_identity_channel(self):
        choi = channel_to_choi([np.eye(2)])
        expected = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [1, 0, 0, 1]])
        assert np.allclose(choi.matrix, expected)
        assert choi.trace() == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", [0.1, 0.3 * math.pi, 2.5])
    def test_no_loss_branch_choi(self, phi):
        e0, _ = branch_maps(phi)
        choi = channel_to_choi([e0])
        c = math.cos(phi / 2)
        expected = 0.5 * np.array([[c**2, 0, 0, c], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [c, 0, 0, 1]])
        assert np.allclose(choi.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.1, 0.53 * math.pi, 3.0])
    def test_loss_branch_choi_lands_in_dark_cell(self, phi):
        _, e1 = branch_maps(phi)
        choi = channel_to_choi([e1])
        expected = np.zeros((4, 4))
        expected[2, 2] = 0.5 * math.sin(phi / 2) ** 2  # |10><10| cell
        assert np.allclose(choi.matrix, expected, atol=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_choi_positivity_of_random_kraus_sets(self, seed):
        rng = np.random.default_rng(seed)
        n_kraus = int(rng.integers(1, 4))
        ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
              for _ in range(n_kraus)]
        # rescale to be trace-non-increasing
        total = sum(k.conj().T @ k for k in ks)
        scale = math.sqrt(np.linalg.eigvalsh(total).max()) or 1.0
        choi = channel_to_choi([k / scale for k in ks])
        assert np.max(np.abs(choi.matrix - choi.matrix.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(choi.matrix).min() > -1e-9


class TestRecordQubit:
    def test_leak_reads_dark(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rec = record_qubit(rho)
        assert np.allclose(rec, np.diag([0.2, 0.8]))

    def test_coherence_to_leak_is_dropped(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = rho[2, 2] = 0.5
        rho[0, 2] = rho[2, 0] = 0.5
        rec = record_qubit(rho)
        assert np.allclose(rec, np.diag([0.5, 0.5]))

    def test_hidden_levels_dims5(self):
        rho = np.diag([0.0, 0.0, 0.1, 0.4, 0.5]).astype(complex)
        rec = record_qubit(rho)
        assert np.allclose(rec, np.diag([0.5, 0.5]))  # H1 bright, H0/2 dark


class TestDepolarizeOne:
    def test_single_qubit_ground(self):
        rho = make_state(1, 3, [0]).to_density()
        out = depolarize_one(rho, 0)
        assert np.allclose(out.mat, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_maximally_mixed_fixed_point(self):
        rho = DensityOperator(1, 3, np.diag([0.5, 0.5, 0.0]).astype(complex))
        out = depolarize_one(rho, 0)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_leak_population_untouched(self):
        rho = make_state(1, 3, [2]).to_density()
        out = depolarize_one(rho, 0)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_ghz_stabilizer_killed_by_brute_force_oracle(self):
        # 3-qubit GHZ; depolarizing qubit 1 sends <XXX> to 0
        amps = np.zeros(27, dtype=complex)
        amps[0] = amps[13] = 1 / math.sqrt(2)  # |000> + |111>
        rho = PureState(3, 3, amps).to_density()
        xxx = PauliString(("X", "X", "X"))
        assert expectation(rho, xxx) == pytest.approx(1.0)

        # oracle: independent four-Pauli sum on the embedded matrices
        paulis = [np.eye(3, dtype=complex)]
        for letter in "XYZ":
            m = np.zeros((3, 3), dtype=complex)
            m[:2, :2] = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]],
                         "Z": [[1, 0], [0, -1]]}[letter]
            m[2, 2] = 1.0  # unitary extension on the loss level
            paulis.append(m)
        acc = np.zeros_like(rho.mat)
        for p in paulis:
            full = np.kron(np.kron(p, np.eye(3)), np.eye(3))
            acc += 0.25 * full @ rho.mat @ full.conj().T
        oracle = DensityOperator(3, 3, acc)

        out = depolarize_one(rho, 0)
        assert np.allclose(out.mat, oracle.mat, atol=1e-12)
        assert expectation(out, xxx) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dims, n_ions", [(3, 1), (3, 3), (3, 5), (5, 1), (5, 3)])
    def test_equals_four_pauli_kraus_sum(self, dims, n_ions):
        # the dense reference: each extended Pauli through apply_operator
        rng = np.random.default_rng(dims * 10 + n_ions)
        side = dims**n_ions
        a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        rho = DensityOperator(n_ions, dims, a @ a.conj().T / np.trace(a @ a.conj().T))
        for qubit in range(n_ions):
            ref = sum(0.25 * rho.apply_operator(_extended_pauli(letter, dims), (qubit,)).mat
                      for letter in "IXYZ")
            out = depolarize_one(rho, qubit).mat
            assert np.max(np.abs(out - ref)) <= 1e-12

    @pytest.mark.parametrize("dims", [3, 5])
    def test_extended_paulis_are_fixed_read_only_unitaries(self, dims):
        for letter in "IXYZ":
            m = _extended_pauli(letter, dims)
            assert m is _extended_pauli(letter, dims) and not m.flags.writeable
            assert np.allclose(m.conj().T @ m, np.eye(dims), atol=1e-12)


class TestNoiseMixture:
    def test_mixing_probability_values(self):
        assert mixing_probability(math.pi, 0.033) == pytest.approx(0.033 / 0.533)
        assert mixing_probability(0.5 * math.pi, 0.033) == pytest.approx(
            0.033 / (0.033 + 0.25))
        assert mixing_probability(0.4, 0.0) == 0.0

    def test_degenerate_rate(self):
        with pytest.raises(DegenerateRateError):
            mixing_probability(0.0, 0.0)

    def test_disabled_model_is_identity(self):
        rho = make_state(2, 3, [0, 1]).to_density()
        out = qnd_noise_mixture(rho, 0.3, NoiseModel(), (0, 1))
        assert np.allclose(out.mat, rho.mat)

    def test_p_qnd_zero_leaves_state(self):
        rho = make_state(2, 3, [0, 1]).to_density()
        model = NoiseModel(p_qnd=0.0, mode="depolarizing_per_qubit")
        out = qnd_noise_mixture(rho, 0.3, model, (0, 1))
        assert np.allclose(out.mat, rho.mat)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
        m = m @ m.conj().T
        rho = DensityOperator(3, 3, m / np.trace(m))
        model = NoiseModel(p_qnd=0.05, mode="depolarizing_per_qubit")
        out = qnd_noise_mixture(rho, 0.2 * math.pi, model, (0, 1, 2))
        assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_code_space_population_against_closed_form(self):
        # ideal 3-qubit |1_L>; the mixture sends P_CS to 1 - 2p/3:
        # depolarizing either qubit carrying both generators leaves 1/4,
        # the third (logical-X) qubit leaves 1/2, so the sum is p/3 * 1.
        from qloss.protocol import code_space_population
        amps = np.zeros(27, dtype=complex)
        amps[1] = amps[12] = 1 / math.sqrt(2)  # |001> + |110>
        rho = PureState(3, 3, amps).to_density()
        code = _code("three_qubit", 3, (0, 1, 2))
        model = NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit")
        for phi in (0.1 * math.pi, 0.5 * math.pi):
            p = mixing_probability(phi, 0.033)
            out = qnd_noise_mixture(rho, phi, model, (0, 1, 2))
            assert code_space_population(out, code) == pytest.approx(1 - 2 * p / 3,
                                                                     abs=1e-12)


class TestKrausApplication:
    """Branch maps applied to register states through ``apply_operator``."""

    def test_identity(self):
        rho = make_state(2, 3, [0, 1]).to_density()
        out = rho.apply_operator(np.eye(3), (1,))
        assert np.allclose(out.mat, rho.mat)

    def test_no_loss_branch_trace(self):
        e0, _ = branch_maps(math.pi / 2)
        rho = encode(0.0).to_density()
        out = rho.apply_operator(e0, (0,))
        assert out.trace() == pytest.approx(
            1 - 0.5 * math.sin(math.pi / 4) ** 2)  # = 3/4

    def test_loss_then_no_loss_annihilates(self):
        e0, e1 = branch_maps(1.1)
        # Kraus product oracle: E0 K after E1 K is the zero matrix
        assert np.allclose(e0 @ e1, 0.0)
        rho = make_state(1, 3, [0]).to_density()
        out = rho.apply_operator(e1, (0,)).apply_operator(e0, (0,))
        assert np.max(np.abs(out.mat)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_state(2, 3, [0, 0]).to_density().apply_operator(np.eye(3), (0, 1))
