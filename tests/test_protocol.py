"""Full loss detection/correction program: encoding, branching, reconstruction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from qloss.channels import NoiseModel, _extended_pauli, mixing_probability
from qloss.gates import (GateKind, Register, _transfer_pulses, collective_rotation,
                         compile_gate, loss_rotation)
from qloss.protocol import (SURVIVING_QUBITS, PauliFrame,
                            ProtocolError, _code, _detect, _explicit_key, _explicit_state,
                            _shrunk_correct,
                            _sweep_readout, analytic_run, apply_frame_correction, apply_loss,
                            code_space_projector, detection_ops, detection_sweep, encode,
                            encode_ops, four_qubit_code, frame_update, logical_target,
                            measure_shrunk_stabilizer, qnd_detect, qnd_detect_density,
                            records_to_jsonl, run_protocol, seed_for,
                            shrunk_stabilizer, three_qubit_code)
from qloss.qudit import (ContractViolation, DensityOperator, Level, PauliString, PureState,
                         apply_unitary, make_state, partial_trace, pure_expectation,
                         readout_partition, truncated_pauli)


def squared_overlap(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(np.vdot(a.amps, b.amps)) ** 2


S1X_LAW = lambda phi: 4 * math.cos(phi / 2) / (3 + math.cos(phi))


def plus_i_logical_with_ancilla() -> PureState:
    return logical_target(math.pi / 2)


class TestCodes:
    def test_validation(self):
        four_qubit_code().validate()
        three_qubit_code().validate()

    def test_builder_validates(self):
        # a repeated first qubit leaves a lone Z that anticommutes with the X check
        with pytest.raises(ValueError, match="do not commute"):
            _code("three_qubit", 5, (0, 0, 1))

    def test_ty_is_i_tx_tz(self):
        for code in (four_qubit_code(), three_qubit_code()):
            tx = code.logicals["TX"].embedded(3)
            tz = code.logicals["TZ"].embedded(3)
            ty = code.logicals["TY"].embedded(3)
            assert np.allclose(ty, 1j * tx @ tz, atol=1e-12)

    def test_four_qubit_generators(self):
        code = four_qubit_code()
        assert str(code.stabilizers["S1Z"]) == "ZZIII"
        assert str(code.stabilizers["S2Z"]) == "ZIZII"
        assert str(code.stabilizers["S1X"]) == "XXXXI"
        assert str(code.logicals["TZ"]) == "ZIIZI"
        assert str(code.logicals["TX"]) == "IIIXI"

    def test_three_qubit_generators(self):
        code = three_qubit_code()
        assert str(code.stabilizers["S1Z"]) == "IZZII"
        assert str(code.stabilizers["S1X"]) == "IXXXI"
        assert str(code.logicals["TZ"]) == "IZIZI"


class TestEncode:
    def test_basis_states(self):
        ghz0 = encode(0.0)
        assert squared_overlap(ghz0, logical_target(0.0)) == pytest.approx(1.0, abs=1e-12)
        ghz1 = encode(math.pi)
        assert squared_overlap(ghz1, logical_target(math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_plus_i(self):
        assert squared_overlap(encode(math.pi / 2), plus_i_logical_with_ancilla()) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", np.linspace(0, 2 * math.pi, 9))
    def test_alpha_grid(self, alpha):
        assert squared_overlap(encode(alpha), logical_target(alpha)) == \
            pytest.approx(1.0, abs=1e-10)

    def test_uses_only_toolbox_gates(self):
        kinds = {op.kind for op in encode_ops(1.0)}
        assert kinds <= {GateKind.MS_X, GateKind.COLLECTIVE_R, GateKind.ADDRESSED_Z}

    def test_ancilla_stays_in_ground(self):
        state = encode(1.2)
        pops = state.level_populations(4)
        assert pops[0] == pytest.approx(1.0, abs=1e-12)


class TestQndDetect:
    def test_loss_branch_of_logical_zero(self):
        state = apply_loss(encode(0.0), 0.7)
        det = qnd_detect(state, force_branch="loss")
        assert det.probability == pytest.approx(0.5 * math.sin(0.35) ** 2, abs=1e-12)
        target = make_state(5, 3, [2, 0, 0, 0, 1])
        assert squared_overlap(det.state, target) == pytest.approx(1.0, abs=1e-12)

    def test_no_loss_at_zero_angle_is_identity(self):
        state = encode(math.pi / 2)
        det = qnd_detect(apply_loss(state, 0.0), force_branch="no_loss")
        assert det.probability == pytest.approx(1.0, abs=1e-12)
        assert squared_overlap(det.state, state) == pytest.approx(1.0, abs=1e-12)

    def test_no_loss_branch_matches_paper_ket(self):
        phi = 0.8
        c = math.cos(phi / 2)
        det = qnd_detect(apply_loss(encode(math.pi / 2), phi),
                         force_branch="no_loss")
        amps = np.zeros(3**5, dtype=complex)

        def at(*lv):
            i = 0
            for l in lv:
                i = 3 * i + l
            return i

        amps[at(0, 0, 0, 0, 0)] = c
        amps[at(0, 0, 0, 1, 0)] = 1j * c
        amps[at(1, 1, 1, 1, 0)] = 1.0
        amps[at(1, 1, 1, 0, 0)] = 1j
        amps /= np.linalg.norm(amps)
        assert squared_overlap(det.state, PureState(5, 3, amps)) == pytest.approx(1.0,
                                                                                 abs=1e-10)

    def test_ancilla_leak_guard(self):
        state = make_state(5, 3, [0, 0, 0, 0, 2])
        with pytest.raises(ProtocolError):
            qnd_detect(state, force_branch="no_loss")

    @pytest.mark.parametrize("n,dims,level", [(2, 3, 2), (5, 5, 2), (5, 5, 3), (5, 5, 4)])
    def test_detect_guards_the_last_ion_of_its_support(self, n, dims, level):
        # the two-ion register of process tomography, and the explicit-hiding
        # sweep's whole five-level register with the ancilla last
        with pytest.raises(ProtocolError, match="ancilla"):
            _detect(make_state(n, dims, [0] * (n - 1) + [level]), tuple(range(n)))

    @pytest.mark.parametrize("alpha", [0.0, math.pi, math.pi / 2])
    @pytest.mark.parametrize("phi", np.linspace(0.1, math.pi, 7))
    def test_branch_probability_against_projection_oracle(self, alpha, phi):
        # oracle: build the state analytically, rotate qubit 1 with the
        # loss matrix, and read the |2> population directly
        target = logical_target(alpha)
        lossed = target.amps.reshape(3, -1).copy()
        mat = compile_gate(loss_rotation(phi, 0), 3)
        lossed = np.tensordot(mat, lossed, axes=([1], [0]))
        p_leak_oracle = float(np.sum(np.abs(lossed[2]) ** 2))

        p_l, _, p_nl, _ = qnd_detect_density(
            apply_loss(encode(alpha), phi).to_density())
        assert p_l == pytest.approx(p_leak_oracle, abs=1e-12)
        assert p_l == pytest.approx(0.5 * math.sin(phi / 2) ** 2, abs=1e-12)
        assert p_l + p_nl == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10**6), rank=st.integers(1, 4),
           trace=st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_branch_probabilities_sum_to_input_trace(self, seed, rank, trace):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3**5, rank)) + 1j * rng.normal(size=(3**5, rank))
        mat = g @ g.conj().T
        rho = DensityOperator(5, 3, trace * mat / np.trace(mat).real)
        p_l, rho_l, p_nl, rho_nl = qnd_detect_density(rho)
        assert 0.0 <= p_l <= 1.0 and 0.0 <= p_nl <= 1.0
        assert (p_l + p_nl) * trace == pytest.approx(rho.trace(), abs=1e-12)
        for p, branch in ((p_l, rho_l), (p_nl, rho_nl)):
            if p > 1e-12:
                assert branch.trace() == pytest.approx(1.0, abs=1e-12)


class TestShrunkStabilizer:
    def loss_state(self, alpha=0.0, phi=0.9):
        det = qnd_detect(apply_loss(encode(alpha), phi), force_branch="loss")
        return det.state

    def test_projector_arithmetic_oracle(self):
        # |2>|000>|1>: both outcomes equally likely, +1 branch gives the
        # 3-qubit GHZ; oracle built from the raw projector
        state = self.loss_state(0.0)
        stab = shrunk_stabilizer().embedded(3)
        plus = 0.5 * (state.amps + stab @ state.amps)
        assert np.vdot(plus, plus).real == pytest.approx(0.5, abs=1e-12)

        out, post, p = measure_shrunk_stabilizer(state, "exact", force_outcome=+1)
        assert p == pytest.approx(0.5, abs=1e-12)
        red = partial_trace(post.to_density(), (1, 2, 3))
        tgt = logical_target(0.0, 3, qubits=(0, 1, 2))
        fid = float(np.real(np.vdot(tgt.amps, red.mat @ tgt.amps)))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def plus_rearmed(self) -> tuple[PureState, PureState]:
        """A +1 post state, and that state with its loss flag re-armed
        (ancilla |0> -> |1>) for a second shrunk measurement."""
        _, plus_state, _ = measure_shrunk_stabilizer(self.loss_state(0.0), "exact",
                                                     force_outcome=+1)
        return plus_state, apply_unitary(
            plus_state, compile_gate(collective_rotation("X", math.pi, (4,)), 3), (4,))

    def test_plus_eigenstate_input_unchanged(self):
        # outcome +1 with certainty, code state unchanged
        plus_state, rearmed = self.plus_rearmed()
        out, post, p = measure_shrunk_stabilizer(rearmed, "exact", force_outcome=+1)
        assert out == +1 and p == pytest.approx(1.0, abs=1e-12)
        assert squared_overlap(post, plus_state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    def test_forcing_zero_probability_outcome_is_contract_violation(self, mode):
        # outcome -1 has probability 0 on a re-armed +1 state
        _, rearmed = self.plus_rearmed()
        with pytest.raises(ContractViolation, match="zero-probability"):
            measure_shrunk_stabilizer(rearmed, mode, force_outcome=-1)

    def test_requires_loss_branch(self):
        state = encode(0.0)  # ancilla |0>: not a loss branch
        with pytest.raises(ProtocolError):
            measure_shrunk_stabilizer(state, "exact", force_outcome=+1)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2, 2.9])
    @pytest.mark.parametrize("outcome", [+1, -1])
    def test_toolbox_matches_exact(self, alpha, outcome):
        state = self.loss_state(alpha, phi=0.5)
        o1, s1, p1 = measure_shrunk_stabilizer(state, "exact", force_outcome=outcome)
        o2, s2, p2 = measure_shrunk_stabilizer(state, "toolbox", force_outcome=outcome)
        assert o1 == o2 == outcome
        assert p1 == pytest.approx(p2, abs=1e-10)
        assert squared_overlap(s1, s2) == pytest.approx(1.0, abs=1e-10)


    @pytest.mark.parametrize("dims", [3, 5])
    def test_combined_branches_equal_dense_products(self, dims):
        # the reference: (1 +- S)/2 and the frame's Z as sparse matrices, the
        # kron of each word's truncated letters
        def word(pauli):
            mat = sparse.csr_matrix([[1 + 0j]])
            for letter in pauli.letters:
                mat = sparse.kron(mat, truncated_pauli(letter, dims), format="csr")
            return mat

        rng = np.random.default_rng(dims)
        side = dims**5
        eye, stab = sparse.identity(side, format="csr"), word(shrunk_stabilizer())
        plus, minus = 0.5 * (eye + stab), 0.5 * (eye - stab)
        z = word(PauliFrame(-1).correction())
        # the kernel is linear, so any matrix will do: one on the whole register,
        # and one on a product of level sets, which the kernel runs on the block
        # that keeps the surviving qubits whole
        full = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        levels = [{1, 2}, {0, 1}, {0, 2}, None, {1}]
        keep = np.ones(1, dtype=bool)
        for ion_levels in levels:
            keep = np.kron(keep, [ion_levels is None or l in ion_levels for l in range(dims)])
        block = np.where(np.outer(keep, keep), full, 0)
        for rho in (full, block):
            err = _shrunk_correct(rho, dims)
            err -= plus @ rho @ plus
            err -= z @ (minus @ rho @ minus) @ z.conj().T
            assert np.max(np.abs(err)) <= 1e-12


class TestPauliFrame:
    def test_plus_one_identity(self):
        frame = frame_update(PauliFrame(), +1)
        assert frame.sx_sign == 1 and frame.correction() is None

    def test_double_flip_is_identity(self):
        frame = frame_update(frame_update(PauliFrame(), -1), -1)
        assert frame == PauliFrame()

    def test_minus_branch_frame_adjusted_observables(self):
        # oracle: explicit Z on the first surviving qubit
        state = qnd_detect(apply_loss(encode(0.0), 1.1), force_branch="loss").state
        out, post, _ = measure_shrunk_stabilizer(state, "exact", force_outcome=-1)
        frame = frame_update(PauliFrame(), out)
        fixed = apply_frame_correction(post, frame)
        code = three_qubit_code()
        rho = fixed.to_density()
        from qloss.qudit import expectation
        assert expectation(rho, code.stabilizers["S1X"]) == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho, code.stabilizers["S1Z"]) == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho, code.logicals["TZ"]) == pytest.approx(1.0, abs=1e-12)


class TestAnalyticRun:
    def test_eq_s15_law_50_points(self):
        for phi in np.linspace(0.0, math.pi, 50):
            res = analytic_run(math.pi / 2, phi)
            assert res.no_loss.observables["S1X"] == pytest.approx(S1X_LAW(phi),
                                                                   abs=1e-10)

    def test_small_angle_expansion(self):
        for phi in np.linspace(0.01, 0.1, 10):
            assert abs(S1X_LAW(phi) - (1 - phi**4 / 128)) < 1e-6
            res = analytic_run(math.pi / 2, phi)
            assert abs(res.no_loss.observables["S1X"] - (1 - phi**4 / 128)) < 1e-6

    @pytest.mark.parametrize("phi", np.linspace(0.0, math.pi, 9))
    def test_qnd_property(self, phi):
        res = analytic_run(math.pi / 2, phi)
        assert abs(res.no_loss.observables["S1Z"] - 1.0) < 1e-10
        assert abs(res.no_loss.observables["S2Z"] - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", np.linspace(0, 2 * math.pi, 8, endpoint=False))
    @pytest.mark.parametrize("phi", [0.1 * math.pi, 0.2 * math.pi, 0.5 * math.pi])
    def test_reconstruction_exactness(self, alpha, phi):
        res = analytic_run(alpha, phi)
        assert res.loss.fidelity >= 1 - 1e-10
        assert res.loss.observables["S1X"] == pytest.approx(1.0, abs=1e-10)
        assert res.loss.observables["S1Z"] == pytest.approx(1.0, abs=1e-10)

    def test_no_loss_only_at_zero_angle(self):
        res = analytic_run(math.pi / 2, 0.0)
        assert res.no_loss.probability == pytest.approx(1.0)
        assert res.loss.probability == pytest.approx(0.0, abs=1e-14)
        assert res.no_loss.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_noise_trend_on_logical_one(self):
        model = NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit")
        pcs = [analytic_run(math.pi, phi, model).loss.observables["P_CS"]
               for phi in (0.1 * math.pi, 0.2 * math.pi, 0.5 * math.pi)]
        assert pcs[0] < pcs[1] < pcs[2]


class TestTrajectories:
    def test_branch_frequency(self):
        res = run_protocol(0.0, 0.5 * math.pi, shots=2000, seed=11)
        counts = res.branch_counts()
        freq = counts["loss"] / 2000
        sigma = math.sqrt(0.25 * 0.75 / 2000)
        assert abs(freq - 0.25) < 4 * sigma

    @pytest.mark.parametrize("shots", [-1, -3])
    def test_negative_shots_raise(self, shots):
        with pytest.raises(ValueError, match="shots"):
            run_protocol(0.3, 0.4, shots=shots)

    def test_seed_determinism(self):
        a = run_protocol(0.3, 0.4, shots=50, seed=9)
        b = run_protocol(0.3, 0.4, shots=50, seed=9)
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(p_qnd=0.2, mode="depolarizing_per_qubit")])
    def test_records_equal_shot_by_shot_reference(self, mode, noise):
        """Each record equals one shot simulated on its own with the per-shot calls."""
        phi, seed, shots = 1.9, 3, 60
        res = run_protocol(math.pi / 2, phi, shots=shots, noise=noise, seed=seed,
                           shrunk_mode=mode)
        lost = apply_loss(encode(math.pi / 2), phi)
        for shot, rec in enumerate(res.records):
            rng = seed_for(seed, shot)
            det = qnd_detect(lost, rng)
            state, frame, shrunk = det.state, PauliFrame(), None
            if det.branch == "loss":
                shrunk, state, _ = measure_shrunk_stabilizer(state, mode, rng)
                frame = frame_update(frame, shrunk)
                state = apply_frame_correction(state, frame)
                code = three_qubit_code()
            else:
                code = four_qubit_code()
            if noise.enabled and det.branch == "loss" \
                    and rng.random() < mixing_probability(phi, noise.p_qnd):
                qubit = SURVIVING_QUBITS[rng.integers(len(SURVIVING_QUBITS))]
                letter = "IXYZ"[rng.integers(4)]
                if letter != "I":
                    state = apply_unitary(state, _extended_pauli(letter, 3), (qubit,))
            obs = {name: 1.0 if rng.random() < 0.5 * (1 + pure_expectation(state, p))
                   else -1.0 for name, p in code.all_observables().items()}
            proj = code_space_projector(code.stabilizers.values(), 3)
            p_cs = float(np.real(np.vdot(state.amps, proj @ state.amps)))
            obs["P_CS"] = 1.0 if rng.random() < p_cs else 0.0
            assert (rec.branch, rec.ancilla_outcome, rec.shrunk_outcome, rec.frame_sx,
                    rec.observables) == (det.branch, det.ancilla_outcome, shrunk,
                                         frame.sx_sign, obs)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    def test_shots_do_not_depend_on_one_another(self, mode):
        noise = NoiseModel(p_qnd=0.08, mode="depolarizing_per_qubit")
        run = lambda shots: run_protocol(math.pi / 2, 0.9, shots=shots, seed=5,
                                         noise=noise, shrunk_mode=mode).records
        assert run(80)[:30] == run(30)

    def test_records_are_json_lines(self):
        res = run_protocol(0.3, 0.9, shots=20, seed=2)
        lines = records_to_jsonl(res.records).strip().splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert rec["branch"] in ("loss", "no_loss")
        assert (rec["branch"] == "loss") == (rec["ancilla_outcome"] == 1)

    def test_toolbox_mode_runs(self):
        res = run_protocol(math.pi / 2, 1.2, shots=100, seed=4,
                           shrunk_mode="toolbox")
        loss_recs = [r for r in res.records if r.branch == "loss"]
        assert loss_recs, "expected some loss branches"
        for rec in loss_recs:
            assert rec.observables["S1X"] == 1.0  # frame-corrected eigenstate

    def test_sampled_matches_analytic_2000_shots(self):
        res = run_protocol(math.pi / 2, 0.5 * math.pi, shots=2000, seed=21)
        for branch in ("no_loss", "loss"):
            summary = res.no_loss if branch == "no_loss" else res.loss
            means = res.sampled_means(branch)
            n = res.branch_counts()[branch]
            for name, target in summary.observables.items():
                if name == "P_CS":
                    sigma = math.sqrt(max(target * (1 - target), 0.0) / n)
                else:
                    sigma = math.sqrt(max(1 - target**2, 0.0) / n)
                assert abs(means[name] - target) <= 4 * sigma + 1e-12, \
                    (branch, name, means[name], target)

    def test_noise_unraveling_matches_mixture(self):
        model = NoiseModel(p_qnd=0.08, mode="depolarizing_per_qubit")
        res = run_protocol(math.pi, 0.5 * math.pi, shots=4000, seed=13, noise=model)
        means = res.sampled_means("loss")
        target = res.loss.observables["P_CS"]
        n = res.branch_counts()["loss"]
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(means["P_CS"] - target) <= 4 * sigma


class TestDetectionSweep:
    GRID = [i * math.pi / 10 for i in range(11)]

    def test_analytic_mode_is_exact(self):
        res = detection_sweep(self.GRID, shots=0, analytic=True, register=5)
        for row in res.rows:
            assert row.detected_loss == pytest.approx(math.sin(row.phi / 2) ** 2)
            assert row.direct_loss == row.detected_loss
            assert row.false_positive_rate == 0.0
            assert row.false_negative_rate == 0.0
        assert res.efficiency == 1.0

    @pytest.mark.parametrize("register", [2, 5])
    def test_ideal_sampled_registers_agree_with_induced(self, register):
        shots = 200
        res = detection_sweep(self.GRID, shots=shots, seed=5, register=register)
        assert res.efficiency == 1.0  # exact branch correlation, no error model
        for row in res.rows:
            induced = math.sin(row.phi / 2) ** 2
            sigma = math.sqrt(max(induced * (1 - induced), 1e-12) / shots)
            assert abs(row.detected_loss - induced) <= 4 * sigma + 1e-9

    def test_full_loss_endpoint(self):
        res = detection_sweep([math.pi], shots=100, seed=1, register=2)
        assert res.rows[0].direct_loss == 1.0
        assert res.rows[0].detected_loss == 1.0

    def test_two_ion_register_immune_to_addressing_error(self):
        res = detection_sweep(self.GRID, shots=100, seed=8, register=2,
                              addressing_error=0.05)
        assert res.efficiency == 1.0

    def test_mask_mode_efficiency_calibration(self):
        # closed-form oracle: a hide exposes its ion when either of its two
        # transfer pulses fails; an odd number of exposed spectators flips
        # the assignment in every shot
        eps = 0.0056
        p_exp = 1 - (1 - eps) ** 2
        p_odd = 3 * p_exp * (1 - p_exp) ** 2 + p_exp**3
        expected = 1 - p_odd  # = 0.9672...
        grid = [i * math.pi / 20 for i in range(21)]
        shots = 200
        res = detection_sweep(grid, shots=shots, seed=3, register=5,
                              addressing_error=eps)
        n_total = shots * len(grid)
        sigma = math.sqrt(expected * (1 - expected) / n_total)
        assert abs(res.efficiency - expected) <= 4 * sigma
        assert abs(res.efficiency - 0.965) <= 0.02  # the quoted figure

    def test_explicit_mode_calibrated_efficiency(self):
        # per-pulse rate fitted so that the five-level pulse model lands at
        # the same quoted efficiency (only the |0>-transfer is load-bearing
        # for ground-state spectators)
        eps = 0.0118
        p_odd = 3 * eps * (1 - eps) ** 2 + eps**3
        expected = 1 - p_odd  # = 0.9654...
        grid = [i * math.pi / 10 for i in range(11)]
        shots = 120
        res = detection_sweep(grid, shots=shots, seed=3, register=5,
                              addressing_error=eps, hiding="explicit")
        n_total = shots * len(grid)
        sigma = math.sqrt(expected * (1 - expected) / n_total)
        assert abs(res.efficiency - expected) <= 4 * sigma
        assert abs(res.efficiency - 0.965) <= 0.02

    @staticmethod
    def full_pattern_state(phi, fired):
        """Five-level hiding as simulated before the readout-visible key: all 12
        pulses (hide, detection, unhide), spectators 1-3 in their own order."""
        state = apply_loss(make_state(5, 5, [0] * 5), phi)
        p0, p1 = _transfer_pulses()

        def pulse_pair(st, bits):
            for ion, fire0, fire1 in zip((1, 2, 3), bits[0::2], bits[1::2]):
                if fire0:
                    st = apply_unitary(st, p0, (ion,))
                if fire1:
                    st = apply_unitary(st, p1, (ion,))
            return st

        reg = Register(pulse_pair(state, fired[:6]))
        reg.run(detection_ops(tuple(range(5))))
        return pulse_pair(reg.state, fired[6:])

    @pytest.mark.parametrize("phi", [0.3 * math.pi, math.pi / 2, 0.9 * math.pi])
    def test_memo_key_keeps_the_readout_bit_identical(self, phi):
        rng = np.random.default_rng(round(phi * 1000))
        patterns = {(True,) * 12}
        while len(patterns) < 41:
            patterns.add(tuple(bool(b) for b in rng.integers(0, 2, 12)))
        partition = readout_partition(5)
        for fired in patterns:
            full = _sweep_readout(self.full_pattern_state(phi, fired), 4, partition)
            keyed = _sweep_readout(_explicit_state(phi, 5, _explicit_key(fired)), 4,
                                   partition)
            assert np.array_equal(full[0], keyed[0])
            assert full[1].keys() == keyed[1].keys()
            for outcome, levels in full[1].items():
                assert np.array_equal(levels, keyed[1][outcome])
        assert len({_explicit_key(fired) for fired in patterns}) < len(patterns)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=0, register=5)
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=10, register=3)
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=10, register=5, hiding="telepathy")

    @pytest.mark.parametrize("analytic", [False, True])
    def test_empty_grid_raises(self, analytic):
        with pytest.raises(ValueError, match="must not be empty"):
            detection_sweep([], shots=10, analytic=analytic)


class TestSeeding:
    def test_seed_for_is_pure(self):
        a = seed_for(5, 1, 2).random(4)
        b = seed_for(5, 1, 2).random(4)
        assert np.array_equal(a, b)
        c = seed_for(5, 2, 1).random(4)
        assert not np.array_equal(a, c)
        # the stream of default_rng(SeedSequence(key))
        ref = np.random.default_rng(np.random.SeedSequence((5, 1, 2))).random(4)
        assert np.array_equal(a, ref)
