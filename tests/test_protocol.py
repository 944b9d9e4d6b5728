"""Full loss detection/correction program: encoding, branching, reconstruction."""

import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from qloss.channels import NoiseModel, _extended_pauli, mixing_probability
from qloss.gates import (GateKind, Register, collective_rotation, compile_gate,
                         loss_rotation)
import qloss.protocol as protocol
from qloss.protocol import (ANCILLA, SURVIVING_QUBITS, PauliFrame,
                            ProtocolError, _code, _code_observables, _detect,
                            _detection_unit, _fidelity_with_pure,
                            _HIT_CODES, _leaf, _noise_hits, _outcome_thresholds,
                            _shrunk_correct, _shrunk_split,
                            _sweep_readout, analytic_run, apply_frame_correction, apply_loss,
                            code_space_projector, detection_ops, detection_sweep, encode,
                            encode_ops, four_qubit_code, frame_update, logical_target,
                            measure_shrunk_stabilizer, qnd_detect, qnd_detect_density,
                            records_to_jsonl, run_protocol, seed_for,
                            shrunk_stabilizer, three_qubit_code)
from qloss.qudit import (ContractViolation, DensityOperator, Level, PauliString, PureState,
                         SeedDomain, apply_unitary, collapse, draw_outcome, make_state,
                         partial_trace,
                         pure_expectation, readout_partition, truncated_pauli)
from reference import transfer_pulses


def squared_overlap(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(np.vdot(a.amps, b.amps)) ** 2


S1X_LAW = lambda phi: 4 * math.cos(phi / 2) / (3 + math.cos(phi))


class RowSlots:
    """Stands in for a generator: each ``random()`` returns the next given value."""

    def __init__(self, *values: float):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


#: a protocol shot's row: detection readout, shrunk readout, noise hit, its
#: qubit, its letter, then the outputs of the branch's code in order
PROTOCOL_ROW = 12


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
        on_block = DensityOperator(5, dims, block).block(SURVIVING_QUBITS)
        for rho, out in ((full, _shrunk_correct(DensityOperator(5, dims, full))),
                         (block, _shrunk_correct(on_block).register())):
            err = out.mat
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

    @pytest.mark.parametrize("phi,shots", [(0.5 * math.pi, 0), (0.0, 50)])
    def test_unknown_shrunk_mode_raises_without_a_loss_shot(self, phi, shots):
        # no shot reaches the shrunk measurement here, so only an up-front check sees it
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            run_protocol(math.pi / 2, phi, shots=shots, shrunk_mode="bogus")

    def test_seed_determinism(self):
        a = run_protocol(0.3, 0.4, shots=50, seed=9)
        b = run_protocol(0.3, 0.4, shots=50, seed=9)
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(p_qnd=0.2, mode="depolarizing_per_qubit")])
    def test_records_equal_shot_by_shot_reference(self, mode, noise):
        """Each record equals one shot simulated on its own with the per-shot
        calls, each fed its slot of the shot's row."""
        phi, seed, shots = 1.9, 3, 60
        res = run_protocol(math.pi / 2, phi, shots=shots, noise=noise, seed=seed,
                           shrunk_mode=mode)
        lost = apply_loss(encode(math.pi / 2), phi)
        block = seed_for(seed, SeedDomain.PROTOCOL_SHOTS).random((shots, PROTOCOL_ROW))
        assert len(res.records) == shots
        for shot, (rec, row) in enumerate(zip(res.records, block.tolist())):
            det = qnd_detect(lost, RowSlots(row[0]))
            state, frame, shrunk = det.state, PauliFrame(), None
            if det.branch == "loss":
                shrunk, state, _ = measure_shrunk_stabilizer(state, mode, RowSlots(row[1]))
                frame = frame_update(frame, shrunk)
                state = apply_frame_correction(state, frame)
                code = three_qubit_code()
            else:
                code = four_qubit_code()
            if noise.enabled and det.branch == "loss" \
                    and row[2] < mixing_probability(phi, noise.p_qnd):
                qubit = SURVIVING_QUBITS[int(row[3] * len(SURVIVING_QUBITS))]
                letter = "IXYZ"[int(row[4] * 4)]
                if letter != "I":
                    state = apply_unitary(state, _extended_pauli(letter, 3), (qubit,))
            outputs = iter(row[5:])
            obs = {name: 1.0 if next(outputs) < 0.5 * (1 + pure_expectation(state, p))
                   else -1.0 for name, p in code.all_observables().items()}
            proj = code_space_projector(code.stabilizers.values(), 3)
            p_cs = float(np.real(np.vdot(state.amps, proj @ state.amps)))
            obs["P_CS"] = 1.0 if next(outputs) < p_cs else 0.0
            assert (rec.branch, rec.ancilla_outcome, rec.shrunk_outcome, rec.frame_sx,
                    rec.observables) == (det.branch, det.ancilla_outcome, shrunk,
                                         frame.sx_sign, obs)
            assert rec.shot == shot and rec.seed_key == f"({seed},0)[{shot}]"

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    def test_shots_do_not_depend_on_one_another(self, mode):
        noise = NoiseModel(p_qnd=0.08, mode="depolarizing_per_qubit")
        run = lambda shots: run_protocol(math.pi / 2, 0.9, shots=shots, seed=5,
                                         noise=noise, shrunk_mode=mode).records
        assert run(80)[:30] == run(30)

    def test_noise_hit_of_the_largest_uniform_stays_in_range(self):
        top = 1 - 2**-53  # the largest double that random() returns
        assert np.nextafter(1.0, 0.0) == top
        rows = np.full((3, PROTOCOL_ROW), top)
        rows[:2, 2] = 0.0   # rows 0 and 1 are hit, row 2 is not
        rows[1, 3:5] = 0.0  # the first qubit and the letter I: no hit after all
        codes = _noise_hits(0.5, rows).tolist()
        assert codes == [_HIT_CODES - 1, 0, 0]
        # the last code is a Z on the last surviving qubit
        lost = qnd_detect(apply_loss(encode(0.7), 1.3), force_branch="loss").state
        branches = (None, _shrunk_split(lost, "exact")[0])
        plain, hit = (_leaf(branches, "exact", 2 * _HIT_CODES + code)[0]
                      for code in (0, codes[0]))
        z = apply_unitary(plain, _extended_pauli("Z", 3), (SURVIVING_QUBITS[-1],))
        assert np.array_equal(hit.amps, z.amps)

    def test_branch_without_a_shot_has_no_sampled_means(self):
        res = run_protocol(0.3, 0.0, shots=20, seed=2)
        assert res.branch_counts() == {"loss": 0, "no_loss": 20}
        assert res.sampled_means("loss") == {}
        assert res.sampled_means("no_loss").keys() == res.no_loss.observables.keys()

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


def uncached_encoding(alpha):
    """``analytic_run``'s encoding observables computed afresh."""
    rho = encode(alpha).to_density()
    obs = _code_observables(rho, four_qubit_code())
    obs["fidelity"] = _fidelity_with_pure(rho, logical_target(alpha))
    return obs


def float_bytes(values):
    return [(k, np.float64(v).tobytes()) for k, v in values.items()]


def result_bytes(res):
    """Every number and matrix of an exact run, as bytes."""
    out = float_bytes(res.encoding)
    for summary in (res.no_loss, res.loss):
        out += float_bytes(summary.observables)
        out += float_bytes({"p": summary.probability, "fid": summary.fidelity})
    return out, res.rho_no_loss.mat.tobytes(), res.rho_loss.mat.tobytes()


class TestEncodingCache:
    """``analytic_run`` and ``run_protocol`` encode once per alpha (``_encoding``)."""

    def test_cached_state_is_read_only(self):
        psi, _ = protocol._encoding(0.7)
        assert not psi.amps.flags.writeable
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0
        assert psi.amps.tobytes() == encode(0.7).amps.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, math.pi, math.pi / 2, 0.7, 5.1])
    def test_encoding_is_the_uncached_encoding(self, alpha):
        protocol._encoding.cache_clear()
        want = float_bytes(uncached_encoding(alpha))
        # the miss, then the hits
        for phi in (0.3, 0.5 * math.pi, 0.3):
            assert float_bytes(analytic_run(alpha, phi).encoding) == want

    def test_returned_encoding_is_a_copy(self):
        first = analytic_run(0.7, 0.3).encoding
        want = float_bytes(first)
        first["S1X"] = 5.0
        first["extra"] = 1.0
        assert float_bytes(analytic_run(0.7, 0.3).encoding) == want
        assert float_bytes(analytic_run(0.7, 1.1).encoding) == want

    def test_signed_zero_alpha_shares_its_bytes(self):
        assert float_bytes(uncached_encoding(0.0)) == float_bytes(uncached_encoding(-0.0))
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            protocol._encoding.cache_clear()
            first, second = (result_bytes(analytic_run(a, 0.4)) for a in order)
            assert first == second

    def test_nan_alpha_raises_on_every_call(self):
        for _ in range(3):
            for run in (analytic_run, run_protocol):
                with pytest.raises(ValueError, match="COLLECTIVE_R angle must be finite"):
                    run(math.nan, 0.3)


def hit_weights(p_mix: float) -> dict[int, float]:
    """Weight of each hit code that ``_noise_hits`` can emit: none, then one per
    (surviving qubit, X/Y/Z).  Codes 1, 5 and 9 (the letter I) are no hit."""
    weights = {0: (1 - p_mix) + p_mix / 4}
    for q in range(len(SURVIVING_QUBITS)):
        weights.update({1 + 4 * q + letter: p_mix / 12 for letter in (1, 2, 3)})
    return weights


def leaf_tree(alpha, phi, noise, mode):
    """The branches ``_leaf`` reads and every leaf code with its exact weight:
    detection probability x shrunk probability x hit weight."""
    detected, sets, det_probs = _detection_unit(apply_loss(encode(alpha), phi))
    pre, shrunk_probs = _shrunk_split(collapse(detected, ANCILLA, sets[1]), mode)
    p_mix = mixing_probability(phi, noise.p_qnd) if noise.enabled else 0.0
    weights = {0: det_probs[0]}
    for pick, (hit, w) in itertools.product((0, 1), hit_weights(p_mix).items()):
        weights[(2 + pick) * _HIT_CODES + hit] = det_probs[1] * shrunk_probs[pick] * w
    return (collapse(detected, ANCILLA, sets[0]), pre), weights


@functools.lru_cache(maxsize=None)
def cached_analytic_run(alpha, phi, noise):
    return analytic_run(alpha, phi, noise)


LEAF_NOISES = {"off": NoiseModel(),
               "pqnd=0.033": NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit"),
               "pqnd=0.3": NoiseModel(p_qnd=0.3, mode="depolarizing_per_qubit")}


class TestLeafTree:
    """Every shot of ``run_protocol`` ends on a leaf that ``_leaf`` defines; the
    leaves, weighted exactly, are the density oracle."""

    @pytest.mark.parametrize("alpha", [0.0, math.pi, math.pi / 2, 0.7, 1.3])
    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    @pytest.mark.parametrize("noise", list(LEAF_NOISES))
    def test_leaf_average_is_the_analytic_run(self, noise, mode, alpha):
        model = LEAF_NOISES[noise]
        for phi in np.linspace(0.05 * math.pi, 1.95 * math.pi, 9):
            branches, weights = leaf_tree(alpha, phi, model, mode)
            sums = {"no_loss": {}, "loss": {}}
            probs = {"no_loss": 0.0, "loss": 0.0}
            for leaf, weight in weights.items():
                if weight == 0:
                    continue
                state, code, record = _leaf(branches, mode, leaf)
                branch, pick = record[0], leaf // _HIT_CODES % 2
                assert record == (("no_loss", 0, None, 1) if leaf == 0
                                  else ("loss", 1, 1 - 2 * pick, 1 - 2 * pick))
                probs[branch] += weight
                # an output reads 1 below its threshold, else its other value
                for name, p_one, other in _outcome_thresholds(state, code):
                    mean = p_one + (1 - p_one) * other
                    sums[branch][name] = sums[branch].get(name, 0.0) + weight * mean
            res = cached_analytic_run(alpha, float(phi), model)
            for branch, summary in (("no_loss", res.no_loss), ("loss", res.loss)):
                assert abs(probs[branch] - summary.probability) <= 1e-12
                assert sums[branch].keys() == summary.observables.keys()
                for name, total in sums[branch].items():
                    assert abs(total / probs[branch] - summary.observables[name]) <= 1e-12, \
                        (noise, mode, alpha, phi, branch, name)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    @pytest.mark.parametrize("noise", ["off", "pqnd=0.033"])
    def test_leaf_code_space_population_is_the_dense_projector(self, noise, mode):
        # P_CS through the chain of (1+S)/2 halves, bit for bit <psi|P_CS|psi>
        # with the dense projector
        model = LEAF_NOISES[noise]
        alphas = [0.0, math.pi, math.pi / 2, 0.7, 1.3, 2.9, 4.4, 6.0]
        phis = [0.1 * math.pi, 0.2 * math.pi, 0.5 * math.pi, math.pi, 2 * math.pi,
                *np.linspace(0.05 * math.pi, 1.95 * math.pi, 9).tolist()]
        for alpha, phi in itertools.product(alphas, phis):
            branches, weights = leaf_tree(alpha, phi, model, mode)
            for leaf, weight in weights.items():
                if weight == 0:
                    continue
                state, code, _ = _leaf(branches, mode, leaf)
                proj = code_space_projector(code.stabilizers.values(), state.dims)
                want = float(np.real(np.vdot(state.amps, proj @ state.amps)))
                name, got, _ = _outcome_thresholds(state, code)[-1]
                assert name == "P_CS"
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                    (alpha, phi, leaf)

    #: uniforms per column of the stratified grids, (k + 1/2)/N
    N_HIT, N_PATH = 48, 64

    @staticmethod
    def grid(n: int, columns: int) -> np.ndarray:
        """The product grid of (k + 1/2)/n over ``columns`` columns, one row per point."""
        axis = (np.arange(n) + 0.5) / n
        return np.stack(np.meshgrid(*[axis] * columns, indexing="ij"), -1).reshape(-1, columns)

    @pytest.mark.parametrize("p_mix", [1.0, 0.3, mixing_probability(0.1 * math.pi, 0.033)])
    def test_noise_hits_draw_the_hit_weights(self, p_mix):
        n = self.N_HIT
        rows = np.zeros((n**3, protocol._SHOT_WIDTH))
        rows[:, [protocol._HIT, protocol._HIT_QUBIT, protocol._HIT_LETTER]] = self.grid(n, 3)
        codes, counts = np.unique(_noise_hits(p_mix, rows), return_counts=True)
        weights = hit_weights(p_mix)
        assert set(codes.tolist()) <= weights.keys()
        fractions = dict(zip(codes.tolist(), (counts / len(rows)).tolist()))
        for code, weight in weights.items():
            assert abs(fractions.get(code, 0.0) - weight) <= 1 / n, (code, weight)

    @pytest.mark.parametrize("mode", ["exact", "toolbox"])
    @pytest.mark.parametrize("alpha,phi", [(math.pi / 2, 0.5 * math.pi), (0.7, 1.3)])
    def test_detection_and_shrunk_columns_draw_the_path_weights(self, monkeypatch, mode,
                                                                 alpha, phi):
        n = self.N_PATH
        block = np.full((n**2, protocol._SHOT_WIDTH), 0.5)
        block[:, [protocol._DETECT, protocol._SHRUNK]] = self.grid(n, 2)

        class GridRows:
            def random(self, shape):
                assert shape == block.shape
                return block

        monkeypatch.setattr(protocol, "seed_for", lambda *key: GridRows())
        model = LEAF_NOISES["pqnd=0.3"]
        records = run_protocol(alpha, phi, shots=len(block), noise=model,
                               shrunk_mode=mode).records
        _, weights = leaf_tree(alpha, phi, model, mode)
        paths = {}
        for leaf, weight in weights.items():
            path = leaf // _HIT_CODES
            paths[path] = paths.get(path, 0.0) + weight
        counts = {}
        for rec in records:
            path = 0 if rec.branch == "no_loss" else 2 + (rec.shrunk_outcome == -1)
            counts[path] = counts.get(path, 0) + 1
        assert counts.keys() <= paths.keys()
        for path, weight in paths.items():
            assert abs(counts.get(path, 0) / len(block) - weight) <= 1 / n, (path, weight)


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
    def shot_by_shot(phi_grid, shots, seed, hiding, addressing_error):
        """Five-ion sweep counts tallied one shot at a time from the rows:
        [ancilla readout, level of ion 0, 12 pulse columns] per shot.  Each
        grid point gives the (direct, detected, false positive, false negative,
        true leak) counts of every prefix of its shots."""
        explicit = hiding == "explicit"
        partition = readout_partition(5 if explicit else 3)
        full_pattern_state = functools.lru_cache(TestDetectionSweep.full_pattern_state)
        out = []
        for pi_idx, phi in enumerate(phi_grid):
            block = seed_for(seed, SeedDomain.SWEEP_SHOTS, pi_idx).random((shots, 14))
            tally, prefixes = np.zeros(5, dtype=int), []
            for row in block.tolist():
                fired = tuple(u >= addressing_error for u in row[2:])
                if explicit:
                    state = full_pattern_state(phi, fired)
                else:
                    exposed = tuple(ion for ion in (1, 2, 3)
                                    if not (fired[2 * ion - 2] and fired[2 * ion - 1]))
                    state = _detect(apply_loss(make_state(5, 3, [0] * 5), phi),
                                    (0,) + exposed + (4,))
                probs, levels = _sweep_readout(state, 4, partition)
                out_a = draw_outcome(probs, RowSlots(row[0]))
                lvl = draw_outcome(levels[out_a], RowSlots(row[1]))
                detected, leak = out_a == 1, lvl == Level.L2
                tally += [Level(lvl) in partition[1], detected, detected and not leak,
                          leak and not detected, leak]
                prefixes.append(tally.copy())
            out.append(prefixes)
        return out

    @pytest.mark.parametrize("hiding,error", [("mask", 0.3), ("explicit", 0.3),
                                              ("explicit", 0.0)])
    def test_counts_equal_shot_by_shot_reference(self, hiding, error):
        """Every grid point of an n-shot sweep counts the first n shots of a
        longer one, each shot as simulated on its own."""
        grid, seed, longest = [0.4 * math.pi, math.pi / 2], 6, 30
        ref = self.shot_by_shot(grid, longest, seed, hiding, error)
        for shots in (1, 17, longest):
            res = detection_sweep(grid, shots, seed=seed, register=5, hiding=hiding,
                                  addressing_error=error)
            agree = 0
            for row, prefixes in zip(res.rows, ref):
                direct, detected, fp, fn, leak = prefixes[shots - 1].tolist()
                assert (row.direct_loss, row.detected_loss) == (direct / shots,
                                                                 detected / shots)
                assert row.false_positive_rate == fp / max(shots - leak, 1)
                assert row.false_negative_rate == fn / max(leak, 1)
                agree += shots - fp - fn
            assert res.efficiency == agree / (shots * len(grid))

    @staticmethod
    def full_pattern_state(phi, fired):
        """Five-level hiding as simulated before the readout-visible key: all 12
        pulses (hide, detection, unhide), spectators 1-3 in their own order."""
        state = apply_loss(make_state(5, 5, [0] * 5), phi)
        p0, p1 = transfer_pulses()

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

    @staticmethod
    def three_level_readout(phi, spectators):
        """The sweep's readout of the three-level register with ``spectators``
        in the detection support."""
        lost = apply_loss(make_state(5, 3, [0] * 5), phi)
        return _sweep_readout(_detect(lost, (0, *spectators, 4)), 4, readout_partition(3))

    @pytest.mark.parametrize("phi", [0.0, 0.3 * math.pi, math.pi / 2, 0.9 * math.pi,
                                     math.pi])
    def test_full_pulse_readout_is_the_prefix_readout(self, phi):
        """Every hide pattern, with random unhide pulses, reads bit for bit as the
        three-level run of its count of skipped p0 pulses; ion 0's hiding levels
        stay empty."""
        rng = np.random.default_rng(round(phi * 1000))
        seen = set()
        for hide in itertools.product((False, True), repeat=6):
            fired = hide + tuple(bool(b) for b in rng.integers(0, 2, 6))
            k = hide[0::2].count(False)
            seen.add(k)
            full = _sweep_readout(self.full_pattern_state(phi, fired), 4,
                                  readout_partition(5))
            prefix = self.three_level_readout(phi, range(1, k + 1))
            assert np.array_equal(full[0], prefix[0])
            assert full[1].keys() == prefix[1].keys()
            for outcome, levels in prefix[1].items():
                assert np.array_equal(full[1][outcome], np.pad(levels, (0, 2)))
        assert seen == {0, 1, 2, 3}

    @pytest.mark.parametrize("exposed", [s for r in range(4)
                                         for s in itertools.combinations((1, 2, 3), r)])
    def test_exposed_set_reads_as_its_prefix(self, exposed):
        """The mask model's readout depends on the exposed set only through
        its size: each set reads bit for bit as spectators 1..len(set)."""
        for phi in np.linspace(0.0, 2 * math.pi, 23):
            got = self.three_level_readout(phi, exposed)
            prefix = self.three_level_readout(phi, range(1, len(exposed) + 1))
            assert np.array_equal(got[0], prefix[0])
            assert got[1].keys() == prefix[1].keys()
            for outcome, levels in prefix[1].items():
                assert np.array_equal(got[1][outcome], levels)

    def test_all_hidden_run_is_the_analytic_rate(self):
        grid = list(np.linspace(0.0, 2 * math.pi, 23))
        analytic = detection_sweep(grid, shots=0, register=5, analytic=True)
        for phi, row in zip(grid, analytic.rows):
            probs, _ = self.three_level_readout(phi, ())
            assert abs(probs[1] - row.detected_loss) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=0, register=5)
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=10, register=3)
        with pytest.raises(ValueError):
            detection_sweep([0.1], shots=10, register=5, hiding="telepathy")

    def test_analytic_mode_rejects_addressing_errors(self):
        # the analytic rows are the error-free sin^2(phi/2)
        with pytest.raises(ValueError, match="no addressing errors"):
            detection_sweep(self.GRID, shots=0, analytic=True, register=5,
                            addressing_error=0.05)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("analytic", [False, True])
    def test_non_finite_angle_raises(self, analytic, phi):
        # both modes refuse the angle where the loss gate is built
        with pytest.raises(ValueError, match=f"LOSS_ROT angle must be finite, got {phi}"):
            detection_sweep([0.3, phi], shots=10, analytic=analytic, register=5)

    @pytest.mark.parametrize("analytic", [False, True])
    def test_empty_grid_raises(self, analytic):
        with pytest.raises(ValueError, match="must not be empty"):
            detection_sweep([], shots=10, analytic=analytic)


class TestSeeding:
    def test_seed_for_is_pure(self):
        a = seed_for(5, SeedDomain.SWEEP_SHOTS, 2).random(4)
        b = seed_for(5, SeedDomain.SWEEP_SHOTS, 2).random(4)
        assert np.array_equal(a, b)
        c = seed_for(5, SeedDomain.SWEEP_SHOTS, 1).random(4)
        assert not np.array_equal(a, c)
        # the stream of default_rng(SeedSequence(master, spawn_key=(domain, *key)))
        ref = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1, 2))).random(4)
        assert np.array_equal(a, ref)
