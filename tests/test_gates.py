"""Gate toolbox tests with a matrix-exponential oracle."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qloss.gates import (GateKind, GateOp, Register, addressed_z, collective_rotation,
                         compile_gate, loss_rotation, ms_gate)
from qloss.protocol import analytic_run, run_protocol
from qloss.qudit import Level, PureState, apply_unitary, make_state, truncated_pauli
from reference import transfer_pulses


def squared_overlap(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(np.vdot(a.amps, b.amps)) ** 2


def expm_oracle(op: GateOp, dims: int) -> np.ndarray:
    """Independent compile route: exponentiate the embedded generator."""
    k = len(op.support)
    d = dims**k
    if op.kind == GateKind.MS_X:
        gen = np.zeros((d, d), dtype=complex)
        x = truncated_pauli("X", dims)
        for a, b in itertools.combinations(range(k), 2):
            m = np.array([[1.0 + 0j]])
            for i in range(k):
                m = np.kron(m, x if i in (a, b) else np.eye(dims))
            gen += m
        return expm(-0.5j * op.angle * gen)
    if op.kind == GateKind.COLLECTIVE_R:
        sig = truncated_pauli(op.axis, dims)
        gen = np.zeros((d, d), dtype=complex)
        for i in range(k):
            m = np.array([[1.0 + 0j]])
            for j in range(k):
                m = np.kron(m, sig if j == i else np.eye(dims))
            gen += m
        return expm(-0.5j * op.angle * gen)
    raise ValueError(op.kind)


class TestCompileAgainstOracle:
    @pytest.mark.parametrize("theta", [0.1, math.pi / 2, math.pi, 2.7, -1.3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ms(self, theta, n):
        op = ms_gate(theta, tuple(range(n)))
        assert np.allclose(compile_gate(op, 3), expm_oracle(op, 3), atol=1e-12)

    @pytest.mark.parametrize("axis", ["X", "Y"])
    @pytest.mark.parametrize("theta", [0.3, math.pi, 5.0])
    def test_collective(self, axis, theta):
        op = collective_rotation(axis, theta, (0, 1))
        assert np.allclose(compile_gate(op, 3), expm_oracle(op, 3), atol=1e-12)

    def test_rx_2pi_sector_phases(self):
        # -1 on the computational subspace, +1 on the loss level
        u = compile_gate(collective_rotation("X", 2 * math.pi, (0,)), 3)
        oracle = expm_oracle(collective_rotation("X", 2 * math.pi, (0,)), 3)
        assert np.allclose(u, oracle, atol=1e-12)
        assert np.allclose(u, np.diag([-1, -1, 1]), atol=1e-12)

    @pytest.mark.parametrize("kind_op", [
        ms_gate(0.77, (0, 1)),
        collective_rotation("Y", 1.1, (0, 1, 2)),
        addressed_z(0.9, 0),
        loss_rotation(2.2, 0),
    ])
    @pytest.mark.parametrize("dims", [3, 5])
    def test_unitarity(self, kind_op, dims):
        u = compile_gate(kind_op, dims)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10

    def test_cache_is_bit_identical(self):
        a = compile_gate(ms_gate(0.123, (0, 1)), 3)
        b = compile_gate(ms_gate(0.123, (4, 2)), 3)
        assert a is b  # same (kind, angle, support size, dims)


class TestLossRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(compile_gate(loss_rotation(0.0, 0), 3), np.eye(3))

    def test_full_transfer(self):
        u = compile_gate(loss_rotation(math.pi, 0), 3)
        out = u @ np.array([1, 0, 0], dtype=complex)
        assert np.allclose(out, [0, 0, -1])
        # dark-readout probability 1
        assert abs(out[1]) ** 2 + abs(out[2]) ** 2 == pytest.approx(1.0)

    def test_quarter_loss(self):
        u = compile_gate(loss_rotation(math.pi / 2, 0), 3)
        out = u @ np.array([1, 0, 0], dtype=complex)
        assert abs(out[2]) ** 2 == pytest.approx(0.5)


class TestMSGate:
    def test_pi_flips_both(self):
        st = make_state(2, 3, [0, 0])
        out = apply_unitary(st, compile_gate(ms_gate(math.pi, (0, 1)), 3), (0, 1))
        assert out.amps[1 * 3 + 1] == pytest.approx(-1j)

    def test_leaked_control_decouples(self):
        st = make_state(2, 3, [2, 0])
        out = apply_unitary(st, compile_gate(ms_gate(math.pi, (0, 1)), 3), (0, 1))
        assert squared_overlap(out, st) == pytest.approx(1.0)
        assert out.amps[2 * 3] == pytest.approx(1.0)

    def test_zero_angle_is_identity(self):
        assert np.allclose(compile_gate(ms_gate(0.0, (0, 1)), 3), np.eye(9))

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            ms_gate(1.0, (1, 1))

    def test_exp_additivity(self):
        u1 = compile_gate(ms_gate(0.4, (0, 1, 2)), 3)
        u2 = compile_gate(ms_gate(1.9, (0, 1, 2)), 3)
        u12 = compile_gate(ms_gate(2.3, (0, 1, 2)), 3)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10

    @pytest.mark.parametrize("theta", np.linspace(0.05, 2 * math.pi, 20))
    def test_leaked_sector_identity(self, theta):
        # with ion 0 leaked, the two-ion MS acts as the identity
        st = make_state(2, 3, [2, 1])
        out = apply_unitary(st, compile_gate(ms_gate(theta, (0, 1)), 3), (0, 1))
        assert squared_overlap(out, st) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_from_full_entangler(self):
        st = make_state(4, 3, [0] * 4)
        u = compile_gate(ms_gate(math.pi / 2, (0, 1, 2, 3)), 3)
        out = apply_unitary(st, u, (0, 1, 2, 3))
        idx0000 = 0
        idx1111 = 1 * 27 + 1 * 9 + 1 * 3 + 1
        assert abs(out.amps[idx0000]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.amps[idx1111]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_leakage_population_conserved(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        state = PureState(2, 3, amps / np.linalg.norm(amps))
        before = [state.level_populations(i)[2] for i in range(2)]
        for op in (ms_gate(1.234, (0, 1)),
                   collective_rotation("Y", 0.7, (0, 1)),
                   addressed_z(2.2, 0)):
            out = apply_unitary(state, compile_gate(op, 3), op.support)
            after = [out.level_populations(i)[2] for i in range(2)]
            assert np.allclose(before, after, atol=1e-12)


class TestCollectiveRotation:
    def test_pi_flip(self):
        u = compile_gate(collective_rotation("X", math.pi, (0,)), 3)
        assert np.allclose(u @ np.array([1, 0, 0]), [0, -1j, 0])

    def test_pi_leaves_loss_level(self):
        u = compile_gate(collective_rotation("X", math.pi, (0,)), 3)
        assert np.allclose(u @ np.array([0, 0, 1]), [0, 0, 1])

    def test_detection_unit_identity_up_to_phase(self):
        # R^X_a(pi) R^X_q(pi) MS^X(pi) restricted to the computational
        # subspace is the identity up to the documented global phase i
        ms = compile_gate(ms_gate(math.pi, (0, 1)), 3)
        rx = compile_gate(collective_rotation("X", math.pi, (0, 1)), 3)
        u = rx @ ms
        comp = [0, 1, 3, 4]
        ucomp = u[np.ix_(comp, comp)]
        phase = ucomp[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.max(np.abs(ucomp - phase * np.eye(4))) < 1e-10


class TestAddressedZ:
    def test_zero_identity(self):
        assert np.allclose(compile_gate(addressed_z(0.0, 0), 3), np.eye(3))

    def test_2pi_spinor_sign(self):
        u = compile_gate(addressed_z(2 * math.pi, 0), 3)
        assert np.allclose(u, np.diag([-1, -1, 1]), atol=1e-12)

    def test_pi_on_plus_state(self):
        u = compile_gate(addressed_z(math.pi, 0), 3)
        plus = np.array([1, 1, 0]) / math.sqrt(2)
        out = u @ plus
        target = np.array([1, -1, 0]) / math.sqrt(2)
        # equality up to global phase
        assert abs(abs(np.vdot(target, out)) - 1.0) < 1e-12


class TestHiding:
    def test_hide_then_unhide_is_identity(self):
        p0, p1 = transfer_pulses()
        u = p0 @ p1
        assert np.allclose(u @ u, np.eye(5))
        assert transfer_pulses()[0] is p0 and not p0.flags.writeable

    def test_hidden_excited_reads_bright(self):
        p0, p1 = transfer_pulses()
        out = apply_unitary(make_state(1, 5, [1]), p0 @ p1, (0,))
        assert abs(out.amps[Level.H1]) == pytest.approx(1.0)
        assert Level.H1 in {Level.L0, Level.H1}  # S manifold: bright

    def test_explicit_hiding_matches_masked_support(self):
        # 5-ion brute force: MS(pi) on all ions with 1-3 shelved by the
        # five-level transfer pulses equals MS(pi) on {0, 4} alone
        rng = np.random.default_rng(11)
        amps = rng.normal(size=3**5) + 1j * rng.normal(size=3**5)
        base3 = PureState(5, 3, amps / np.linalg.norm(amps))
        amps5 = np.zeros(5**5, dtype=complex)
        for flat, levels in enumerate(np.ndindex(*(3,) * 5)):
            idx5 = 0
            for l in levels:
                idx5 = idx5 * 5 + l
            amps5[idx5] = base3.amps[flat]
        base5 = PureState(5, 5, amps5)

        def pulses(state):
            for i in (1, 2, 3):
                for pulse in transfer_pulses():
                    state = apply_unitary(state, pulse, (i,))
            return state

        reg5 = Register(pulses(base5))
        reg5.apply(ms_gate(math.pi, (0, 1, 2, 3, 4)))
        hidden = pulses(reg5.state)
        direct5 = Register(base5)
        direct5.apply(ms_gate(math.pi, (0, 4)))
        assert squared_overlap(hidden, direct5.state) == pytest.approx(1.0, abs=1e-12)


class TestRegisterFactorization:
    def test_factorized_apply_matches_dense_compile(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=3**4) + 1j * rng.normal(size=3**4)
        state = PureState(4, 3, amps / np.linalg.norm(amps))
        for op in (ms_gate(0.8, (0, 1, 3)), collective_rotation("Y", 2.1, (0, 2))):
            reg = Register(state)
            reg.apply(op)
            dense = apply_unitary(state, compile_gate(op, 3), op.support)
            assert np.allclose(reg.state.amps, dense.amps, atol=1e-12)



class TestNonFiniteAngle:
    """A NaN or infinite angle is refused where the gate is built, naming its kind."""

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,support,axis", [
        (GateKind.MS_X, (0, 1), None), (GateKind.COLLECTIVE_R, (0,), "X"),
        (GateKind.ADDRESSED_Z, (0,), None), (GateKind.LOSS_ROT, (0,), None)])
    def test_gate_op_rejects(self, kind, support, axis, angle):
        with pytest.raises(ValueError, match=f"{kind.value} angle must be finite"):
            GateOp(kind, angle, support, axis=axis)

    @pytest.mark.parametrize("alpha,phi,kind", [
        (0.0, math.inf, "LOSS_ROT"), (0.0, -math.inf, "LOSS_ROT"), (0.0, math.nan, "LOSS_ROT"),
        (math.nan, 0.3, "COLLECTIVE_R"), (math.inf, 0.3, "COLLECTIVE_R")])
    def test_protocol_entry_points_reject(self, alpha, phi, kind):
        for run in (analytic_run, run_protocol):
            with pytest.raises(ValueError, match=f"{kind} angle must be finite"):
                run(alpha, phi)
