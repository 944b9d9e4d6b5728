"""Engine-level tests: states, unitaries, measurement, Pauli strings."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qloss import qudit
from qloss.gates import (addressed_z, collective_rotation, compile_gate, loss_rotation,
                         ms_gate)
from qloss.qudit import (BRIGHT_LEVELS, ContractViolation, DARK_LEVELS, DensityOperator,
                         DimensionError, Level, PauliString, PureState,
                         UndefinedExpectationError, apply_unitary, draw_outcome,
                         expectation, check_unitary, make_state, measure_projective,
                         outcome_probabilities, partial_trace, pure_expectation,
                         readout_partition, seed_for, seed_streams, truncated_pauli)


def random_state(n_ions, dims, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dims**n_ions) + 1j * rng.normal(size=dims**n_ions)
    return PureState(n_ions, dims, amps / np.linalg.norm(amps))


class TestMakeState:
    def test_all_zero(self):
        st5 = make_state(5, 3, [0] * 5)
        assert st5.amps[0] == 1.0 and np.count_nonzero(st5.amps) == 1

    def test_single_loss_level(self):
        st1 = make_state(1, 3, [2])
        assert st1.amps[2] == 1.0

    def test_hidden_levels_dims5(self):
        st2 = make_state(2, 5, [Level.L2, Level.H1])
        assert st2.amps[2 * 5 + 4] == 1.0 and np.count_nonzero(st2.amps) == 1

    def test_hidden_level_rejected_in_dims3(self):
        with pytest.raises(DimensionError):
            make_state(1, 3, [Level.H0])

    def test_level_sets(self):
        assert BRIGHT_LEVELS == {Level.L0, Level.H1}
        assert DARK_LEVELS == {Level.L1, Level.L2, Level.H0}

    def test_readout_partition(self):
        assert readout_partition(3) == ({Level.L0}, {Level.L1, Level.L2})
        assert readout_partition(5) == (BRIGHT_LEVELS, DARK_LEVELS)


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        st3 = random_state(3, 3, 1)
        out = apply_unitary(st3, np.eye(9), (0, 2))
        assert np.allclose(out.amps, st3.amps)

    def test_truncated_x_is_not_unitary(self):
        # X on {|0>,|1>} with 0 on |2> satisfies X X^dag = 1 - |2><2|
        with pytest.raises(ContractViolation):
            apply_unitary(make_state(1, 3, [0]), truncated_pauli("X", 3), (0,))

    def test_loss_rotation_pi_sends_0_to_minus_2(self):
        mat = compile_gate(loss_rotation(math.pi, 0), 3)
        out = apply_unitary(make_state(1, 3, [0]), mat, (0,))
        assert abs(out.amps[2] + 1.0) < 1e-12

    def test_check_unitary(self):
        u = compile_gate(ms_gate(0.7, (0, 1)), 3)
        assert check_unitary(u, 9) is u
        with pytest.raises(DimensionError):
            check_unitary(u, 3)
        with pytest.raises(ContractViolation):
            check_unitary(truncated_pauli("Z", 3), 3)

    def test_support_out_of_range(self):
        with pytest.raises(IndexError):
            apply_unitary(make_state(2, 3, [0, 0]), np.eye(3), (5,))

    def test_norm_drift_over_100_gate_program(self):
        rng = np.random.default_rng(7)
        state = make_state(4, 3, [0, 1, 0, 1])
        for _ in range(100):
            kind = rng.integers(4)
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            if kind == 0:
                op = ms_gate(theta, tuple(rng.choice(4, size=2, replace=False)))
            elif kind == 1:
                op = collective_rotation("XY"[rng.integers(2)], theta, (int(rng.integers(4)),))
            elif kind == 2:
                op = addressed_z(theta, int(rng.integers(4)))
            else:
                op = loss_rotation(theta, int(rng.integers(4)))
            state = apply_unitary(state, compile_gate(op, 3), op.support)
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-8


class TestNonFiniteContracts:
    """Contract checks reject NaN instead of letting it through."""

    def test_apply_unitary_checks_read_only_matrices_too(self):
        # cached gates skip the check internally; a caller's matrix never does
        mat = truncated_pauli("X", 3)
        mat.setflags(write=False)
        with pytest.raises(ContractViolation):
            apply_unitary(make_state(1, 3, [0]), mat, (0,))

    def test_apply_unitary_rejects_nan_matrix(self):
        with pytest.raises(ContractViolation):
            apply_unitary(make_state(1, 3, [0]), np.full((3, 3), np.nan), (0,))

    def test_normalized_rejects_nan(self):
        with pytest.raises(UndefinedExpectationError):
            DensityOperator(1, 3, np.full((3, 3), np.nan)).normalized()


class TestExpectation:
    def test_z_on_ground(self):
        rho = make_state(1, 3, [0]).to_density()
        assert expectation(rho, PauliString.from_map(1, {0: "Z"})) == pytest.approx(1.0)

    def test_x_stabilizer_on_no_loss_branch(self):
        # ideal no-loss branch of the +i logical state at phi = pi/2
        phi = math.pi / 2
        c = math.cos(phi / 2)
        amps = np.zeros(3**4, dtype=complex)

        def at(*lv):
            i = 0
            for l in lv:
                i = 3 * i + l
            return i

        amps[at(0, 0, 0, 0)] = c
        amps[at(0, 0, 0, 1)] = 1j * c
        amps[at(1, 1, 1, 1)] = 1.0
        amps[at(1, 1, 1, 0)] = 1j
        amps /= np.linalg.norm(amps)
        rho = PureState(4, 3, amps).to_density()
        sx = PauliString(("X", "X", "X", "X"))
        assert expectation(rho, sx) == pytest.approx(4 * math.cos(math.pi / 4) / 3,
                                                     abs=1e-12)

    def test_leaked_population_counts_zero(self):
        rho = make_state(1, 3, [2]).to_density()
        assert expectation(rho, PauliString.from_map(1, {0: "Z"})) == 0.0

    @pytest.mark.parametrize("dims", [3, 5])
    def test_equals_dense_trace(self, dims):
        """The gathered traces are the dense formulas, bit for bit."""
        rng = np.random.default_rng(dims)
        for letters in itertools.product("IXYZ", repeat=3):
            obs = PauliString(letters)
            mat = obs.embedded(dims)
            state = random_state(3, dims, int(rng.integers(10**6)))
            amps = state.amps
            assert pure_expectation(state, obs) == float(
                (np.vdot(amps, mat @ amps) / np.vdot(amps, amps).real).real)
            other = random_state(3, dims, int(rng.integers(10**6))).amps
            rho = DensityOperator(3, dims, np.outer(amps, amps.conj())
                                  + np.outer(other, other.conj()))
            assert expectation(rho, obs) == float(
                (np.trace(rho.mat @ mat) / np.trace(rho.mat)).real)

    def test_zero_trace_errors(self):
        rho = DensityOperator(1, 3, np.zeros((3, 3)))
        with pytest.raises(UndefinedExpectationError):
            expectation(rho, PauliString.from_map(1, {0: "Z"}))


def einsum_partial_trace(mat, n, dims, keep):
    """Independent brute-force contraction oracle."""
    tens = mat.reshape([dims] * (2 * n))
    letters = "abcdefghij"
    caps = "ABCDEFGHIJ"
    row = "".join(letters[i] if i in keep else letters[i] for i in range(n))
    col = "".join(caps[i] if i in keep else letters[i] for i in range(n))
    out = "".join(letters[i] for i in keep) + "".join(caps[i] for i in keep)
    k = len(keep)
    return np.einsum(row + col + "->" + out, tens).reshape(dims**k, dims**k)


class TestPartialTrace:
    def test_product_state(self):
        rho = make_state(2, 3, [0, 0]).to_density()
        red = partial_trace(rho, (0,))
        assert np.allclose(red.mat, np.diag([1, 0, 0]))

    def test_bell_state_marginal_is_mixed(self):
        amps = np.zeros(9, dtype=complex)
        amps[0] = amps[4] = 1 / math.sqrt(2)  # (|00> + |11>)/sqrt(2)
        rho = PureState(2, 3, amps).to_density()
        for ion in (0, 1):
            red = partial_trace(rho, (ion,))
            assert np.allclose(red.mat, np.diag([0.5, 0.5, 0.0]))

    def test_encoded_state_marginal_against_oracle(self):
        from qloss.protocol import encode
        rho = encode(0.0).to_density()
        red = partial_trace(rho, (0,))
        oracle = einsum_partial_trace(rho.mat, 5, 3, (0,))
        assert np.allclose(red.mat, oracle, atol=1e-12)
        assert np.allclose(red.mat, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("keep", [(0,), (1, 3), (2, 0), (4, 1, 2)])
    def test_matches_oracle_on_random_states(self, keep):
        rho = random_state(5, 3, hash(keep) % 1000).to_density()
        red = partial_trace(rho, keep)
        assert np.allclose(red.mat, einsum_partial_trace(rho.mat, 5, 3, keep),
                           atol=1e-12)
        assert red.trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(make_state(2, 3, [0, 0]).to_density(), ())

    def test_consistency_with_expectation(self):
        rho = random_state(4, 3, 77).to_density()
        obs = PauliString.from_map(4, {1: "X", 3: "Y"})
        red = partial_trace(rho, (1, 3))
        obs_red = PauliString.from_map(2, {0: "X", 1: "Y"})
        assert expectation(rho, obs) == pytest.approx(expectation(red, obs_red),
                                                      abs=1e-10)


class TestMeasureProjective:
    def test_ancilla_in_ground(self):
        rng = np.random.default_rng(0)
        out, post, p = measure_projective(make_state(1, 3, [0]), 0,
                                          [{0}, {1, 2}], rng)
        assert out == 0 and p == pytest.approx(1.0)

    def test_bright_dark_on_excited(self):
        rng = np.random.default_rng(0)
        out, post, p = measure_projective(make_state(1, 3, [1]), 0,
                                          [{0}, {1, 2}], rng)
        assert out == 1 and p == pytest.approx(1.0)

    def test_half_loss_superposition(self):
        phi = math.pi / 2
        state = apply_unitary(make_state(1, 3, [0]),
                              compile_gate(loss_rotation(phi, 0), 3), (0,))
        out, post, p = measure_projective(state, 0, [{0}, {1, 2}],
                                          force_outcome=1)
        assert p == pytest.approx(math.sin(math.pi / 4) ** 2)
        assert abs(abs(post.amps[2]) - 1.0) < 1e-12

    def test_zero_probability_branch_rejected(self):
        with pytest.raises(ContractViolation):
            measure_projective(make_state(1, 3, [0]), 0, [{0}, {1, 2}],
                               force_outcome=1)

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            measure_projective(make_state(1, 3, [0]), 0, [{0}, {1}],
                               force_outcome=0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_branch_completeness(self, seed):
        state = random_state(3, 3, seed)
        probs = [measure_projective(state, 1, [{0}, {1}, {2}], force_outcome=o)[2]
                 for o in range(3) if state.level_populations(1)[o] > 1e-12]
        assert abs(sum(probs) - 1.0) < 1e-12

    @given(dims=st.sampled_from([3, 5]), n_ions=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_outcome_probabilities_sum_to_one(self, dims, n_ions, data):
        """Any partition of the levels splits the state's norm into its blocks."""
        state = random_state(n_ions, dims, data.draw(st.integers(0, 10**6)))
        state = PureState(n_ions, dims, state.amps * data.draw(st.floats(0.1, 3.0)))
        ion = data.draw(st.integers(0, n_ions - 1))
        labels = data.draw(st.lists(st.integers(0, dims - 1), min_size=dims, max_size=dims))
        partition = [{l for l in range(dims) if labels[l] == b} for b in sorted(set(labels))]
        sets, probs = outcome_probabilities(state, ion, partition)
        pops = state.level_populations(ion)
        assert abs(probs.sum() - 1.0) <= 1e-12
        for levels, p in zip(sets, probs):
            assert p == pytest.approx(sum(pops[l] for l in levels) / pops.sum(), abs=1e-12)


probability_vectors = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                               min_size=2, max_size=5).filter(lambda p: sum(p) > 0)


class TestDrawOutcome:
    @given(raw=probability_vectors, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_index_and_stream_as_choice(self, raw, seed):
        p = np.array(raw) / sum(raw)
        twin, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # reference: numpy's own draw over the normalized probabilities
        assert draw_outcome(p, rng) == twin.choice(len(p), p=p / p.sum())
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [0.5, np.nan], [-0.1, 1.1],
                                       [0.5, 0.6], [0.2, 0.3], [np.inf, 0.0]])
    def test_invalid_probabilities_rejected(self, probs):
        with pytest.raises(ValueError):
            draw_outcome(np.array(probs), np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            draw_outcome(np.array(probs), force_outcome=0)

    def test_forced_zero_probability_branch_rejected(self):
        assert draw_outcome(np.array([0.0, 1.0]), force_outcome=1) == 1
        with pytest.raises(ContractViolation):
            draw_outcome(np.array([0.0, 1.0]), force_outcome=0)


#: draws that exercise the seeding paths: 32-bit integers leave half a
#: 64-bit word buffered, which the next stream must not inherit
SEED_DRAWS = {
    "random": lambda rng: rng.random(),
    "integers3": lambda rng: int(rng.integers(3, dtype=np.int32)),
    "integers4": lambda rng: int(rng.integers(4)),
    "binomial": lambda rng: int(rng.binomial(40, 0.3)),
    "multinomial": lambda rng: rng.multinomial(25, [0.2, 0.3, 0.5]).tolist(),
}
#: key entries of one and of several 32-bit words
key_entries = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


def seed_draws(rng, ops):
    return [SEED_DRAWS[op](rng) for op in ops]


class TestSeedStreams:
    @given(master=key_entries, prefix=st.lists(key_entries, max_size=5),
           count=st.integers(0, 6),
           ops=st.lists(st.sampled_from(sorted(SEED_DRAWS)), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_draws_match_seed_for(self, master, prefix, count, ops):
        got = [seed_draws(rng, ops) for rng in seed_streams(master, *prefix, count=count)]
        assert got == [seed_draws(seed_for(master, *prefix, i), ops) for i in range(count)]

    @pytest.mark.parametrize("count", [0, 1, qudit._SEED_CHUNK - 1, qudit._SEED_CHUNK,
                                       qudit._SEED_CHUNK + 1])
    @pytest.mark.parametrize("prefix", [(), (2**33,)])
    def test_count_edges(self, prefix, count):
        got = [rng.random() for rng in seed_streams(9, *prefix, count=count)]
        assert got == [seed_for(9, *prefix, i).random() for i in range(count)]

    @given(master=key_entries, prefix=st.lists(key_entries, max_size=3),
           ops=st.lists(st.sampled_from(sorted(SEED_DRAWS)), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_chunk_size_does_not_change_the_streams(self, master, prefix, ops):
        def draws():
            return [seed_draws(rng, ops) for rng in seed_streams(master, *prefix, count=7)]

        ref = draws()
        for chunk in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qudit, "_SEED_CHUNK", chunk)
                assert draws() == ref

    @pytest.mark.parametrize("key", [(-1,), (0, -1), (2, 2**40, -5)])
    def test_negative_entry_raises_like_seed_sequence(self, key):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(key + (0,))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(seed_streams(*key, count=1))


class TestPauliString:
    def test_commutation_rule_exhaustive_two_ions(self):
        # embedded-matrix commutator vanishes iff the site-count rule says so
        for letters_a in itertools.product("IXYZ", repeat=2):
            for letters_b in itertools.product("IXYZ", repeat=2):
                a = PauliString(letters_a)
                b = PauliString(letters_b)
                ma, mb = a.embedded(3), b.embedded(3)
                comm = ma @ mb - mb @ ma
                assert (np.max(np.abs(comm)) < 1e-12) == a.commutes(b), \
                    (letters_a, letters_b)

    @given(st.tuples(*[st.sampled_from("IXYZ")] * 3),
           st.tuples(*[st.sampled_from("IXYZ")] * 3))
    @settings(max_examples=60, deadline=None)
    def test_commutation_rule_three_ions(self, la, lb):
        a, b = PauliString(la), PauliString(lb)
        ma, mb = a.embedded(3), b.embedded(3)
        matches = np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12
        assert matches == a.commutes(b)

    def test_embedding_annihilates_leak(self):
        x = PauliString.from_map(1, {0: "X"}).embedded(5)
        for lvl in (Level.L2, Level.H0, Level.H1):
            vec = np.zeros(5)
            vec[lvl] = 1.0
            assert np.allclose(x @ vec, 0.0)

    def test_sign_and_str(self):
        assert str(PauliString(("X", "I"))) == "XI"

    def test_restricted(self):
        p = PauliString.from_map(5, {1: "X", 3: "Z"})
        q = p.restricted((1, 2, 3))
        assert q.letters == ("X", "I", "Z")
        with pytest.raises(ValueError):
            p.restricted((0, 1))
