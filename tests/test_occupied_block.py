"""Occupied-block kernels: bit for bit the whole-register formulas they replace."""

import math

import numpy as np
import pytest

from qloss.channels import NoiseModel, _extended_gather, depolarize_one, mixing_probability
from qloss.gates import compile_gate
from qloss.protocol import (ANCILLA, N_IONS, SURVIVING_QUBITS, PauliFrame, _loss_branch,
                            _shrunk_correct, apply_loss, detection_ops, encode,
                            qnd_detect_density, shrunk_stabilizer)
from qloss.qudit import (BlockOperator, DensityOperator, DimensionError, PauliString,
                         PureState, _block_perm, _conjugate, _gather_cached, _occupied_block,
                         _permute_rows, readout_partition)
from qloss.tolerances import ATOL_TRACE


def dense_depolarize_one(mat, qubit, n_ions, dims):
    """``depolarize_one`` on the whole register."""
    acc = np.zeros_like(mat)
    acc += 0.25 * mat
    for letter in "XYZ":
        acc += 0.25 * _conjugate(_extended_gather(letter, qubit, n_ions, dims), mat)
    return acc


def dense_shrunk_correct(mat, dims):
    """``_shrunk_correct`` on the whole register."""
    stab = _gather_cached(shrunk_stabilizer(), dims)

    def project(arr, pick):
        half = 0.5 * arr
        s_half = 0.5 * _permute_rows(stab, arr)
        return half + s_half if pick == 0 else half - s_half

    plus, minus = (project(project(mat, pick).T, pick).T for pick in (0, 1))
    return plus + _conjugate(_gather_cached(PauliFrame(-1).correction(), dims), minus)


def dense_qnd_detect_density(rho):
    """``qnd_detect_density`` on the whole register: every gate, mask, trace and
    normalization on the full matrix."""
    for op in detection_ops((0, ANCILLA)):
        rho = rho.apply_operator(compile_gate(op, rho.dims), op.support)
    bright, dark = readout_partition(rho.dims)
    rho_nl = rho.project_levels(ANCILLA, bright)
    rho_l = rho.project_levels(ANCILLA, dark)
    p_nl, p_l = rho_nl.trace(), rho_l.trace()
    total = rho.trace()
    rho_l_n = rho_l.normalized() if p_l > ATOL_TRACE else rho_l
    rho_nl_n = rho_nl.normalized() if p_nl > ATOL_TRACE else rho_nl
    return p_l / total, rho_l_n, p_nl / total, rho_nl_n


def dense_loss_branches(rho_l, phi, noises):
    """The loss branch on the whole register under each noise model: the shrunk
    correction, the normalization, and the mixture's sums over each qubit's
    whole-register depolarization (computed once for every rate)."""
    rho = DensityOperator(N_IONS, rho_l.dims, dense_shrunk_correct(rho_l.mat, rho_l.dims))
    mat = rho.normalized().mat
    terms = [dense_depolarize_one(mat, q, N_IONS, rho_l.dims) for q in SURVIVING_QUBITS]
    for noise in noises:
        if not noise.enabled:
            yield mat
            continue
        p = mixing_probability(phi, noise.p_qnd)
        acc = (1.0 - p) * mat
        for term in terms:
            acc = acc + (p / len(SURVIVING_QUBITS)) * term
        yield acc


def random_input(rng, n_ions, dims, whole_register=False, non_finite=False, fixed=None):
    """A random complex matrix on a random product of per-ion level sets (all levels
    for ``whole_register``; the levels ``fixed[ion]`` for an ion in ``fixed``), with
    +-0.0 entries inside and -0.0 or +0.0 outside."""
    keep = np.ones(1, dtype=bool)
    for ion in range(n_ions):
        levels = np.zeros(dims, dtype=bool)
        size = dims if whole_register else rng.integers(1, dims + 1)
        levels[rng.choice(dims, size=size, replace=False)] = True
        if fixed and ion in fixed:
            levels[:] = False
            levels[list(fixed[ion])] = True
        keep = np.kron(keep, levels).astype(bool)
    side = dims**n_ions
    mat = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    pick = rng.random((side, side))
    mat[pick < 0.05] = complex(-0.0, -0.0)
    mat[(pick >= 0.05) & (pick < 0.1)] = complex(-0.0, 0.0)
    mat[(pick >= 0.1) & (pick < 0.15)] = complex(0.0, -0.0)
    mat[(pick >= 0.15) & (pick < 0.2)] = 0.0
    if non_finite:
        mat[pick > 0.997] = complex(np.nan, 1.0)
        mat[(pick > 0.99) & (pick < 0.993)] = complex(np.inf, -np.inf)
        mat[(pick > 0.98) & (pick < 0.983)] = complex(0.0, np.inf)
    outside = ~np.outer(keep, keep)
    mat[outside] = complex(-0.0, -0.0) if rng.random() < 0.5 else 0.0
    return mat


CASES = [(seed, whole, bad) for seed in range(6)
         for whole, bad in ((False, False), (False, True), (True, False))]


@pytest.mark.parametrize("seed,whole_register,non_finite", CASES)
@pytest.mark.parametrize("n_ions,dims", [(2, 3), (3, 3), (4, 3), (2, 5), (3, 5)])
def test_depolarize_one_is_bitwise_dense(seed, whole_register, non_finite, n_ions, dims):
    rng = np.random.default_rng([seed, n_ions, dims])
    mat = random_input(rng, n_ions, dims, whole_register, non_finite)
    rho = DensityOperator(n_ions, dims, mat)
    with np.errstate(invalid="ignore"):
        for qubit in range(n_ions):
            dense = dense_depolarize_one(mat, qubit, n_ions, dims).tobytes()
            assert depolarize_one(rho, qubit).mat.tobytes() == dense
            assert depolarize_one(rho.block((qubit,)), qubit).register().mat.tobytes() == dense


@pytest.mark.parametrize("seed,whole_register,non_finite", CASES)
def test_shrunk_correct_is_bitwise_dense(seed, whole_register, non_finite):
    rng = np.random.default_rng([seed, 7])
    rho = DensityOperator(N_IONS, 3, random_input(rng, N_IONS, 3, whole_register, non_finite))
    with np.errstate(invalid="ignore"):
        dense = dense_shrunk_correct(rho.mat, 3).tobytes()
        assert _shrunk_correct(rho).mat.tobytes() == dense
        assert _shrunk_correct(rho.block(SURVIVING_QUBITS)).register().mat.tobytes() == dense


def test_block_is_the_occupied_product():
    # ion 0 on {0, 2}, ion 1 on {1}, ion 2 whole; a NaN counts as occupied
    dims, keep = 3, np.zeros(27, dtype=bool)
    for l0 in (0, 2):
        keep[l0 * 9 + 3] = True
    mat = np.zeros((27, 27), dtype=complex)
    mat[np.ix_(keep, keep)] = 1.0
    mat[0 * 9 + 3, 2 * 9 + 3] = np.nan
    assert _occupied_block(mat, 3, dims, (2,)).tolist() == [3, 4, 5, 21, 22, 23]
    assert len(_occupied_block(np.zeros((27, 27)), 3, dims, (1,))) == 0
    assert depolarize_one(DensityOperator(3, dims, np.zeros((27, 27))), 1).mat.tobytes() \
        == np.zeros((27, 27), dtype=complex).tobytes()
    block = DensityOperator(3, dims, mat).block((2,))
    assert block.shape == (2, 1, 3) and block.flat.tolist() == [3, 4, 5, 21, 22, 23]
    assert block.register().mat.tobytes() == mat.tobytes()


def test_block_kernels_need_whole_ions():
    block = DensityOperator(2, 3, np.diag([1.0, 0, 0, 0, 0, 0, 0, 0, 0])).block((1,))
    assert block.shape == (1, 3)
    with pytest.raises(ValueError):
        block.apply_operator(np.eye(3), (0,))
    with pytest.raises(ValueError):
        block.project_levels(0, (0,))
    with pytest.raises(ValueError):
        depolarize_one(block, 0)


def test_block_perm_needs_a_closed_block():
    # ion 0 on {0, 2}: X maps |0> to |1>, which the block lacks, for the truncated
    # letter and for the extended one alike
    mat = np.zeros((9, 9), dtype=complex)
    mat[np.ix_([0, 1, 2, 6, 7, 8], [0, 1, 2, 6, 7, 8])] = 1.0
    block = DensityOperator(2, 3, mat).block((1,))
    assert block.shape == (2, 3)
    for perm in (_gather_cached(PauliString(("X", "I")), 3), _extended_gather("X", 0, 2, 3)):
        with pytest.raises(DimensionError, match="not closed"):
            _block_perm(perm, block.flat)
    with pytest.raises(DimensionError, match="not closed"):
        depolarize_one(block, 0)
    # ion 1 is whole and ion 0 untouched: the block maps into itself
    rows, _ = _block_perm(_extended_gather("X", 1, 2, 3), block.flat)
    assert block.flat[rows].tolist() == [1, 0, 2, 7, 6, 8]


def test_shrunk_correct_needs_a_closed_block():
    # surviving qubit 2 on {0, 2}: the shrunk stabilizer leaves the block
    rng = np.random.default_rng(35)
    fixed = {1: (0, 1), 2: (0, 2), 3: (0, 1)}
    block = DensityOperator(N_IONS, 3, random_input(rng, N_IONS, 3, fixed=fixed)).block(())
    assert block.shape[1:4] == (2, 2, 2)
    with pytest.raises(DimensionError, match="not closed"):
        _shrunk_correct(block)


@pytest.mark.parametrize("seed,non_finite", [(s, bad) for s in range(6) for bad in (False, True)])
def test_shrunk_correct_on_closed_blocks_is_bitwise_dense(seed, non_finite):
    # the surviving qubits on {0, 1}, not whole: every factor maps the block into itself
    rng = np.random.default_rng([seed, 36])
    fixed = dict.fromkeys(SURVIVING_QUBITS, (0, 1))
    mat = random_input(rng, N_IONS, 3, non_finite=non_finite, fixed=fixed)
    block = DensityOperator(N_IONS, 3, mat).block(())
    assert block.shape[1:4] == (2, 2, 2)
    with np.errstate(invalid="ignore"):
        assert _shrunk_correct(block).register().mat.tobytes() \
            == dense_shrunk_correct(mat, 3).tobytes()


@pytest.mark.parametrize("seed,non_finite", [(s, bad) for s in range(6) for bad in (False, True)])
@pytest.mark.parametrize("n_ions,dims", [(2, 3), (3, 3), (4, 3), (2, 5), (3, 5)])
def test_depolarize_one_on_closed_blocks_is_bitwise_dense(seed, non_finite, n_ions, dims):
    # the depolarized qubit on {0, 1}, not whole; the other ions on random levels
    rng = np.random.default_rng([seed, n_ions, dims, 37])
    with np.errstate(invalid="ignore"):
        for qubit in range(n_ions):
            mat = random_input(rng, n_ions, dims, non_finite=non_finite, fixed={qubit: (0, 1)})
            block = DensityOperator(n_ions, dims, mat).block(())
            assert block.shape[qubit] == 2
            assert depolarize_one(block, qubit).register().mat.tobytes() \
                == dense_depolarize_one(mat, qubit, n_ions, dims).tobytes()


@pytest.mark.parametrize("alpha,phi", [(0.0, 0.3), (0.7, 1.1), (np.pi / 2, np.pi)])
def test_loss_branch_is_bitwise_dense(alpha, phi):
    # the input the kernels exist for: the loss branch on the detection block, which
    # keeps the probed ion and the ancilla whole and the surviving qubits on {0, 1}
    block = qnd_detect_density(apply_loss(encode(alpha), phi).to_density())[1]
    mat = block.register().mat
    assert block.shape == (3, 2, 2, 2, 3) and len(block.flat) == 72
    assert _occupied_block(mat, N_IONS, 3, (0, ANCILLA)).tolist() == block.flat.tolist()
    assert _shrunk_correct(block).register().mat.tobytes() \
        == dense_shrunk_correct(mat, 3).tobytes()
    for qubit in SURVIVING_QUBITS:
        assert depolarize_one(block, qubit).register().mat.tobytes() \
            == dense_depolarize_one(mat, qubit, N_IONS, 3).tobytes()


#: the program's inputs: alpha and phi at the paper's and the edge angles plus
#: random ones, and the noise off and at three rates
_RNG = np.random.default_rng(20020953)
ALPHAS = [0.0, math.pi, math.pi / 2, *_RNG.uniform(0, 2 * math.pi, 10).tolist()]
PHIS = [0.0, math.pi, 0.1 * math.pi, 0.2 * math.pi, 0.5 * math.pi, 0.53 * math.pi,
        0.81 * math.pi, 1e-9, 2 * math.pi, *_RNG.uniform(0, 2 * math.pi, 10).tolist()]
NOISES = [NoiseModel()] + [NoiseModel(p, "depolarizing_per_qubit") for p in (0.033, 0.3, 1.0)]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_branches_are_bitwise_dense_on_program_inputs(alpha):
    # a block product's bits can depend on the block width; on these inputs the
    # detection block gives the whole register's bytes
    psi = encode(alpha)
    for phi in PHIS:
        lost = apply_loss(psi, phi).to_density()
        got, want = qnd_detect_density(lost), dense_qnd_detect_density(lost)
        assert len(lost.block((0, ANCILLA)).flat) == 72
        for g, w in zip(got, want):
            if isinstance(g, float):
                assert np.float64(g).tobytes() == np.float64(w).tobytes()
            else:
                assert g.register().mat.tobytes() == w.mat.tobytes()
        p_l, rho_l = got[:2]
        if p_l <= ATOL_TRACE:
            continue
        dense_branches = dense_loss_branches(rho_l.register(), phi, NOISES)
        for noise, dense in zip(NOISES, dense_branches):
            assert _loss_branch(rho_l, phi, noise).register().mat.tobytes() == dense.tobytes()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n_ions,dims", [(2, 3), (3, 3), (5, 3), (3, 5)])
def test_block_trace_is_the_register_trace(seed, n_ions, dims):
    # pairwise summation groups a sum by position, so the block's diagonal is
    # summed where the register trace would find it
    rng = np.random.default_rng([seed, n_ions, dims, 31])
    mat = random_input(rng, n_ions, dims)
    if seed % 4 == 0:
        # a diagonal of signed zeros only: the sign of the sum is the test
        mat[np.diag_indices_from(mat)] = complex(-0.0, -0.0) if seed % 8 else 0.0
    block = DensityOperator(n_ions, dims, mat).block(())
    scattered = block.register().mat
    assert np.float64(block.trace()).tobytes() \
        == np.float64(np.real(np.trace(scattered))).tobytes()
    assert isinstance(block, BlockOperator) and len(block.flat) <= dims**n_ions


def assert_same_block(got, want):
    assert got.flat.tobytes() == want.flat.tobytes()
    assert got.shape == want.shape
    assert got.mat.tobytes() == want.mat.tobytes()


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pure_block_is_the_density_block_on_program_inputs(alpha):
    psi = encode(alpha)
    for state in [psi] + [apply_loss(psi, phi) for phi in PHIS]:
        for whole in ((0, ANCILLA), SURVIVING_QUBITS, ()):
            assert_same_block(state.block(whole), state.to_density().block(whole))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_ions,dims", [(2, 3), (3, 3), (5, 3), (2, 5), (3, 5)])
def test_pure_block_is_the_density_block_on_sparse_states(seed, n_ions, dims):
    rng = np.random.default_rng([seed, n_ions, dims, 33])
    side = dims**n_ions
    amps = rng.normal(size=side) + 1j * rng.normal(size=side)
    pick = rng.random(side)
    amps[pick < 0.6] = 0.0
    amps[(pick >= 0.6) & (pick < 0.7)] = complex(-0.0, -0.0)
    amps[(pick >= 0.7) & (pick < 0.75)] = complex(0.0, rng.normal())
    if seed % 2:
        # products near the smallest subnormal: some underflow to zero, so a
        # nonzero amplitude need not occupy its row
        amps *= 10.0 ** -161.7
    state = PureState(n_ions, dims, amps)
    for whole in ((), (0,), tuple(range(1, n_ions, 2))):
        assert_same_block(state.block(whole), state.to_density().block(whole))


def test_pure_block_of_non_finite_and_zero_states():
    # zero times NaN is NaN, so one NaN amplitude occupies every row
    amps = apply_loss(encode(0.7), 0.3).amps.copy()
    amps[7] = complex(np.nan, 0.0)
    state = PureState(N_IONS, 3, amps)
    with np.errstate(invalid="ignore"):
        for whole in ((), (0, ANCILLA)):
            got = state.block(whole)
            assert_same_block(got, state.to_density().block(whole))
            assert len(got.flat) == 3**N_IONS
    zero = PureState(N_IONS, 3, np.zeros(3**N_IONS))
    for whole in ((), SURVIVING_QUBITS):
        got = zero.block(whole)
        assert_same_block(got, zero.to_density().block(whole))
        assert len(got.flat) == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pure_detection_split_is_the_density_split(alpha):
    psi = encode(alpha)
    for phi in PHIS:
        lost = apply_loss(psi, phi)
        got, want = qnd_detect_density(lost), qnd_detect_density(lost.to_density())
        for g, w in zip(got, want):
            if isinstance(g, float):
                assert np.float64(g).tobytes() == np.float64(w).tobytes()
            else:
                assert g.register().mat.tobytes() == w.register().mat.tobytes()
        if got[0] <= ATOL_TRACE:
            continue
        for noise in NOISES:
            assert _loss_branch(got[1], phi, noise).register().mat.tobytes() \
                == _loss_branch(want[1], phi, noise).register().mat.tobytes()
