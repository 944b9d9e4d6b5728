"""One kernel per operation, shared by pure states and density matrices.

A density matrix over n ions is a tensor over 2n ions (row ions, then column
ions), so ``DensityOperator.apply_operator`` is the pure-state gate kernel
applied twice and ``project_levels`` is ``collapse``'s level mask on two
axes.  The bodies they replaced live on here as oracles and must match bit
for bit.  The trajectories apply the Pauli frame's fix and the noise hits as
signed permutations; the compiled and dense routes they replaced are their
references.
"""

import itertools
import math

import numpy as np
import pytest

from qloss.channels import _extended_pauli
from qloss.gates import addressed_z, compile_gate
from qloss.protocol import (_HIT_CODES, SURVIVING_QUBITS, PauliFrame, _leaf, _shrunk_post,
                            _shrunk_split, apply_frame_correction, apply_loss, encode,
                            qnd_detect)
from qloss.qudit import DensityOperator, PureState, _apply_checked, collapse

#: (dims, widest register) of the random grid; a 5-ion register at dims 5
#: holds 3125 x 3125 matrices, so dims 5 stops at four ions
GRID = [(3, 5), (5, 4)]


def tensordot_sandwich(mat, matrix, support, n, d):
    """M rho M^dagger as two ``tensordot``/``moveaxis`` passes over the row and
    column axes of the 2n-axis tensor."""
    k = len(support)
    mk = np.asarray(matrix, dtype=complex).reshape([d] * (2 * k))
    in_axes = list(range(k, 2 * k))
    tens = mat.reshape([d] * (2 * n))
    tens = np.moveaxis(np.tensordot(mk, tens, axes=(in_axes, list(support))),
                       range(k), support)
    col_axes = [n + i for i in support]
    tens = np.moveaxis(np.tensordot(mk.conj(), tens, axes=(in_axes, col_axes)),
                       range(k), col_axes)
    return tens.reshape(d**n, d**n)


def density_mask(mat, ion, levels, n, d):
    """Projection of ``ion`` onto ``levels``: one mask on its row axis, one on its
    column axis."""
    keep = np.zeros(d)
    for l in levels:
        keep[int(l)] = 1.0
    tens = mat.reshape([d] * (2 * n))
    shape_row = [1] * (2 * n)
    shape_row[ion] = d
    shape_col = [1] * (2 * n)
    shape_col[n + ion] = d
    tens = tens * keep.reshape(shape_row) * keep.reshape(shape_col)
    return tens.reshape(d**n, d**n)


def pure_mask(amps, ion, levels, n, d):
    """Normalized projection of ``ion`` onto ``levels`` on an amplitude vector."""
    keep = np.zeros(d)
    for l in levels:
        keep[int(l)] = 1.0
    shape = [1] * n
    shape[ion] = d
    out = (amps.reshape([d] * n) * keep.reshape(shape)).reshape(-1)
    return out / np.linalg.norm(out)


def random_matrix(rng, side):
    """A complex Gaussian matrix with some entries set to +0.0 and -0.0."""
    mat = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    pick = rng.random((side, side))
    mat[pick < 0.05] = complex(-0.0, -0.0)
    mat[(pick >= 0.05) & (pick < 0.1)] = 0.0
    return mat


def operators(rng, d, k):
    """A random complex operator, and a non-unitary one with exact zeros: the
    sin(phi/2)|2><0| loss map on the first ion, random on the others."""
    kraus = np.zeros((d, d), dtype=complex)
    kraus[2, 0] = math.sin(0.35)
    rest = random_matrix(rng, d ** (k - 1)) if k > 1 else np.ones((1, 1))
    return [random_matrix(rng, d**k), np.kron(kraus, rest)]


def supports(n):
    return [sup for k in range(1, min(3, n) + 1)
            for sup in itertools.permutations(range(n), k)]


def level_sets(d):
    return [{0}, {1, 2}, {0, 2}, set(range(d)), set()]


@pytest.mark.parametrize("d,widest", GRID)
def test_apply_operator_is_the_tensordot_sandwich_bit_for_bit(d, widest):
    for n in range(1, widest + 1):
        rng = np.random.default_rng([n, d])
        mat = random_matrix(rng, d**n)
        rho = DensityOperator(n, d, mat)
        for sup in supports(n):
            for m in operators(rng, d, len(sup)):
                got = rho.apply_operator(m, sup).mat
                assert got.tobytes() == tensordot_sandwich(mat, m, sup, n, d).tobytes()


@pytest.mark.parametrize("d,widest", GRID)
def test_project_levels_is_the_two_axis_mask_bit_for_bit(d, widest):
    for n in range(1, widest + 1):
        rng = np.random.default_rng([n, d, 1])
        mat = random_matrix(rng, d**n)
        for ion, levels in itertools.product(range(n), level_sets(d)):
            got = DensityOperator(n, d, mat).project_levels(ion, levels).mat
            assert got.tobytes() == density_mask(mat, ion, levels, n, d).tobytes()


@pytest.mark.parametrize("d,widest", GRID)
def test_collapse_is_the_one_axis_mask_bit_for_bit(d, widest):
    for n in range(1, widest + 1):
        rng = np.random.default_rng([n, d, 2])
        amps = random_matrix(rng, d**n)[:, 0]
        for ion, levels in itertools.product(range(n), level_sets(d)[:-1]):
            got = collapse(PureState(n, d, amps), ion, levels).amps
            assert got.tobytes() == pure_mask(amps, ion, levels, n, d).tobytes()


def loss_branch_split(alpha, phi, mode):
    """Pre-readout state and outcome probabilities of the shrunk measurement."""
    return _shrunk_split(qnd_detect(apply_loss(encode(alpha), phi), force_branch="loss").state,
                         mode)


def loss_branch_posts():
    """Both shrunk outcomes' post states of the loss branch, in both modes, at a
    few (alpha, phi)."""
    for alpha, phi, mode in itertools.product((0.0, 0.7, math.pi / 2), (0.5 * math.pi, 1.9),
                                              ("exact", "toolbox")):
        pre, probs = loss_branch_split(alpha, phi, mode)
        for pick in (0, 1):
            assert probs[pick] > 1e-3
            yield (alpha, phi, mode, pick), _shrunk_post(pre, mode, pick)


#: the loss-branch posts as parameters, each named by its case, not its amplitudes
LOSS_BRANCH_POSTS = [
    pytest.param(case, post, id="alpha{:.4g}-phi{:.4g}-{}-pick{}".format(*case))
    for case, post in loss_branch_posts()]


@pytest.mark.parametrize("case,post", LOSS_BRANCH_POSTS)
def test_frame_fix_is_the_z_permutation(case, post):
    fixed = apply_frame_correction(post, PauliFrame(-1)).amps
    # bitwise: the dense Z on the first surviving qubit
    z = np.diag([1.0, -1.0, 1.0]).astype(complex)
    assert np.array_equal(fixed, _apply_checked(post, z, (SURVIVING_QUBITS[0],)).amps)
    # the compiled addressed_z(pi) is -iZ up to its diagonal's cos(pi/2) = 6.1e-17
    # real parts, so it differs from i Z by at most that much per unit amplitude
    minus_iz = compile_gate(addressed_z(math.pi, SURVIVING_QUBITS[0]), 3)
    assert abs(minus_iz[0, 0].real) < 1e-16
    compiled = _apply_checked(post, minus_iz, (SURVIVING_QUBITS[0],)).amps
    assert np.max(np.abs(fixed - 1j * compiled)) <= 1e-16
    assert apply_frame_correction(post, PauliFrame()) is post


@pytest.mark.parametrize("case,post", LOSS_BRANCH_POSTS)
def test_noise_hits_are_the_dense_extended_paulis(case, post):
    alpha, phi, mode, pick = case
    branches = (None, loss_branch_split(alpha, phi, mode)[0])
    leaf = lambda hit: _leaf(branches, mode, (2 + pick) * _HIT_CODES + hit)[0].amps
    fixed = apply_frame_correction(post, PauliFrame(1 - 2 * pick))
    assert np.array_equal(leaf(0), fixed.amps)
    # hit code 1 + 4 * qubit index + letter index in IXYZ
    for hit, (qubit, letter) in enumerate(itertools.product(SURVIVING_QUBITS, "IXYZ"), 1):
        if letter != "I":
            dense = _apply_checked(fixed, _extended_pauli(letter, 3), (qubit,)).amps
            assert np.array_equal(leaf(hit), dense)
