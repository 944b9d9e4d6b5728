"""Occupied-block kernels: bit for bit the whole-register formulas they replace."""

import numpy as np
import pytest

from qloss.channels import _extended_gather, depolarize_one
from qloss.protocol import (N_IONS, SURVIVING_QUBITS, PauliFrame, _shrunk_correct, apply_loss,
                            encode, qnd_detect_density, shrunk_stabilizer)
from qloss.qudit import (DensityOperator, _conjugate, _gather_cached, _occupied_block,
                         _permute_rows)


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


def random_input(rng, n_ions, dims, whole_register=False, non_finite=False):
    """A random complex matrix on a random product of per-ion level sets (all levels
    for ``whole_register``), with +-0.0 entries inside and -0.0 or +0.0 outside."""
    keep = np.ones(1, dtype=bool)
    for _ in range(n_ions):
        levels = np.zeros(dims, dtype=bool)
        size = dims if whole_register else rng.integers(1, dims + 1)
        levels[rng.choice(dims, size=size, replace=False)] = True
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
    with np.errstate(invalid="ignore"):
        for qubit in range(n_ions):
            got = depolarize_one(DensityOperator(n_ions, dims, mat), qubit).mat
            assert got.tobytes() == dense_depolarize_one(mat, qubit, n_ions, dims).tobytes()


@pytest.mark.parametrize("seed,whole_register,non_finite", CASES)
def test_shrunk_correct_is_bitwise_dense(seed, whole_register, non_finite):
    rng = np.random.default_rng([seed, 7])
    mat = random_input(rng, N_IONS, 3, whole_register, non_finite)
    with np.errstate(invalid="ignore"):
        assert _shrunk_correct(mat, 3).tobytes() == dense_shrunk_correct(mat, 3).tobytes()


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


@pytest.mark.parametrize("alpha,phi", [(0.0, 0.3), (0.7, 1.1), (np.pi / 2, np.pi)])
def test_loss_branch_is_bitwise_dense(alpha, phi):
    # the input the kernels exist for: the loss branch's ancilla sits on one level
    rho_l = qnd_detect_density(apply_loss(encode(alpha), phi).to_density())[1]
    assert len(_occupied_block(rho_l.mat, N_IONS, 3, SURVIVING_QUBITS)) == 3 * 27
    assert _shrunk_correct(rho_l.mat, 3).tobytes() == dense_shrunk_correct(rho_l.mat, 3).tobytes()
    for qubit in SURVIVING_QUBITS:
        assert depolarize_one(rho_l, qubit).mat.tobytes() \
            == dense_depolarize_one(rho_l.mat, qubit, N_IONS, 3).tobytes()
