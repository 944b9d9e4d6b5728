"""One signed-permutation builder for every Pauli on the register.

``qudit._signed_permutation`` builds ``(sigma, phase)`` ion by ion.  The
dense derivations it replaced live on here as oracles: the permutation read
off the embedded word, the level-stride gather of an extended Pauli, and the
matrix-product code projector.  Each must match bit for bit, signed zeros
included.  A guard checks that no register-wide word is embedded any more.
"""

import itertools
import math

import numpy as np
import pytest

from qloss import gates, protocol, qudit, tomography
from qloss.channels import NoiseModel, _extended_gather, _extended_pauli
from qloss.protocol import (analytic_run, code_space_projector, detection_sweep,
                            four_qubit_code, run_protocol, three_qubit_code)
from qloss.qudit import PauliString, _gather_cached

#: (dims, widest word) of the exhaustive check
EXHAUSTIVE = [(3, 4), (2, 4), (5, 3)]


def dense_gather(pauli, dims):
    """The permutation read off the dense embedded word (bypassing its cache)."""
    mat = qudit._embedded_cached.__wrapped__(pauli, dims)
    nonzero = mat != 0
    cols = np.arange(len(mat))
    sigma = np.where(nonzero.any(axis=0), np.argmax(nonzero, axis=0), cols)
    return sigma, mat[sigma, cols]


def dense_extended_gather(letter, qubit, n_ions, dims):
    """The permutation of the extended Pauli, indexed by the level of ``qubit``."""
    m = _extended_pauli(letter, dims)
    row = np.argmax(m != 0, axis=0)
    flat = np.arange(dims**n_ions)
    stride = dims ** (n_ions - 1 - qubit)
    level = flat // stride % dims
    return flat + (row[level] - level) * stride, m[row[level], level]


def dense_projector(gens, dims):
    """Product of (1+S)/2 over ``gens`` as dense matrix products."""
    d = dims ** gens[0].n_ions
    proj = np.eye(d, dtype=complex)
    for g in gens:
        proj = proj @ (0.5 * (np.eye(d) + qudit._embedded_cached.__wrapped__(g, dims)))
    return proj


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def words(n_ions):
    return [PauliString(w) for w in itertools.product("IXYZ", repeat=n_ions)]


@pytest.mark.parametrize("dims,widest", EXHAUSTIVE)
def test_every_word_matches_the_dense_gather(dims, widest):
    for n in range(1, widest + 1):
        for pauli in words(n):
            assert_same_bits(_gather_cached.__wrapped__(pauli, dims),
                             dense_gather(pauli, dims))


def test_sampled_five_ion_words_match_the_dense_gather():
    rng = np.random.default_rng(23)
    for letters in rng.choice(list("IXYZ"), size=(24, 5)):
        pauli = PauliString(tuple(letters))
        assert_same_bits(_gather_cached.__wrapped__(pauli, 3), dense_gather(pauli, 3))


@pytest.mark.parametrize("dims", [3, 5])
def test_extended_gather_matches_the_stride_gather(dims):
    for n_ions in range(1, 6):
        for qubit, letter in itertools.product(range(n_ions), "IXYZ"):
            assert_same_bits(_extended_gather.__wrapped__(letter, qubit, n_ions, dims),
                             dense_extended_gather(letter, qubit, n_ions, dims))


def test_extended_gather_is_the_kron_of_the_extended_factors():
    for qubit, letter in itertools.product(range(3), "XYZ"):
        factors = [_extended_pauli("I", 3)] * 3
        factors[qubit] = _extended_pauli(letter, 3)
        dense = factors[0]
        for f in factors[1:]:
            dense = np.kron(dense, f)
        sigma, phase = _extended_gather(letter, qubit, 3, 3)
        cols = np.arange(len(dense))
        assert_same_bits((phase,), (dense[sigma, cols],))
        assert np.count_nonzero(dense) == len(cols)


@pytest.mark.parametrize("code", [four_qubit_code(), three_qubit_code()],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("dims", [2, 3])
def test_code_projector_matches_the_dense_product(code, dims, monkeypatch):
    gens = list(code.stabilizers.values())
    if dims == 2:
        gens = [g.restricted(code.qubits) for g in gens]
    want = dense_projector(gens, dims)
    monkeypatch.setattr(protocol, "_PROJECTOR_CACHE", {})
    assert_same_bits((code_space_projector(gens, dims),), (want,))


def test_no_register_wide_word_is_embedded(monkeypatch):
    """The protocol, table and sweep paths embed pair words only (the MS
    factors) at dims 3 and 5; everything wider is a signed permutation."""
    seen = []
    real = qudit._embedded_cached

    def spy(pauli, dims):
        seen.append((str(pauli), dims))
        return real(pauli, dims)

    monkeypatch.setattr(qudit, "_embedded_cached", spy)
    monkeypatch.setattr(protocol, "_PROJECTOR_CACHE", {})
    monkeypatch.setattr(gates, "_COMPILE_CACHE", {})
    _gather_cached.cache_clear()
    _extended_gather.cache_clear()
    noise = NoiseModel(p_qnd=0.033, mode="depolarizing_per_qubit")
    analytic_run(math.pi / 2, math.pi / 2)
    analytic_run(math.pi / 2, math.pi / 2, noise)
    for mode in ("exact", "toolbox"):
        run_protocol(math.pi / 2, math.pi / 2, shots=20, shrunk_mode=mode)
    tomography.table_report(alphas=(math.pi / 2,), phis=(math.pi / 2,), sampled=True)
    detection_sweep([math.pi / 2], 20, register=5, hiding="explicit", addressing_error=0.05)
    assert seen, "the MS pair words go through the spy"
    wide = [(w, d) for w, d in seen if d in (3, 5) and len(w) > 2]
    assert wide == []
