"""Completely-positive maps as Kraus matrices: the detection branch maps, the
readout-boundary fold, Choi conversion, and the per-qubit depolarizing
imperfection model.  A Kraus matrix acts on a register state through
``DensityOperator.apply_operator``.

The ideal Choi matrix of a detection branch is ``channel_to_choi`` of that
branch's map from :func:`branch_maps`; no Choi matrix is written by hand.

Choi convention
---------------
For a qubit map E the Choi matrix is

    Choi(E) = (1/2) * sum_{i,j in {0,1}}  E(|i><j|)  (x)  |i><j|

written in the basis {|00>, |01>, |10>, |11>} with the *first* factor the
channel output and the second the input.  The identity channel then has
trace 1.  Channel outputs outside the computational subspace are folded
into the recorded qubit by readout indistinguishability: dark levels
(|2>, |H0>) record as |1>, |H1> records as |0>, and coherences to those
levels are dropped (see :func:`record_kraus`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qudit import (BlockOperator, DensityOperator, Level, _block_perm, _conjugate,
                    _signed_permutation, check_unitary, readout_partition, truncated_pauli)
from .tolerances import ATOL_TRACE

CHOI_BASIS_ORDER = "output,input;|00>,|01>,|10>,|11>"


class DegenerateRateError(ZeroDivisionError):
    """The false-positive mixing weight p = 0/0 is undefined."""


def branch_maps(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 Kraus matrices of the two single-ion maps selected by the
    loss-detection ancilla outcome.

    Outcome 0 (no loss) applies |1><1| + cos(phi/2)|0><0|; outcome 1 (loss)
    applies sin(phi/2)|2><0|.  Together they are trace-preserving on the
    computational subspace.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = c
    e0[1, 1] = 1.0
    e1 = np.zeros((3, 3), dtype=complex)
    e1[2, 0] = s
    return e0, e1


def record_kraus(dims: int) -> list[np.ndarray]:
    """Readout-boundary map onto the recorded qubit (dims -> 2).

    Bright levels record as |0>, dark levels as |1>; coherences between the
    computational subspace and other levels are unobservable and dropped.
    """
    keep = np.zeros((2, dims), dtype=complex)
    keep[0, Level.L0] = 1.0
    keep[1, Level.L1] = 1.0
    ks = [keep]
    dark = readout_partition(dims)[1]
    for level in range(Level.L2, dims):
        k = np.zeros((2, dims), dtype=complex)
        k[int(level in dark), level] = 1.0
        ks.append(k)
    return ks


def readout_superoperator(dims: int) -> np.ndarray:
    """The readout-boundary map sum_K K (.) K^dagger as a dims^2 x 4 matrix.

    It maps one ion's flattened (a, b) operator entries to the flattened
    2x2 recorded block: vec(rho) @ R = vec(sum_K K rho K^dagger).
    """
    return sum(np.kron(kr, kr.conj()) for kr in record_kraus(dims)).T


def record_qubit(rho: np.ndarray) -> np.ndarray:
    """Apply the readout-boundary map to a single-ion operator (3x3 or 5x5 -> 2x2)."""
    dims = rho.shape[0]
    if dims == 2:
        return np.asarray(rho, dtype=complex)
    return (np.reshape(rho, -1) @ readout_superoperator(dims)).reshape(2, 2)


@dataclass
class ChoiMatrix:
    """d_in*d_out square PSD representation of a (possibly trace-decreasing) map."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def channel_to_choi(kraus: Sequence[np.ndarray]) -> ChoiMatrix:
    """Choi matrix of the qubit restriction of the map sum_K K (.) K^dagger
    (output (x) input order).

    Inputs are restricted to the computational subspace; outputs are folded
    through the readout-boundary map, so e.g. an output on the loss level
    lands in the |1><1| (x) |0><0| cell.
    """
    input_dim = kraus[0].shape[1]
    if input_dim not in (2, 3, 5):
        raise ValueError(f"unsupported input dimension {input_dim}")
    inject = np.zeros((input_dim, 2), dtype=complex)
    inject[Level.L0, 0] = 1.0
    inject[Level.L1, 1] = 1.0
    choi = np.zeros((4, 4), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(basis[i], basis[j])
            rho = inject @ e_ij @ inject.conj().T
            out = sum(k @ rho @ k.conj().T for k in kraus)
            choi += 0.5 * np.kron(record_qubit(out), e_ij)
    return ChoiMatrix(choi)


# ---------------------------------------------------------------------------
# imperfection model


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing imperfection model for the loss-detection unit.

    ``p_qnd`` is the false-positive rate of the detection unit; the mixing
    weight applied to the reconstructed loss-branch state is
    p = p_qnd / (p_qnd + 0.5 sin^2(phi/2)).
    """

    p_qnd: float = 0.0
    mode: str = "off"  # "off" | "depolarizing_per_qubit"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_qnd <= 1.0:
            raise ValueError(f"p_qnd must be in [0, 1], got {self.p_qnd}")
        if self.mode not in ("off", "depolarizing_per_qubit"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "off" and self.p_qnd > 0.0:
            raise ValueError(f"p_qnd={self.p_qnd} with mode 'off' would run noiseless")

    @property
    def enabled(self) -> bool:
        return self.mode != "off" and self.p_qnd > 0.0


def mixing_probability(phi: float, p_qnd: float) -> float:
    """False-positive weight p = p_qnd / (p_qnd + 0.5 sin^2(phi/2))."""
    loss = 0.5 * math.sin(phi / 2) ** 2
    denom = p_qnd + loss
    if not math.isfinite(denom):
        raise ValueError(f"p undefined for phi={phi}, p_qnd={p_qnd}")
    if denom <= 0.0:
        raise DegenerateRateError("p undefined: p_qnd = 0 and phi = 0")
    return p_qnd / denom


@lru_cache(maxsize=None)
def _extended_pauli(letter: str, dims: int) -> np.ndarray:
    """Single-ion Pauli on {|0>,|1>}, extended as the identity on the other levels
    (read-only, checked unitary once)."""
    m = truncated_pauli(letter, dims)
    if letter != "I":
        m = m + (np.eye(dims) - truncated_pauli("X", dims) @ truncated_pauli("X", dims))
    m.setflags(write=False)
    return check_unitary(m, dims)


@lru_cache(maxsize=None)
def _extended_gather(letter: str, qubit: int, n_ions: int, dims: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, phase)`` of :func:`_extended_pauli` on ``qubit`` of the register:
    ``qudit._signed_permutation`` of the identity on every other ion."""
    factors = [_extended_pauli("I", dims)] * n_ions
    factors[qubit] = _extended_pauli(letter, dims)
    return _signed_permutation(factors)


def depolarize_one(rho: DensityOperator | BlockOperator, qubit: int
                   ) -> DensityOperator | BlockOperator:
    """Fully depolarize one ion's computational marginal; other ions untouched.

    Equals the 1/4-weighted four-Pauli sum with each Pauli extended as the
    identity on non-computational levels, so leaked population is a fixed
    point of the map.  Each extended Pauli is a signed permutation, so its
    term is a reindexed copy of rho, and the identity term is rho itself.
    On a :class:`~qloss.qudit.BlockOperator` the sum runs on the block, which
    must keep ``qubit`` on {|0>, |1>} or whole, so the Paulis map it into itself.
    """
    perms = [_block_perm(_extended_gather(letter, qubit, rho.n_ions, rho.dims), rho.flat)
             for letter in "XYZ"]
    acc = np.zeros_like(rho.mat)
    acc += 0.25 * rho.mat
    for perm in perms:
        acc += 0.25 * _conjugate(perm, rho.mat)
    return replace(rho, mat=acc)


def qnd_noise_mixture(rho: DensityOperator | BlockOperator, phi: float, model: NoiseModel,
                      qubits: Sequence[int]) -> DensityOperator | BlockOperator:
    """rho -> (p/n) sum_k M_k(rho) + (1-p) rho, with M_k :func:`depolarize_one` on
    the k-th of the n ``qubits``; on a block, every sum runs on the block.  With
    the model off it returns ``rho`` itself."""
    if not model.enabled:
        return rho
    p = mixing_probability(phi, model.p_qnd)
    acc = (1.0 - p) * rho.mat
    for q in qubits:
        acc = acc + (p / len(qubits)) * depolarize_one(rho, q).mat
    out = replace(rho, mat=acc)
    if not abs(out.trace() - rho.trace()) <= ATOL_TRACE:  # pragma: no cover - safety net
        raise AssertionError("noise mixture changed the trace")
    return out
