"""Exact state-vector / density-operator engine over multi-level ions.

Each ion carries either 3 levels (|0>, |1>, |2>) or 5 levels (adding the
hiding targets |H0>, |H1>).  Level semantics:

* ``0``  - lower qubit state, S manifold (fluoresces, "bright")
* ``1``  - upper qubit state, D manifold ("dark")
* ``2``  - loss level, D manifold (dark)
* ``H0`` - hiding target of |0>, D manifold (dark)
* ``H1`` - hiding target of |1>, S manifold (bright)

Tensor index convention: ion 0 is the most significant factor, so the
amplitude of the basis ket ``|l0 l1 ... l_{n-1}>`` sits at flat index
``l0 * dims**(n-1) + l1 * dims**(n-2) + ...``.

Occupied blocks: a branch of the exact density run keeps every level of the
ions its gates and level masks act on, and of every other ion only the levels
that some nonzero row or column of its input uses (:func:`_occupied_block`).
It is scanned once into a :class:`BlockOperator` (a pure state's is read off
its amplitudes, :meth:`PureState.block`), runs its gates, level masks,
signed permutations, sums and normalization there with the register's
kernels on the block's per-ion shape, and is scattered once into a zero
matrix, so every entry outside the block is +0.0.  A gate or a level mask
needs its ions whole (:func:`_check_whole`).  A signed permutation needs only
a block that it maps into itself (:func:`_block_perm`): a Pauli maps any
block that keeps its ions on {|0>, |1>} or whole.  The block trace sums the
diagonal scattered into a register-length zero vector, so its pairwise
summation groups the terms as ``np.trace`` of the scattered matrix does.
Elementwise kernels and signed permutations give each block entry the
register's operations.  A gate is a BLAS matrix product, whose bits can
depend on the matrix width: on random matrices a block product can differ
from the register's in the last bit.  So the detection gates' block products
are claimed bit-identical to the whole register's for the program's inputs
only: the encoded state after the loss rotation, at the paper's and edge
angles and at random ones, where the tests compare every byte.
``DensityOperator.apply_operator`` and ``project_levels`` stay on the whole
register, and so do the observables, ``partial_trace`` and the fidelities.

Signed permutations: every Pauli on the register, truncated (zero above |1>,
as a :class:`PauliString` embeds it) or extended as the identity there (the
noise model's), is carried as ``(sigma, phase)`` from the one builder
:func:`_signed_permutation` and applied by reindexing (:func:`_permute_rows`,
:func:`_conjugate`); no register-wide Pauli matrix is formed.

Doubled register: a density matrix over n ions is a tensor over 2n ions, row
ions then column ions, so pure states and density matrices share one kernel per
operation: a gate is :func:`_embed_apply_vec` (M on the row ions, M* on the
column ions), a level projection :func:`_level_mask`, and (1 +- S)/2 for a
Pauli S :func:`_half_projection`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .tolerances import ATOL_ALGEBRA, ATOL_TRACE


class Level(IntEnum):
    """Per-ion electronic level, ordered by its basis index."""

    L0 = 0
    L1 = 1
    L2 = 2
    H0 = 3
    H1 = 4


#: levels that fluoresce during readout (S manifold)
BRIGHT_LEVELS = frozenset({Level.L0, Level.H1})
#: levels that stay dark during readout (D manifold)
DARK_LEVELS = frozenset({Level.L1, Level.L2, Level.H0})


def readout_partition(dims: int) -> tuple[frozenset[Level], frozenset[Level]]:
    """Fluorescence readout of one ion: (bright, dark) levels; outcome 1 is dark."""
    return (frozenset(l for l in BRIGHT_LEVELS if l < dims),
            frozenset(l for l in DARK_LEVELS if l < dims))


class DimensionError(ValueError):
    """A level or operator does not fit the per-ion dimension."""


class ContractViolation(ValueError):
    """An operator or state failed a contract check (unitarity, probabilities, ...)."""


class UndefinedExpectationError(ZeroDivisionError):
    """Expectation value requested on a zero-trace operator."""


def _check_support(support: Sequence[int], n_ions: int) -> tuple[int, ...]:
    sup = tuple(int(i) for i in support)
    if len(set(sup)) != len(sup):
        raise ValueError(f"duplicate ion indices in support {sup}")
    for i in sup:
        if not 0 <= i < n_ions:
            raise IndexError(f"ion index {i} out of range for {n_ions} ions")
    return sup


def check_unitary(matrix: np.ndarray, side: int) -> np.ndarray:
    """``matrix`` as a complex array, validated as a side x side unitary to 1e-10."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (side, side):
        raise DimensionError(f"matrix side {matrix.shape} does not match support size {side}")
    dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(side)))
    if not dev <= ATOL_ALGEBRA:
        raise ContractViolation(f"matrix is not unitary (max deviation {dev:.2e})")
    return matrix


def _embed_apply_vec(amps: np.ndarray, matrix: np.ndarray, support: tuple[int, ...],
                     shape: Sequence[int]) -> np.ndarray:
    """Apply ``matrix`` (acting on the axes in ``support``, which it must cover
    whole) to a flat vector with one axis per ion of the given ``shape``: a pure
    state's amplitudes, a doubled-register density matrix, or one of its blocks."""
    perm = list(support) + [i for i in range(len(shape)) if i not in support]
    side = math.prod(shape[i] for i in support)
    tens = np.transpose(amps.reshape(shape), perm).reshape(side, -1)
    tens = (matrix @ tens).reshape([shape[i] for i in perm])
    return np.transpose(tens, np.argsort(perm)).reshape(-1)


@dataclass
class PureState:
    """Complex amplitude vector over ``n_ions`` ions with ``dims`` levels each."""

    n_ions: int
    dims: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.dims not in (3, 5):
            raise DimensionError(f"per-ion dimension must be 3 or 5, got {self.dims}")
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.size != self.dims**self.n_ions:
            raise DimensionError("amplitude vector length does not match ion count")

    def level_populations(self, ion: int) -> np.ndarray:
        """Per-level population of one ion (marginal over the others)."""
        tens = np.abs(self.amps.reshape([self.dims] * self.n_ions)) ** 2
        axes = tuple(i for i in range(self.n_ions) if i != ion)
        return tens.sum(axis=axes)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.n_ions, self.dims, np.outer(self.amps, self.amps.conj()))

    def block(self, whole: Sequence[int]) -> "BlockOperator":
        """``to_density().block(whole)`` without the register matrix: the product
        block of the outer product's nonzero rows, and the outer product on it."""
        # row i is amps[i] * conj(amps[j]); a zero amps[j] makes it nonzero only for a
        # NaN or infinite amps[i], whose row is nonzero at its own column
        nonzero = self.amps[self.amps != 0]
        occupied = (np.outer(self.amps, nonzero.conj()) != 0).any(axis=1)
        flat = _product_block(occupied, self.n_ions, self.dims, whole)
        sub = self.amps[flat]
        return _block_operator(self.n_ions, self.dims, flat, np.outer(sub, sub.conj()))


def make_state(n_ions: int, dims: int, initial_levels: Iterable[Level | int]) -> PureState:
    """Product basis state with the given per-ion levels."""
    levels = [Level(l) for l in initial_levels]
    if len(levels) != n_ions:
        raise ValueError(f"expected {n_ions} levels, got {len(levels)}")
    idx = 0
    for lvl in levels:
        if int(lvl) >= dims:
            raise DimensionError(f"level {lvl.name} not representable with dims={dims}")
        idx = idx * dims + int(lvl)
    amps = np.zeros(dims**n_ions, dtype=complex)
    amps[idx] = 1.0
    return PureState(n_ions, dims, amps)


def apply_unitary(state: PureState, matrix: np.ndarray, support: Sequence[int]) -> PureState:
    """Apply a unitary acting on ``support`` (validated to 1e-10) to a pure state."""
    sup = _check_support(support, state.n_ions)
    return _apply_checked(state, check_unitary(matrix, state.dims ** len(sup)), sup)


def _apply_checked(state: PureState, matrix: np.ndarray, support: Sequence[int]) -> PureState:
    """:func:`apply_unitary` for a matrix that already passed :func:`check_unitary`
    once, such as a cached compiled gate; only the support is checked."""
    sup = _check_support(support, state.n_ions)
    out = _embed_apply_vec(state.amps, matrix, sup, (state.dims,) * state.n_ions)
    return PureState(state.n_ions, state.dims, out)


def outcome_probabilities(state: PureState, ion: int,
                          partition: Sequence[Iterable[Level | int]]
                          ) -> tuple[list[frozenset[Level]], np.ndarray]:
    """Validated level sets and Born probabilities of measuring one ion.

    ``partition`` is a list of disjoint level sets covering all ``dims``
    levels; the probabilities are normalized by the state's norm and must sum
    to 1.
    """
    sets = [frozenset(Level(l) for l in s) for s in partition]
    seen: set[Level] = set()
    for s in sets:
        if s & seen:
            raise ValueError("partition sets are not disjoint")
        seen |= s
    if seen != {Level(l) for l in range(state.dims)}:
        raise ValueError("partition does not cover all levels of the ion")

    pops = state.level_populations(ion)
    total = pops.sum()
    probs = np.array([sum(pops[int(l)] for l in s) for s in sets]) / total
    if not abs(probs.sum() - 1.0) <= ATOL_TRACE:
        raise ContractViolation("outcome probabilities do not sum to 1")
    return sets, probs


def _outcome_cdf(probs: np.ndarray) -> list[float]:
    """The normalized cdf of outcome probabilities; outcome k is drawn by a
    uniform u exactly when ``bisect_right(cdf, u) == k``, as
    ``rng.choice(len(probs), p=probs / probs.sum())`` picks it from the same u.

    Probabilities must be non-negative and sum to 1 within ATOL_TRACE, so
    NaN and inf raise too.
    """
    entries = probs.tolist()
    total = float(probs.sum())
    if not abs(total - 1.0) <= ATOL_TRACE or min(entries) < 0:
        raise ContractViolation(f"invalid outcome probabilities {entries}")
    # plain floats: for a handful of entries, faster than cumsum
    acc, cdf = 0.0, []
    for p in entries:
        acc += p / total
        cdf.append(acc)
    return [c / acc for c in cdf]


def draw_outcome(probs: np.ndarray, rng: np.random.Generator | None = None,
                 force_outcome: int | None = None) -> int:
    """Index of one outcome: ``force_outcome`` if given, else one ``rng.random()``
    draw against :func:`_outcome_cdf`.  A forced outcome of (numerically) zero
    probability raises.
    """
    cdf = _outcome_cdf(probs)
    if force_outcome is not None:
        outcome = int(force_outcome)
        if probs[outcome] <= ATOL_TRACE:
            raise ContractViolation(
                f"deterministic request of zero-probability branch {outcome}")
        return outcome
    if rng is None:
        raise ValueError("rng required unless force_outcome is given")
    return bisect.bisect_right(cdf, rng.random())


def _level_mask(tens: np.ndarray, axes: Sequence[int], levels: Iterable[Level | int]
                ) -> np.ndarray:
    """``tens``, one axis per ion, with the ions on ``axes`` projected onto
    ``levels``; those axes hold every level, so a level is its own index."""
    picked = [int(Level(l)) for l in levels]
    for axis in axes:
        keep = np.zeros(tens.shape[axis])
        keep[picked] = 1.0
        tens = tens * keep.reshape([-1 if i == axis else 1 for i in range(tens.ndim)])
    return tens


def collapse(state: PureState, ion: int, levels: Iterable[Level | int]) -> PureState:
    """Normalized post-measurement state: ``ion`` projected onto ``levels``."""
    amps = _level_mask(state.amps.reshape([state.dims] * state.n_ions), (ion,), levels)
    return PureState(state.n_ions, state.dims, amps / np.linalg.norm(amps))


def measure_projective(state: PureState, ion: int, partition: Sequence[Iterable[Level | int]],
                       rng: np.random.Generator | None = None,
                       force_outcome: int | None = None
                       ) -> tuple[int, PureState, float]:
    """Projectively measure one ion against a partition of its levels.

    ``partition`` is a list of disjoint level sets covering all ``dims`` levels.
    Returns ``(outcome_index, collapsed_state, exact_probability)``; the
    probability is the Born value, not a sampled frequency.  Passing
    ``force_outcome`` deterministically selects a branch and raises if that
    branch has (numerically) zero probability.
    """
    sets, probs = outcome_probabilities(state, ion, partition)
    outcome = draw_outcome(probs, rng, force_outcome)
    return outcome, collapse(state, ion, sets[outcome]), float(probs[outcome])


_Op = TypeVar("_Op", bound="_Operator")


class _Operator:
    """What :class:`DensityOperator` and :class:`BlockOperator` share: an operator
    on ``n_ions`` ions of ``dims`` levels whose ``mat`` has the register indices
    ``flat`` as its rows and columns, ``shape[i]`` levels of ion i.  Its gates and
    level masks act on the doubled register, row ions then column ions, and
    only on ions that ``shape`` keeps whole."""

    def normalized(self: _Op) -> _Op:
        tr = self.trace()
        if not tr > ATOL_TRACE:
            raise UndefinedExpectationError("cannot normalize zero-trace operator")
        return replace(self, mat=self.mat / tr)

    def apply_operator(self: _Op, matrix: np.ndarray, support: Sequence[int]) -> _Op:
        """rho -> M rho M^dagger with M embedded on ``support`` (no unitarity check):
        M on the row ions ``support``, M* on the column ions."""
        sup = _check_whole(self, support)
        m = np.asarray(matrix, dtype=complex)
        n, doubled = self.n_ions, self.shape * 2
        tens = _embed_apply_vec(self.mat.reshape(-1), m, sup, doubled)
        tens = _embed_apply_vec(tens, m.conj(), tuple(n + i for i in sup), doubled)
        return replace(self, mat=tens.reshape(self.mat.shape))

    def project_levels(self: _Op, ion: int, levels: Iterable[Level | int]) -> _Op:
        """Subnormalized branch after projecting ``ion`` onto a level set: the
        :func:`collapse` mask on the row ion and the column ion ``n + ion``."""
        _check_whole(self, (ion,))
        tens = _level_mask(self.mat.reshape(self.shape * 2), (ion, self.n_ions + ion), levels)
        return replace(self, mat=tens.reshape(self.mat.shape))


@dataclass
class DensityOperator(_Operator):
    """Hermitian operator over the same tensor space as :class:`PureState`.

    Trace may be below 1 for post-selected (subnormalized) branches.
    """

    n_ions: int
    dims: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        if self.dims not in (3, 5):
            raise DimensionError(f"per-ion dimension must be 3 or 5, got {self.dims}")
        self.mat = np.asarray(self.mat, dtype=complex)
        side = self.dims**self.n_ions
        if self.mat.shape != (side, side):
            raise DimensionError("matrix side does not match ion count")

    @property
    def flat(self) -> np.ndarray:
        return np.arange(self.dims**self.n_ions)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dims,) * self.n_ions

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def block(self, whole: Sequence[int]) -> "BlockOperator":
        """The operator on its :func:`_occupied_block` with the ions ``whole`` kept
        at all levels: the one scan of ``mat``."""
        flat = _occupied_block(self.mat, self.n_ions, self.dims, whole)
        return _block_operator(self.n_ions, self.dims, flat, self.mat[np.ix_(flat, flat)])


@dataclass
class BlockOperator(_Operator):
    """A register operator held on one product block of its rows and columns.

    ``mat`` holds the rows and columns ``flat`` (ascending) of the register
    matrix; every entry outside is zero.  Made by :meth:`DensityOperator.block`
    or :meth:`PureState.block`, it runs the register's kernels on the block and
    becomes a register operator again by one scatter (:meth:`register`).
    """

    n_ions: int
    dims: int
    flat: np.ndarray
    shape: tuple[int, ...]
    mat: np.ndarray

    def trace(self) -> float:
        """The register trace: the diagonal scattered into a register-length zero
        vector, so the sum groups its terms as ``np.trace`` of the register
        matrix does."""
        diag = np.zeros(self.dims**self.n_ions, dtype=complex)
        diag[self.flat] = np.diagonal(self.mat)
        return float(np.real(diag.sum()))

    def register(self) -> DensityOperator:
        """The register operator: the block scattered into a zero matrix."""
        side = self.dims**self.n_ions
        out = np.zeros((side, side), dtype=complex)
        out[np.ix_(self.flat, self.flat)] = self.mat
        return DensityOperator(self.n_ions, self.dims, out)


def _check_whole(op: _Operator, ions: Sequence[int]) -> tuple[int, ...]:
    """``ions`` as a checked support that ``op`` keeps at all levels, as a
    kernel that acts on them needs."""
    sup = _check_support(ions, op.n_ions)
    if any(op.shape[i] != op.dims for i in sup):
        raise DimensionError(f"operator of shape {op.shape} does not keep ions {sup} whole")
    return sup


def _occupied_block(mat: np.ndarray, n_ions: int, dims: int, whole: Sequence[int]
                    ) -> np.ndarray:
    """The :func:`_product_block` of every nonzero row and column of ``mat``.

    A NaN compares unequal to zero, so it counts as occupied.  The block is
    closed under any signed permutation that acts on ``whole`` only.
    """
    # the real and imaginary parts compared as floats: cheaper than complex != 0
    nonzero = np.ascontiguousarray(mat, dtype=complex).view(np.float64) != 0
    occupied = nonzero.any(axis=1) | nonzero.any(axis=0).reshape(-1, 2).any(axis=1)
    return _product_block(occupied, n_ions, dims, whole)


def _product_block(occupied: np.ndarray, n_ions: int, dims: int, whole: Sequence[int]
                   ) -> np.ndarray:
    """Flat indices (ascending) of the smallest product block that holds every
    register index marked in the boolean vector ``occupied``, with the ions in
    ``whole`` kept at all levels."""
    occupied = occupied.reshape([dims] * n_ions)
    flat = np.zeros(1, dtype=np.intp)
    for ion in range(n_ions):
        if ion in whole:
            levels = np.arange(dims)
        else:
            others = tuple(i for i in range(n_ions) if i != ion)
            levels = np.flatnonzero(occupied.any(axis=others))
        flat = (flat[:, None] * dims + levels).reshape(-1)
    return flat


def _block_operator(n_ions: int, dims: int, flat: np.ndarray, mat: np.ndarray
                    ) -> BlockOperator:
    """``mat`` on the product block ``flat``, its shape read off the indices' digits."""
    levels = np.zeros((n_ions, dims), dtype=bool)
    digits = flat[:, None] // dims ** np.arange(n_ions - 1, -1, -1) % dims
    levels[np.arange(n_ions), digits] = True
    return BlockOperator(n_ions, dims, flat, tuple(levels.sum(axis=1).tolist()), mat)


def _block_perm(perm: tuple[np.ndarray, np.ndarray], flat: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """A signed permutation ``perm`` = (sigma, phase) of the register, re-indexed
    onto the block ``flat``, which ``sigma`` must map into itself."""
    sigma, phase = perm
    rows = np.searchsorted(flat, sigma[flat])
    if not np.array_equal(flat.take(rows, mode="clip"), sigma[flat]):
        raise DimensionError("block is not closed under the signed permutation")
    return rows, phase[flat]


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Reduced operator on the ``keep`` ions (in the order given)."""
    keep_t = _check_support(keep, rho.n_ions)
    if not keep_t:
        raise ValueError("keep set must be nonempty")
    n, d = rho.n_ions, rho.dims
    tens = rho.mat.reshape([d] * (2 * n))
    drop = [i for i in range(n) if i not in keep_t]
    for off, i in enumerate(sorted(drop, reverse=True)):
        tens = np.trace(tens, axis1=i, axis2=i + (n - off))
    # remaining axes follow the original ion order; permute to requested order
    order = sorted(keep_t)
    perm = [order.index(i) for i in keep_t]
    k = len(keep_t)
    tens = np.transpose(tens, perm + [p + k for p in perm])
    return DensityOperator(k, d, tens.reshape(d**k, d**k))


# ---------------------------------------------------------------------------
# Pauli strings


_PAULI_BLOCKS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


_PAULI_LETTERS = frozenset(_PAULI_BLOCKS)


def truncated_pauli(letter: str, dims: int) -> np.ndarray:
    """Single-ion Pauli acting on {|0>,|1>} and annihilating all other levels.

    The letter ``I`` is the true identity on all levels.
    """
    if letter == "I":
        return np.eye(dims, dtype=complex)
    m = np.zeros((dims, dims), dtype=complex)
    m[:2, :2] = _PAULI_BLOCKS[letter]
    return m


@dataclass(frozen=True)
class PauliString:
    """Pauli word over a register, embedded to annihilate leaked levels."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _PAULI_LETTERS.issuperset(self.letters):
            bad = next(l for l in self.letters if l not in _PAULI_LETTERS)
            raise ValueError(f"invalid Pauli letter {bad!r}")

    @classmethod
    def from_map(cls, n_ions: int, mapping: dict[int, str]) -> "PauliString":
        letters = ["I"] * n_ions
        for ion, letter in mapping.items():
            letters[ion] = letter
        return cls(tuple(letters))

    @property
    def n_ions(self) -> int:
        return len(self.letters)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.letters) if l != "I")

    def commutes(self, other: "PauliString") -> bool:
        """Site-count rule: commute iff the anticommuting sites are even."""
        if self.n_ions != other.n_ions:
            raise ValueError("length mismatch")
        odd = sum(1 for a, b in zip(self.letters, other.letters)
                  if a != "I" and b != "I" and a != b)
        return odd % 2 == 0

    def embedded(self, dims: int) -> np.ndarray:
        return _embedded_cached(self, dims)

    def restricted(self, ions: Sequence[int]) -> "PauliString":
        """The same word re-indexed onto a sub-register given by ``ions``."""
        for i in self.support:
            if i not in ions:
                raise ValueError("support not contained in the sub-register")
        return PauliString(tuple(self.letters[i] for i in ions))

    def __str__(self) -> str:
        return "".join(self.letters)


@lru_cache(maxsize=4096)
def _embedded_cached(pauli: PauliString, dims: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=complex)
    for l in pauli.letters:
        mat = np.kron(mat, truncated_pauli(l, dims))
    mat.setflags(write=False)
    return mat


def _signed_permutation(factors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, phase)`` of the product of single-ion ``factors`` (ion 0 first), each
    with at most one nonzero per column: column i is ``phase[i]`` at row ``sigma[i]``.
    ``sigma`` is the identity on the product's empty columns (its empty rows).  Each
    phase multiplies the factors' entries in ion order, as ``np.kron`` does, so its
    bits, signed zeros too, are the dense product's; no register matrix is formed."""
    dims, n = len(factors[0]), len(factors)
    levels = (np.arange(dims**n)[:, None] // dims ** np.arange(n - 1, -1, -1) % dims).T
    empty = np.any([~(f != 0).any(axis=0)[lv] for f, lv in zip(factors, levels)], axis=0)
    sigma, phase = np.zeros(dims**n, dtype=np.intp), np.ones(dims**n, dtype=complex)
    for f, lv in zip(factors, levels):
        row = np.where(empty, lv, np.argmax(f != 0, axis=0)[lv])
        sigma, phase = sigma * dims + row, phase * f[row, lv]
    sigma.setflags(write=False)
    phase.setflags(write=False)
    return sigma, phase


@lru_cache(maxsize=4096)
def _gather_cached(pauli: PauliString, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The embedded word's :func:`_signed_permutation`, from its truncated letters."""
    return _signed_permutation([truncated_pauli(l, dims) for l in pauli.letters])


def expectation(rho: DensityOperator, obs: PauliString) -> float:
    """Branch-conditioned expectation Tr(rho P)/Tr(rho); leaked population counts 0."""
    if obs.n_ions != rho.n_ions:
        raise ValueError("observable length does not match register")
    tr = np.trace(rho.mat)
    if abs(tr) <= ATOL_TRACE:
        raise UndefinedExpectationError("expectation undefined for zero-trace operator")
    # Tr(rho P) = sum_i rho[i, sigma(i)] P[sigma(i), i]: the diagonal of rho @ P
    sigma, phase = _gather_cached(obs, rho.dims)
    val = (rho.mat[np.arange(len(sigma)), sigma] * phase).sum() / tr
    if not abs(val.imag) <= ATOL_ALGEBRA:
        raise ContractViolation(f"expectation has imaginary part {val.imag:.2e}")
    return float(val.real)


def pure_expectation(state: PureState, obs: PauliString) -> float:
    """Expectation on a pure state (norm-conditioned)."""
    amps = state.amps
    val = np.vdot(amps, _permute_rows(_gather_cached(obs, state.dims), amps))
    nrm = np.vdot(amps, amps).real
    if nrm <= ATOL_TRACE:
        raise UndefinedExpectationError("expectation undefined for zero state")
    val = val / nrm
    if not abs(val.imag) <= ATOL_ALGEBRA:
        raise ContractViolation(f"expectation has imaginary part {val.imag:.2e}")
    return float(val.real)


def _permute_rows(perm: tuple[np.ndarray, np.ndarray], arr: np.ndarray) -> np.ndarray:
    """``P @ arr`` for a signed permutation ``perm`` = (sigma, phase) of P, as
    :func:`_signed_permutation` gives it."""
    sigma, phase = perm
    out = np.empty(arr.shape, dtype=complex)
    out[sigma] = phase.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr
    return out


def _half_projection(perm: tuple[np.ndarray, np.ndarray], arr: np.ndarray, pick: int
                     ) -> np.ndarray:
    """(1 + S)/2 @ arr for ``pick`` 0, (1 - S)/2 @ arr for ``pick`` 1, with the
    Pauli S applied as its signed permutation ``perm``."""
    half = 0.5 * arr
    s_half = 0.5 * _permute_rows(perm, arr)
    return half + s_half if pick == 0 else half - s_half


def _conjugate(perm: tuple[np.ndarray, np.ndarray], mat: np.ndarray) -> np.ndarray:
    """``P @ mat @ P^dagger`` for a signed permutation ``perm`` = (sigma, phase) of P,
    as :func:`_signed_permutation` gives it."""
    sigma, phase = perm
    out = np.empty(mat.shape, dtype=complex)
    out[np.ix_(sigma, sigma)] = phase[:, None] * mat * phase.conj()
    return out


class SeedDomain(IntEnum):
    """The sampled loops, one stream family each; the first word of every
    generator key."""

    PROTOCOL_SHOTS = 0
    SWEEP_SHOTS = 1
    PERCOLATION_SAMPLES = 2
    TABLE_CELLS = 3
    TABLE_RESAMPLING = 4
    PROCESS_TOMOGRAPHY = 5


def seed_for(master_seed: int, domain: SeedDomain, *key: int) -> np.random.Generator:
    """The one generator of a sampled loop: ``SeedSequence(master_seed,
    spawn_key=(domain, *key))`` drives PCG64.

    Each call site names its loop by ``domain`` and a key of fixed length
    (``state_tomography`` and ``resample_errors`` by the empty key); shot i of
    the loop reads row i of one ``random((count, width))`` block, or the
    loop's i-th draw.  With a spawn key, SeedSequence pads the master seed to
    its full pool before it appends the key words, so keys that differ only
    by trailing zeros, or only by domain, draw different streams.  Every key
    entry must be a 32-bit word, so no two keys share their words.
    """
    spawn = (int(domain),) + tuple(int(k) for k in key)
    if not all(0 <= k < 2**32 for k in spawn):
        raise ValueError(f"seed key entries must lie in [0, 2**32), got {spawn}")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=spawn)))
