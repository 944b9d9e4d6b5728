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

Occupied blocks: an elementwise density kernel that acts on some ions keeps
every level of those ions, and of every other ion only the levels that some
nonzero row or column of its input uses (:func:`_occupied_block`).  It runs
its arithmetic on that product block and scatters the result into a zero
matrix, so every entry in the block takes the same operations as on the
whole register and every entry outside it is +0.0.  A block that is the
whole register is the input matrix itself.  Matrix products stay on the
whole register: a BLAS product's bits can depend on the matrix width.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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
                     n_ions: int, dims: int) -> np.ndarray:
    """Apply ``matrix`` (acting on the ions in ``support``) to a flat amplitude vector."""
    k = len(support)
    tens = amps.reshape([dims] * n_ions)
    rest = [i for i in range(n_ions) if i not in support]
    perm = list(support) + rest
    tens = np.transpose(tens, perm).reshape(dims**k, -1)
    tens = matrix @ tens
    tens = tens.reshape([dims] * n_ions)
    inv = np.argsort(perm)
    return np.transpose(tens, inv).reshape(-1)


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
    out = _embed_apply_vec(state.amps, matrix, sup, state.n_ions, state.dims)
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


def draw_outcome(probs: np.ndarray, rng: np.random.Generator | None = None,
                 force_outcome: int | None = None) -> int:
    """Index of one outcome: ``force_outcome`` if given, else one ``rng.random()`` draw.

    The drawn index, and the generator state after it, are those of
    ``rng.choice(len(probs), p=probs / probs.sum())``: the first entry of the
    normalized cdf above the uniform draw.  Probabilities must be
    non-negative and sum to 1 within ATOL_TRACE, so NaN and inf raise too; a
    forced outcome of (numerically) zero probability raises.
    """
    entries = probs.tolist()
    total = float(probs.sum())
    if not abs(total - 1.0) <= ATOL_TRACE or min(entries) < 0:
        raise ContractViolation(f"invalid outcome probabilities {entries}")
    if force_outcome is not None:
        outcome = int(force_outcome)
        if probs[outcome] <= ATOL_TRACE:
            raise ContractViolation(
                f"deterministic request of zero-probability branch {outcome}")
        return outcome
    if rng is None:
        raise ValueError("rng required unless force_outcome is given")
    # plain floats: for a handful of entries, faster than cumsum and searchsorted
    acc, cdf = 0.0, []
    for p in entries:
        acc += p / total
        cdf.append(acc)
    return bisect.bisect_right([c / acc for c in cdf], rng.random())


def collapse(state: PureState, ion: int, levels: Iterable[Level | int]) -> PureState:
    """Normalized post-measurement state: ``ion`` projected onto ``levels``."""
    keep = np.zeros(state.dims)
    for l in levels:
        keep[int(l)] = 1.0
    tens = state.amps.reshape([state.dims] * state.n_ions)
    shape = [1] * state.n_ions
    shape[ion] = state.dims
    tens = tens * keep.reshape(shape)
    amps = tens.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return PureState(state.n_ions, state.dims, amps)


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


@dataclass
class DensityOperator:
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

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def normalized(self) -> "DensityOperator":
        tr = self.trace()
        if not tr > ATOL_TRACE:
            raise UndefinedExpectationError("cannot normalize zero-trace operator")
        return DensityOperator(self.n_ions, self.dims, self.mat / tr)

    def apply_operator(self, matrix: np.ndarray, support: Sequence[int]) -> "DensityOperator":
        """rho -> M rho M^dagger with M embedded on ``support`` (no unitarity check)."""
        sup = _check_support(support, self.n_ions)
        n, d = self.n_ions, self.dims
        k = len(sup)
        mk = np.asarray(matrix, dtype=complex).reshape([d] * (2 * k))
        in_axes = list(range(k, 2 * k))
        tens = self.mat.reshape([d] * (2 * n))
        # rows (ket side), then columns (bra side, conjugated)
        tens = np.moveaxis(np.tensordot(mk, tens, axes=(in_axes, list(sup))),
                           range(k), sup)
        col_axes = [n + i for i in sup]
        tens = np.moveaxis(np.tensordot(mk.conj(), tens, axes=(in_axes, col_axes)),
                           range(k), col_axes)
        side = d**n
        return DensityOperator(n, d, tens.reshape(side, side))

    def project_levels(self, ion: int, levels: Iterable[Level | int]) -> "DensityOperator":
        """Subnormalized branch after projecting ``ion`` onto a level set."""
        keep = np.zeros(self.dims)
        for l in levels:
            keep[int(Level(l))] = 1.0
        d = self.dims**self.n_ions
        tens = self.mat.reshape([self.dims] * (2 * self.n_ions))
        shape_row = [1] * (2 * self.n_ions)
        shape_row[ion] = self.dims
        shape_col = [1] * (2 * self.n_ions)
        shape_col[self.n_ions + ion] = self.dims
        tens = tens * keep.reshape(shape_row) * keep.reshape(shape_col)
        return DensityOperator(self.n_ions, self.dims, tens.reshape(d, d))


def _occupied_block(mat: np.ndarray, n_ions: int, dims: int, whole: Sequence[int]
                    ) -> np.ndarray:
    """Flat indices (ascending) of the smallest product block that holds every
    nonzero row and column of ``mat``, with the ions in ``whole`` kept at all
    levels.

    A NaN compares unequal to zero, so it counts as occupied.  The block is
    closed under any signed permutation that acts on ``whole`` only.
    """
    nonzero = mat != 0
    occupied = (nonzero.any(axis=0) | nonzero.any(axis=1)).reshape([dims] * n_ions)
    flat = np.zeros(1, dtype=np.intp)
    for ion in range(n_ions):
        if ion in whole:
            levels = np.arange(dims)
        else:
            others = tuple(i for i in range(n_ions) if i != ion)
            levels = np.flatnonzero(occupied.any(axis=others))
        flat = (flat[:, None] * dims + levels).reshape(-1)
    return flat


def _block_perm(perm: tuple[np.ndarray, np.ndarray], flat: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """A signed permutation ``perm`` = (sigma, phase) of the register, re-indexed
    onto the block ``flat`` of :func:`_occupied_block`, which it maps into itself."""
    sigma, phase = perm
    return np.searchsorted(flat, sigma[flat]), phase[flat]


def _on_block(mat: np.ndarray, flat: np.ndarray,
              kernel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``kernel`` run on the ``flat`` block of ``mat`` and scattered into a zero
    matrix; ``kernel(mat)`` itself when the block is the whole register."""
    if len(flat) == len(mat):
        return kernel(mat)
    out = np.zeros(mat.shape, dtype=complex)
    out[np.ix_(flat, flat)] = kernel(mat[np.ix_(flat, flat)])
    return out


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
        for l in self.letters:
            if l not in "IXYZ":
                raise ValueError(f"invalid Pauli letter {l!r}")

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


@lru_cache(maxsize=4096)
def _gather_cached(pauli: PauliString, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, phase)``: column i of the embedded word is ``phase[i]`` at row ``sigma[i]``.

    A truncated Pauli word has at most one nonzero entry (+-1, +-i) per
    column, and its empty columns are its empty rows, so ``sigma`` (the
    identity on them, with phase 0) is a permutation.
    """
    mat = pauli.embedded(dims)
    nonzero = mat != 0
    cols = np.arange(len(mat))
    sigma = np.where(nonzero.any(axis=0), np.argmax(nonzero, axis=0), cols)
    phase = mat[sigma, cols]
    sigma.setflags(write=False)
    phase.setflags(write=False)
    return sigma, phase


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
    :func:`_gather_cached` gives it."""
    sigma, phase = perm
    out = np.empty(arr.shape, dtype=complex)
    out[sigma] = phase.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr
    return out


def _conjugate(perm: tuple[np.ndarray, np.ndarray], mat: np.ndarray) -> np.ndarray:
    """``P @ mat @ P^dagger`` for a signed permutation ``perm`` = (sigma, phase) of P,
    as :func:`_gather_cached` gives it."""
    sigma, phase = perm
    out = np.empty(mat.shape, dtype=complex)
    out[np.ix_(sigma, sigma)] = phase[:, None] * mat * phase.conj()
    return out


def seed_for(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-task generator: SeedSequence((master, *key))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed,) + key)))


#: indices that `seed_streams` hashes in one vectorised pass
_SEED_CHUNK = 4096
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from one key entry."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_keys(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of ``steps`` successive SeedSequence hash
    steps: step k xors with init*mult**k and multiplies by init*mult**(k+1),
    mod 2**32."""
    keys = [init]
    for _ in range(steps):
        keys.append(keys[-1] * mult & _MASK32)
    cols = np.array(keys, dtype=np.uint32)[:, None]
    return cols[:-1], cols[1:]


def _seed_sequence_state(entropy: np.ndarray) -> list[list[int]]:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of many keys at once:
    column j of the (words, keys) uint32 array ``entropy`` is the entropy of
    key j.  Returns the four state words, each as a list over the keys."""
    n_words, n_keys = entropy.shape
    xor, mul = _hash_keys(_INIT_A, _MULT_A, 16 + 4 * max(n_words - 4, 0))

    def hashmix(v: np.ndarray, step: int, rows: int) -> np.ndarray:
        # ``rows`` steps from ``step`` on, one per row of the result
        v = (v ^ xor[step:step + rows]) * mul[step:step + rows]
        return v ^ (v >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    # the 4-word pool hashes zeros where the entropy is shorter; each pool
    # word then mixes into the other three, and each later entropy word into
    # all four, one hash step per (source, destination) pair in numpy's order
    pool = np.zeros((4, n_keys), dtype=np.uint32)
    pool[:n_words] = entropy[:4]
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src:src + 1], 4 + 3 * src, 3))
    for k in range(4, n_words):
        pool = mix(pool, hashmix(entropy[k:k + 1], 16 + 4 * (k - 4), 4))
    xor, mul = _hash_keys(_INIT_B, _MULT_B, 8)
    out = (np.tile(pool, (2, 1)) ^ xor) * mul
    out = (out ^ (out >> 16)).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).tolist()


def seed_streams(master_seed: int, *prefix: int, count: int) -> Iterator[np.random.Generator]:
    """For i in range(count), a generator that draws bit for bit what
    ``seed_for(master_seed, *prefix, i)`` draws.

    The SeedSequence hash runs once per chunk of indices in uint32
    arithmetic, and PCG64's seeding step in Python ints.  The one Generator
    it yields is re-seeded in place, so each must be used before the next
    is drawn.  A negative entry raises SeedSequence's ValueError.
    """
    words = [w for v in (master_seed,) + prefix for w in _uint32_words(v)]
    if count > 2**32:
        raise ValueError(f"count must be at most 2**32, got {count}")
    bitgen = np.random.PCG64(0)  # its state is replaced before the first draw
    rng = np.random.Generator(bitgen)
    for start in range(0, count, _SEED_CHUNK):
        index = np.arange(start, min(start + _SEED_CHUNK, count), dtype=np.uint32)
        entropy = np.empty((len(words) + 1, len(index)), dtype=np.uint32)
        entropy[:-1], entropy[-1] = np.array(words, dtype=np.uint32)[:, None], index
        for s0, s1, i0, i1 in zip(*_seed_sequence_state(entropy)):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
