"""Simulated state and process tomography with linear inversion.

Measurement model: before any tomography setting is evaluated, each
tomographed ion is folded through the readout-boundary map (dark levels
record as |1>, bright as |0>, coherences to non-computational levels are
dropped).  The recorded register is then an ordinary qubit register; a
setting assigns one of {X, Y, Z} to every qubit and yields counts over the
2^n bright/dark outcome strings.  Linear inversion averages every Pauli
word over all compatible settings, so leaked population contaminates
Z-basis counts exactly as a dark readout would, while X/Y words see it as
an unpolarized coin.

The forward map, the inversion and every table column factorize over the
qubits: with P_{s_q,o_q} the eigenprojector qubit q records for outcome
string o under setting s, f_{s,o} the frequency of that outcome and D_{s,o}
= (x)_q (P_{s_q,o_q} - I/3),

    p_{s,o} = Tr(rho (x)_q P_{s_q,o_q}),
    rho_hat = sum_{s,o} f_{s,o} D_{s,o},
    Tr(rho_hat M) = sum_{s,o} f_{s,o} Tr(M D_{s,o}),

so each, like the readout fold, is one single-ion map applied to every ion
in turn (``_per_ion_map``), and the whole (3^n, 2^n) table of p or f is one
array.  A sampled table is one multinomial draw from one generator.  A table
row (Tr(rho_hat M)/Tr(rho_hat) for Pauli words, the code projector and I) is
linear in f, so the rows of a table and of all its resampled redraws are one
matrix product, and no redraw is inverted.

Process tomography is compared against the ideal branch Choi matrices,
which come from the detection branch maps (``channels.branch_maps``) through
``channels.channel_to_choi``; a sampled Choi estimate is made PSD first.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import ChoiMatrix, branch_maps, channel_to_choi, readout_superoperator
from .protocol import (PROCESS_INPUTS, SHOT_PRESETS, CodeDefinition, analytic_run,
                       code_space_projector, detection_process, four_qubit_code,
                       preset_shots, three_qubit_code)
# perfbench's cache-size probe reads the projector cache from this module
from .protocol import _PROJECTOR_CACHE  # noqa: F401
from .qudit import DensityOperator, SeedDomain, partial_trace, seed_for
from .tolerances import ATOL_TRACE

#: +1/-1 eigenprojectors of X, Y and Z, indexed [setting letter][bit]
_PROJECTORS = 0.5 * np.array([[[[1, 1], [1, 1]], [[1, -1], [-1, 1]]],
                              [[[1, -1j], [1j, 1]], [[1, 1j], [-1j, 1]]],
                              [[[2, 0], [0, 0]], [[0, 0], [0, 2]]]])
#: single-qubit factor of the inversion, P - I/3; row 2*s + bit for setting
#: letter s in XYZ order
_INVERSION = (_PROJECTORS - np.eye(2) / 3).reshape(6, 2, 2)
#: single-qubit factor of the forward map, [(a, b), s, bit] = P_{s,bit}[b, a]
_FORWARD = _PROJECTORS.transpose(3, 2, 0, 1).reshape(4, 3, 2)
#: the inversion factor laid out like the forward one, [(a, b), s, bit] =
#: (P_{s,bit} - I/3)[b, a]; maps an operator M to the table Tr(M D_{s,o})
_DUAL = _INVERSION.reshape(3, 2, 2, 2).transpose(3, 2, 0, 1).reshape(4, 3, 2)

Setting = tuple[str, ...]
CountsTable = Mapping[Setting, np.ndarray]


class EmptyBranchError(RuntimeError):
    """Post-selected on a branch that never occurs."""


def settings(n_qubits: int) -> list[Setting]:
    """All 3^n per-qubit basis assignments, enumerated once."""
    return list(itertools.product("XYZ", repeat=n_qubits))


def _per_ion_map(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Apply one single-ion map to every ion of an n-ion tensor.

    ``t`` has axes (a_1..a_n, b_1..b_n); ``m`` has shape (in, r, c) and maps
    one ion's flattened (a, b) pair to an r x c block.  Returns the
    r^n x c^n matrix.
    """
    pairs = [axis for q in range(n) for axis in (q, n + q)]
    t = t.transpose(pairs).reshape((m.shape[0],) * n)
    for _ in range(n):
        t = np.tensordot(t, m, axes=(0, 0))
    rows_cols = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.transpose(rows_cols).reshape(m.shape[1]**n, m.shape[2]**n)


def record_density(rho: DensityOperator, qubits: Sequence[int]) -> np.ndarray:
    """Recorded qubit-register operator (2^k) for the given ions.

    Non-tomographed ions are traced out first; each remaining ion is folded
    through the readout-boundary map sum_K K (.) K^dagger.
    """
    reduced = partial_trace(rho, tuple(qubits))
    dims, k = reduced.dims, reduced.n_ions
    return _per_ion_map(reduced.mat.reshape((dims,) * (2 * k)),
                        readout_superoperator(dims).reshape(-1, 2, 2), k)


def setting_probabilities(rho2: np.ndarray) -> np.ndarray:
    """Outcome probabilities of every setting, as a clipped (3^n, 2^n) table.

    Rows follow ``settings`` order; columns are the outcome bits with qubit 0
    most significant.
    """
    n = rho2.shape[0].bit_length() - 1
    probs = _per_ion_map(rho2.reshape((2,) * (2 * n)), _FORWARD, n).real
    return np.clip(probs, 0.0, None)


def invert_counts(counts: CountsTable,
                  attempted: Mapping[Setting, float] | None = None) -> np.ndarray:
    """Linear-inversion estimate rho_hat = 2^-n sum_W <W> W.

    With ``attempted`` given, counts may undercount (post-selection) and the
    estimate is trace-decreasing accordingly.  Estimates are returned raw
    and may be non-PSD at finite shots.  Negative or non-finite counts, and
    totals that are not positive and finite, raise ValueError.
    """
    n = len(next(iter(counts)))
    keys = settings(n)
    table = np.array([counts[s] for s in keys], dtype=float)
    if not np.all(np.isfinite(table) & (table >= 0)):
        raise ValueError("counts must be finite and non-negative")
    norms = (table.sum(axis=1) if attempted is None
             else np.array([attempted[s] for s in keys], dtype=float))
    for s, norm in zip(keys, norms):
        if not 0 < norm < math.inf:
            raise ValueError(f"setting {s} has total {norm}; it must be positive and finite")
    freqs = table / norms[:, None]
    return _per_ion_map(freqs.reshape((3,) * n + (2,) * n), _INVERSION, n)


def _check_shots(shots: int, name: str) -> None:
    """Reject a shot count that is not an integer >= 0 (numpy integers pass);
    ``multinomial`` would truncate a fractional one without a word."""
    if not isinstance(shots, numbers.Integral) or shots < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {shots!r}")


def sample_counts(rho2: np.ndarray, shots: int | np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Multinomial counts of every setting, as a (3^n, 2^n) table.

    ``shots`` is one total for all settings or one per setting; the whole
    table is a single draw from ``rng``.
    """
    probs = setting_probabilities(rho2)
    return rng.multinomial(shots, probs / probs.sum(axis=1, keepdims=True)).astype(float)


def state_tomography(rho: DensityOperator, qubits: Sequence[int] | None = None,
                     shots_per_setting: int = 0, seed: int = 0
                     ) -> tuple[np.ndarray, dict[Setting, np.ndarray]]:
    """Reconstruct the recorded register state by linear inversion.

    ``shots_per_setting`` of 0 selects exact-probability mode, which
    reproduces the true computational-subspace density operator; finite
    shots sample every setting multinomially, in one draw from ``seed_for(seed,
    SeedDomain.TABLE_CELLS)`` with the empty key.  Returns (estimate, counts).
    """
    _check_shots(shots_per_setting, "shots_per_setting")
    qs = tuple(qubits) if qubits is not None else tuple(range(rho.n_ions))
    rho2 = record_density(rho.normalized(), qs)
    table = (setting_probabilities(rho2) if shots_per_setting == 0
             else sample_counts(rho2, shots_per_setting,
                                seed_for(seed, SeedDomain.TABLE_CELLS)))
    counts = dict(zip(settings(len(qs)), table))
    return invert_counts(counts), counts


def _resampled_tables(table: np.ndarray, iterations: int, rng: np.random.Generator
                      ) -> np.ndarray:
    """(iterations, *table.shape) redraws of ``table``, each row with its own
    positive total, in one multinomial call: iteration ``it`` is row ``it``
    of the draw, so the first n iterations of a longer draw are an n-fold one."""
    totals = table.sum(axis=1)
    probs, shots = table / totals[:, None], np.rint(totals).astype(np.int64)
    return rng.multinomial(shots, probs, size=(iterations, len(table))).astype(float)


def resample_errors(counts: CountsTable,
                    statistic: Callable[[CountsTable], Mapping[str, float]],
                    iterations: int = 100, seed: int = 0) -> dict[str, float]:
    """Multinomial-resampling standard deviations of derived observables.

    Each setting's counts are redrawn from a multinomial with its own total,
    all settings in sorted order by one draw per iteration (the stream of
    ``table_report``'s errors); ``statistic`` maps one counts table to named
    observables and runs once per iteration.  All iterations are one draw
    from ``seed_for(seed, SeedDomain.TABLE_RESAMPLING)`` with the empty key,
    iteration ``it`` on row ``it``, so the result is deterministic for a
    fixed (counts, seed).  Fewer than two iterations, or a setting with all-zero
    counts, raise ValueError.
    """
    if iterations < 2:
        raise ValueError(f"iterations must be >= 2 for a standard deviation, got {iterations}")
    keys = sorted(counts)
    table = np.array([counts[s] for s in keys], dtype=float)
    totals = table.sum(axis=1)
    if not np.all(totals > 0):
        raise ValueError(f"setting {keys[np.argmin(totals > 0)]} has all-zero counts")
    samples: dict[str, list[float]] = {}
    for draws in _resampled_tables(table, iterations,
                                   seed_for(seed, SeedDomain.TABLE_RESAMPLING)):
        stats = statistic(dict(zip(keys, draws)))
        for name, val in stats.items():
            samples.setdefault(name, []).append(float(val))
    return {name: float(np.std(vals)) for name, vals in samples.items()}


# ---------------------------------------------------------------------------
# process fidelity


def process_fidelity(choi_a: ChoiMatrix | np.ndarray,
                     choi_b: ChoiMatrix | np.ndarray) -> float:
    """Overlap Tr(AB)/(Tr A Tr B); the fidelity with a rank-1 target B only when A
    is positive semidefinite.

    For a PSD A the value lies in [0, 1]; for a non-PSD one, such as a raw
    linear inversion, it can exceed 1.
    """
    a = choi_a.matrix if isinstance(choi_a, ChoiMatrix) else np.asarray(choi_a)
    b = choi_b.matrix if isinstance(choi_b, ChoiMatrix) else np.asarray(choi_b)
    den = float(np.real(np.trace(a)) * np.real(np.trace(b)))
    if not (den > 0 and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("process fidelity undefined for zero-trace or non-finite input")
    return float(np.real(np.trace(a @ b))) / den


# ---------------------------------------------------------------------------
# generalized single-qubit process tomography


def process_tomography(phi: float, post_select: int, shots: int = 0, seed: int = 0
                       ) -> tuple[ChoiMatrix, dict]:
    """Reconstruct the Choi matrix of the loss-detection process on qubit 1.

    Inputs {|0>, |1>, |+>, |+i>} are prepared, the detection unit runs, the
    ancilla outcome is post-selected, and the surviving fraction is tracked
    so the reconstruction is trace-non-increasing.  ``shots`` = 0 selects
    exact-probability mode, which reproduces the ideal branch Choi matrices:
    the Choi matrix is linear in the four unnormalised branch outputs, so
    every input keeps its own, however small, and the branch is empty only
    when the whole Choi trace is at most ATOL_TRACE.  It runs on the probed
    qubit and the ancilla, as ``detection_process`` explains.  Sampled inputs
    draw in ``PROCESS_INPUTS`` order from one generator, ``seed_for(seed,
    SeedDomain.PROCESS_TOMOGRAPHY, post_select, lo, hi)`` with ``lo`` and
    ``hi`` the low and high 32-bit words of φ's float64 bits (-0.0 reads as
    0.0, so equal angles share a stream): each input its retained shots per
    setting, then their counts; an input of branch probability at most
    ATOL_TRACE draws nothing.  An empty branch, or a sampled one empty for
    every input or that retains no shot of any input, raises
    ``EmptyBranchError``.  A sampled estimate is the linear inversion projected
    onto the PSD matrices of its trace (``_nearest_psd``).
    """
    if post_select not in (0, 1):
        raise ValueError("post_select is the ancilla outcome to keep, 0 or 1, "
                         f"got {post_select}")
    _check_shots(shots, "shots")
    est: dict[str, np.ndarray] = {}
    details: dict = {"phi": phi, "post_select": post_select, "inputs": {}}
    total_weight = 0.0
    retained = 0
    bits = int(np.float64(phi + 0.0).view(np.uint64))
    rng = seed_for(seed, SeedDomain.PROCESS_TOMOGRAPHY, post_select,
                   bits & 0xFFFFFFFF, bits >> 32)
    for label in PROCESS_INPUTS:
        prob, rho_q = detection_process(phi, label, post_select)
        details["inputs"][label] = {"branch_probability": prob}
        rec = record_density(rho_q, (0,))  # 2x2, trace = branch probability
        if shots == 0:
            est[label] = rec
            continue
        total_weight += prob
        if prob <= ATOL_TRACE:
            est[label] = np.zeros((2, 2), dtype=complex)
            continue
        # each input in turn: the retained shots of the three settings, then
        # their counts
        kept = rng.binomial(shots, prob, size=3)
        retained += kept.sum()
        table = sample_counts(rec, kept, rng)
        counts = dict(zip(settings(1), table))
        est[label] = invert_counts(counts, dict.fromkeys(counts, float(shots)))
        details["inputs"][label]["counts"] = {"".join(k): v.tolist()
                                              for k, v in counts.items()}
    if shots and total_weight <= ATOL_TRACE:
        raise EmptyBranchError(
            f"post-selected branch {post_select} is empty for every input")
    if shots and not retained:
        raise EmptyBranchError(
            f"post-selected branch {post_select} retained no shot of any input")

    e00, e11 = est["0"], est["1"]
    s = e00 + e11
    e01 = 0.5 * ((2 * est["+"] - s) + 1j * (2 * est["+i"] - s))
    # Choi entry (2r + i, 2c + j) is half of block (i, j)'s entry (r, c)
    blocks = np.array([[e00, e01], [e01.conj().T, e11]])
    choi = ChoiMatrix(0.5 * blocks.transpose(2, 0, 3, 1).reshape(4, 4))
    if shots:
        return ChoiMatrix(_nearest_psd(choi.matrix)), details
    if choi.trace() <= ATOL_TRACE:
        raise EmptyBranchError(f"post-selected branch {post_select} is empty")
    return choi, details


def _nearest_psd(mat: np.ndarray) -> np.ndarray:
    """The positive semidefinite matrix of ``mat``'s trace nearest to the
    Hermitian ``mat`` (Smolin, Gambetta and Smith, PRL 108, 070502 (2012)):
    the most negative eigenvalues become zero and their sum is spread evenly
    over the rest."""
    vals, vecs = np.linalg.eigh(mat)  # ascending
    k, spread = 0, 0.0
    while k < len(vals) - 1 and vals[k] + spread / (len(vals) - k) < 0:
        spread += vals[k]
        k += 1
    vals = np.concatenate([np.zeros(k), vals[k:] + spread / (len(vals) - k)])
    return (vecs * vals) @ vecs.conj().T


def ideal_branch_choi(phi: float, branch: int) -> ChoiMatrix:
    """Choi matrix of detection branch map ``branch`` (0: no loss, 1: loss)."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return channel_to_choi([branch_maps(phi)[branch]])


# ---------------------------------------------------------------------------
# table report (encoding / no-loss / loss sections per logical input state)


TABLE_COLUMNS = ("P_CS", "S1X", "S1Z", "S2Z", "TX", "TY", "TZ")


@dataclass
class TableRow:
    section: str           # "encoding" | "no_loss" | "loss"
    alpha: float
    phi: float | None
    values: dict[str, float]
    errors: dict[str, float] | None = None


def _branch_row_values(obs: dict[str, float]) -> dict[str, float]:
    return {col: obs.get(col, float("nan")) for col in TABLE_COLUMNS}


def table_report(alphas: Sequence[float] = (0.0, math.pi, math.pi / 2),
                 phis: Sequence[float] | None = None,
                 noise=None, seed: int = 0, sampled: bool = False,
                 shots_per_setting: Mapping[float, int] | None = None
                 ) -> list[TableRow]:
    """Observable tables for each logical input state and loss rate.

    In analytic mode values are the exact engine predictions.  In sampled
    mode each branch state is measured with finite shots (the cycle preset of
    the nearest loss rate, with the ``shots_per_setting`` entries merged into
    the presets; at least 1 per setting) and errors are the standard
    deviations over 100 multinomial resampling iterations; every row is a
    linear functional of its frequency table, so neither the resampled
    tables nor the point table are inverted.  Cell (a_idx, p_idx, branch b)
    draws its counts in one call from ``seed_for(seed, SeedDomain.TABLE_CELLS,
    a_idx, p_idx, b)``, and its 100 resampled tables in one call from
    ``seed_for(seed, SeedDomain.TABLE_RESAMPLING, a_idx, p_idx, b)``,
    iteration ``it`` on row ``it``.
    """
    presets = dict(SHOT_PRESETS)
    if shots_per_setting:
        for n in shots_per_setting.values():
            _check_shots(n, "shots_per_setting")
        presets.update(shots_per_setting)
    if phis is None:
        phis = list(SHOT_PRESETS)
    shots = [preset_shots(phi, presets) for phi in phis]
    if sampled and min(shots, default=1) < 1:
        raise ValueError(f"sampled cells need >= 1 shot per setting, got {min(shots)}")

    codes = (four_qubit_code(), three_qubit_code())
    functionals = [_row_functionals(code) for code in codes] if sampled else []
    rows: list[TableRow] = []
    for a_idx, alpha in enumerate(alphas):
        for p_idx, phi in enumerate(phis):
            res = analytic_run(alpha, phi, noise)
            if p_idx == 0:
                rows.append(TableRow("encoding", alpha, None,
                                     _branch_row_values(res.encoding)))
            for b, (section, summary, rho) in enumerate((
                    ("no_loss", res.no_loss, res.rho_no_loss),
                    ("loss", res.loss, res.rho_loss))):
                if not summary.observables:
                    continue
                if not sampled:
                    rows.append(TableRow(section, alpha, phi,
                                         _branch_row_values(summary.observables)))
                    continue
                cell = (a_idx, p_idx, b)
                table = sample_counts(record_density(rho.normalized(), codes[b].qubits),
                                      shots[p_idx],
                                      seed_for(seed, SeedDomain.TABLE_CELLS, *cell))
                # each redraw keeps its row totals
                totals = table.sum(axis=1, keepdims=True)
                vals = _row_values(table / totals, functionals[b])
                redraws = _resampled_tables(
                    table, 100, seed_for(seed, SeedDomain.TABLE_RESAMPLING, *cell))
                stds = np.std(_row_values(redraws / totals, functionals[b]), axis=0)
                rows.append(TableRow(section, alpha, phi,
                                     dict(zip(TABLE_COLUMNS, vals.tolist())),
                                     dict(zip(TABLE_COLUMNS, stds.tolist()))))
    return rows


def _row_functionals(code: CodeDefinition) -> np.ndarray:
    """The (1 + len(TABLE_COLUMNS), 6^n) stack of a code's flattened tables
    Tr(M D_{s,o}): M = I first, then each column's operator on the code
    qubits (NaN where the code has no such column)."""
    n, qubits = len(code.qubits), code.qubits
    ops = {name: p.restricted(qubits).embedded(2)
           for name, p in code.all_observables().items()}
    ops["P_CS"] = code_space_projector(
        [g.restricted(qubits) for g in code.stabilizers.values()], 2)
    funcs = np.full((1 + len(TABLE_COLUMNS), 6**n), np.nan)
    for k, mat in enumerate([np.eye(2**n)] + [ops.get(col) for col in TABLE_COLUMNS]):
        if mat is not None:
            # real for Hermitian M
            funcs[k] = _per_ion_map(mat.reshape((2,) * (2 * n)), _DUAL, n).real.ravel()
    return funcs


def _row_values(freqs: np.ndarray, funcs: np.ndarray) -> np.ndarray:
    """Columns Tr(rho_hat M)/Tr(rho_hat) of (..., 3^n, 2^n) frequency tables."""
    traces = freqs.reshape(*freqs.shape[:-2], -1) @ funcs.T
    return traces[..., 1:] / traces[..., :1]
