"""The 1+4-qubit loss detection and correction program.

Register layout: ions 0..3 are the code qubits (qubit 1 of the minimal
surface-code patch is ion 0, the only ion probed for loss), ion 4 is the
readout ancilla.  The pipeline is

    encode -> controlled loss on ion 0 -> QND detection (ancilla readout,
    feed-forward) -> either verify the 4-qubit code (no-loss branch) or
    measure the shrunk stabilizer and update the Pauli frame (loss branch).

Both a sampled trajectory mode and an exact density mode are provided; the
density mode is the oracle for the trajectories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import NoiseModel, _extended_gather, mixing_probability, qnd_noise_mixture
from .gates import (GateOp, Register, addressed_z, collective_rotation, compile_gate,
                    loss_rotation, ms_gate)
from .qudit import (BlockOperator, DensityOperator, Level, PauliString, PureState,
                    SeedDomain, UndefinedExpectationError, _block_perm, _conjugate,
                    _gather_cached, _half_projection, _outcome_cdf, _permute_rows, collapse,
                    draw_outcome, expectation, make_state, measure_projective,
                    outcome_probabilities, partial_trace, pure_expectation,
                    readout_partition, seed_for)
from .tolerances import ATOL_ALGEBRA, ATOL_LEAK_GUARD, ATOL_PSD, ATOL_TRACE

N_IONS = 5
ANCILLA = 4
CODE_QUBITS = (0, 1, 2, 3)
SURVIVING_QUBITS = (1, 2, 3)


class ProtocolError(RuntimeError):
    """The protocol was driven outside its state machine."""


# ---------------------------------------------------------------------------
# code definitions


@dataclass(frozen=True)
class CodeDefinition:
    """Stabilizer generators and logical operators of one encoding."""

    name: str
    qubits: tuple[int, ...]
    stabilizers: dict[str, PauliString]
    logicals: dict[str, PauliString]

    def validate(self) -> None:
        gens = list(self.stabilizers.values())
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if not g.commutes(h):
                    raise ValueError(f"generators {g} and {h} do not commute")
            for l in self.logicals.values():
                if not g.commutes(l):
                    raise ValueError(f"logical {l} does not commute with {g}")
        if self.logicals["TX"].commutes(self.logicals["TZ"]):
            raise ValueError("TX and TZ must anticommute")

    def all_observables(self) -> dict[str, PauliString]:
        return {**self.stabilizers, **self.logicals}


_PROJECTOR_CACHE: dict[tuple, np.ndarray] = {}


def code_space_projector(gens: Iterable[PauliString], dims: int) -> np.ndarray:
    """Product of (1+S)/2 over the generators ``gens`` (validated to commute): from
    the identity, P <- (1+S)/2 P through ``qudit._half_projection``.  Every entry
    is a dyadic rational, so the sums are exact."""
    gens = tuple(gens)
    key = (gens, dims)
    cached = _PROJECTOR_CACHE.get(key)
    if cached is not None:
        return cached
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if not g.commutes(h):
                raise ValueError("code generators do not commute")
    proj = np.eye(dims ** gens[0].n_ions, dtype=complex)
    for g in gens:
        proj = _half_projection(_gather_cached(g, dims), proj, 0)
    proj.setflags(write=False)
    _PROJECTOR_CACHE[key] = proj
    return proj


def code_space_population(rho: DensityOperator, code: CodeDefinition) -> float:
    """Tr(rho P_CS)/Tr(rho) with P_CS the product of (1+S)/2 projectors."""
    proj = code_space_projector(code.stabilizers.values(), rho.dims)
    tr = rho.trace()
    if tr <= ATOL_TRACE:
        raise UndefinedExpectationError("P_CS undefined for zero-trace operator")
    # the trace alone: no dense d^3 product
    val = float(np.real(np.einsum("ij,ji->", rho.mat, proj))) / tr
    if not -ATOL_PSD <= val <= 1.0 + ATOL_PSD:
        raise ValueError(f"P_CS {val} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def _code(name: str, n_ions: int, qubits: tuple[int, ...]) -> CodeDefinition:
    """Z checks from the first qubit to each middle one and X on all of
    ``qubits``; TX = X_last, TZ = Z_first Z_last, TY = i TX TZ = Z_first Y_last."""
    first, *middle, last = qubits
    p = lambda m: PauliString.from_map(n_ions, m)
    stabilizers = {f"S{i}Z": p({first: "Z", q: "Z"}) for i, q in enumerate(middle, 1)}
    stabilizers["S1X"] = p(dict.fromkeys(qubits, "X"))
    logicals = {"TX": p({last: "X"}), "TZ": p({first: "Z", last: "Z"}),
                "TY": p({first: "Z", last: "Y"})}
    code = CodeDefinition(name, qubits, stabilizers, logicals)
    code.validate()
    return code


@lru_cache(maxsize=None)
def four_qubit_code() -> CodeDefinition:
    """The one-plaquette patch: {Z1Z2, Z1Z3, X1X2X3X4} on ions 0..3."""
    return _code("four_qubit", N_IONS, CODE_QUBITS)


@lru_cache(maxsize=None)
def three_qubit_code() -> CodeDefinition:
    """The reconstructed code on the surviving qubits: {Z2Z3, X2X3X4}."""
    return _code("three_qubit", N_IONS, SURVIVING_QUBITS)


# ---------------------------------------------------------------------------
# encoding


def logical_target(alpha: float, n_ions: int = N_IONS,
                   qubits: tuple[int, ...] = CODE_QUBITS) -> PureState:
    """Analytic logical state cos(a/2)|0_L> + i sin(a/2)|1_L> on ``qubits``.

    |0_L> = (|0..0> + |1..1>)/sqrt(2) on the code qubits, and |1_L> flips
    the last of them; every other ion is in |0>.  The defaults give the
    4-qubit code with the ancilla; ``n_ions=3, qubits=(0, 1, 2)`` gives the
    3-qubit code after reconstruction.
    """
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    amps = np.zeros(3**n_ions, dtype=complex)
    strides = [3 ** (n_ions - 1 - q) for q in qubits]
    ones, last = sum(strides), strides[-1]
    amps[0] = amps[ones] = c / math.sqrt(2)
    amps[last] = amps[ones - last] = 1j * s / math.sqrt(2)
    return PureState(n_ions, 3, amps)


def encode_ops(alpha: float) -> list[GateOp]:
    """Toolbox realization of the encoding (MS + addressed Z + local X rotation)."""
    return [
        ms_gate(math.pi / 2, CODE_QUBITS),
        addressed_z(-math.pi / 2, 3),
        collective_rotation("X", -alpha, (3,)),
    ]


def encode(alpha: float) -> PureState:
    """Encode cos(a/2)|0_L> + i sin(a/2)|1_L> on ions 0-3; ancilla stays |0>."""
    return Register(make_state(N_IONS, 3, [0] * N_IONS)).run(encode_ops(alpha))


def apply_loss(state: PureState, phi: float) -> PureState:
    """The controlled loss rotation by ``phi`` on ion 0, the probed ion."""
    return Register(state).run([loss_rotation(phi, 0)])


# ---------------------------------------------------------------------------
# QND detection


def detection_ops(support: Sequence[int]) -> list[GateOp]:
    """The detection circuit: MS^X(pi) on ``support``, then the collective bit flip.

    ``support`` is the probed qubit and the ancilla, plus any spectator the
    circuit reaches (unhidden, or hidden by five-level pulses).
    """
    return [ms_gate(math.pi, support), collective_rotation("X", math.pi, support)]


def _detect(state: PureState, support: Sequence[int]) -> PureState:
    """Pre-readout state of the detection circuit on ``support``, whose last ion
    is the ancilla; an ancilla with population outside the computational
    subspace raises ``ProtocolError``."""
    out = Register(state).run(detection_ops(support))
    stray = out.level_populations(support[-1])[2:].sum()
    if not stray <= ATOL_LEAK_GUARD:
        raise ProtocolError(
            f"ancilla has population {stray:.2e} outside the computational subspace")
    return out


@dataclass
class DetectResult:
    branch: str               # "loss" | "no_loss"
    ancilla_outcome: int      # 1 -> loss
    state: PureState
    probability: float        # exact Born probability of this branch


def _detection_unit(state: PureState
                    ) -> tuple[PureState, list[frozenset[Level]], np.ndarray]:
    """Pre-readout state of the detection unit, with its ancilla readout sets and
    their probabilities."""
    pre = _detect(state, (0, ANCILLA))
    sets, probs = outcome_probabilities(pre, ANCILLA, readout_partition(state.dims))
    return pre, sets, probs


def qnd_detect(state: PureState, rng: np.random.Generator | None = None,
               force_branch: str | None = None) -> DetectResult:
    """Run the detection unit and measure the ancilla.

    The detection gates act on the probed qubit and the ancilla only, which
    is how the ideal engine models the other ions as hidden.
    """
    force = None if force_branch is None else int(force_branch == "loss")
    outcome, post, prob = measure_projective(_detect(state, (0, ANCILLA)), ANCILLA,
                                             readout_partition(state.dims), rng, force)
    return DetectResult("loss" if outcome == 1 else "no_loss", outcome, post, prob)


def qnd_detect_density(state: PureState | DensityOperator
                       ) -> tuple[float, BlockOperator, float, BlockOperator]:
    """Exact branch split: (p_loss, rho_loss, p_no_loss, rho_no_loss), renormalized.

    The gates and the readout run on one occupied block of ``state`` that keeps
    the probed ion and the ancilla whole (see ``qudit``), and returns both branches
    on it.  A pure state gives the block of its density matrix, read off its
    amplitudes, so both inputs split alike bit for bit.
    """
    block = state.block((0, ANCILLA))
    for op in detection_ops((0, ANCILLA)):
        block = block.apply_operator(compile_gate(op, state.dims), op.support)
    bright, dark = readout_partition(state.dims)
    rho_nl = block.project_levels(ANCILLA, bright)
    rho_l = block.project_levels(ANCILLA, dark)
    p_nl, p_l = rho_nl.trace(), rho_l.trace()
    total = block.trace()
    if not abs(p_nl + p_l - total) <= 1e-9:  # pragma: no cover - safety net
        raise ProtocolError("branch probabilities do not sum to the input trace")
    rho_l_n = rho_l.normalized() if p_l > ATOL_TRACE else rho_l
    rho_nl_n = rho_nl.normalized() if p_nl > ATOL_TRACE else rho_nl
    return p_l / total, rho_l_n, p_nl / total, rho_nl_n


# ---------------------------------------------------------------------------
# shrunk-stabilizer measurement and Pauli frame


def _cnot_ops(control: int, target: int) -> list[GateOp]:
    """CNOT compiled to the toolbox (verified against the exact matrix)."""
    ry = lambda th, ion: collective_rotation("Y", th, (ion,))
    rz = lambda th, ion: addressed_z(th, ion)
    return [
        ry(-math.pi / 2, target), rz(math.pi, target),
        ry(math.pi / 2, control), ry(math.pi / 2, target),
        ms_gate(math.pi / 2, (control, target)),
        ry(-math.pi / 2, control), ry(-math.pi / 2, target),
        rz(-math.pi / 2, control), rz(-math.pi / 2, target),
        ry(-math.pi / 2, target), rz(math.pi, target),
    ]


def shrunk_measurement_ops() -> list[GateOp]:
    """Gate list mapping the X2X3X4 syndrome onto the (reset) ancilla."""
    ops = [collective_rotation("Y", math.pi / 2, (ANCILLA,))]
    for q in SURVIVING_QUBITS:
        ops.extend(_cnot_ops(ANCILLA, q))
    ops.append(collective_rotation("Y", -math.pi / 2, (ANCILLA,)))
    return ops


def shrunk_stabilizer() -> PauliString:
    return PauliString.from_map(N_IONS, {q: "X" for q in SURVIVING_QUBITS})


_ANCILLA_FLIP = collective_rotation("X", math.pi, (ANCILLA,))


def _shrunk_split(state: PureState, mode: str) -> tuple[PureState, np.ndarray]:
    """Pre-readout state and outcome probabilities (p(+1), p(-1)) of the shrunk measurement.

    Exact mode reads the projectors' weights off the input; toolbox mode
    resets the ancilla and maps the syndrome onto it.
    """
    pops = state.level_populations(ANCILLA)
    if not abs(pops[1] - 1.0) <= 1e-9:
        raise ProtocolError("shrunk-stabilizer measurement requires the loss branch "
                            "(ancilla must be |1> after detection)")
    if mode == "exact":
        plus = _half_projection(_gather_cached(shrunk_stabilizer(), state.dims), state.amps, 0)
        p_plus = float(np.vdot(plus, plus).real / np.vdot(state.amps, state.amps).real)
        return state, np.array([p_plus, 1 - p_plus])
    if mode == "toolbox":
        # reset ancilla |1> -> |0>
        out = Register(state).run([_ANCILLA_FLIP, *shrunk_measurement_ops()])
        _, probs = outcome_probabilities(out, ANCILLA, readout_partition(state.dims))
        return out, probs
    raise ValueError(f"unknown mode {mode!r}")


def _shrunk_post(pre: PureState, mode: str, pick: int) -> PureState:
    """Post state of shrunk outcome ``pick``, with the ancilla reset to |0>."""
    if mode == "exact":
        amps = _half_projection(_gather_cached(shrunk_stabilizer(), pre.dims), pre.amps, pick)
        post = PureState(pre.n_ions, pre.dims, amps / np.linalg.norm(amps))
        return Register(post).run([_ANCILLA_FLIP])  # ancilla |1> -> |0> reset (feed-forward)
    post = collapse(pre, ANCILLA, readout_partition(pre.dims)[pick])
    # feed-forward reset after a -1 readout
    return Register(post).run([_ANCILLA_FLIP]) if pick == 1 else post


def measure_shrunk_stabilizer(state: PureState, mode: str = "exact",
                              rng: np.random.Generator | None = None,
                              force_outcome: int | None = None
                              ) -> tuple[int, PureState, float]:
    """Project onto an eigenspace of the shrunk stabilizer X2X3X4.

    The ancilla arrives in |1> (it flagged the loss) and leaves reset to |0>
    in both modes; exact and toolbox modes agree in outcome distribution and
    post states.  Returns (outcome +-1, post state, probability).
    """
    pre, probs = _shrunk_split(state, mode)
    # outcome index 0 is +1, index 1 is -1
    pick = draw_outcome(probs, rng, None if force_outcome is None
                        else (0 if force_outcome == +1 else 1))
    return (+1 if pick == 0 else -1), _shrunk_post(pre, mode, pick), float(probs[pick])


@dataclass(frozen=True)
class PauliFrame:
    """Classical sign bookkeeping for the reconstructed code.

    A -1 outcome of the shrunk-stabilizer initialization is absorbed by
    redefining the Pauli basis; the equivalent active fix is a Z on the
    first surviving qubit, which flips only the shrunk X stabilizer.
    """

    sx_sign: int = 1

    def correction(self) -> PauliString | None:
        if self.sx_sign == 1:
            return None
        return PauliString.from_map(N_IONS, {SURVIVING_QUBITS[0]: "Z"})


def frame_update(frame: PauliFrame, outcome: int) -> PauliFrame:
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return PauliFrame(frame.sx_sign * outcome)


def apply_frame_correction(state: PureState, frame: PauliFrame) -> PureState:
    """``state`` with the frame's correction word applied as its signed
    permutation, the one ``_shrunk_correct`` applies to the density oracle."""
    corr = frame.correction()
    if corr is None:
        return state
    perm = _gather_cached(corr, state.dims)
    return PureState(state.n_ions, state.dims, _permute_rows(perm, state.amps))


# ---------------------------------------------------------------------------
# full protocol runs


@dataclass
class RunRecord:
    """One trajectory shot of the full protocol.

    ``seed_key`` names the generator key (master seed, domain) and the row
    of its block that the shot read, as ``"(seed,domain)[row]"``.
    """

    shot: int
    alpha: float
    phi: float
    branch: str
    ancilla_outcome: int
    shrunk_outcome: int | None
    frame_sx: int
    observables: dict[str, float]
    seed_key: str

    def to_json(self) -> str:
        # not `asdict`, which deep-copies every value, nor `vars`, which makes
        # Python 3.11 build and keep each record's __dict__
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True)


@dataclass
class BranchSummary:
    probability: float
    observables: dict[str, float]
    fidelity: float


@dataclass
class ProtocolResult:
    alpha: float
    phi: float
    encoding: dict[str, float]
    no_loss: BranchSummary
    loss: BranchSummary
    records: list[RunRecord] = field(default_factory=list)
    rho_no_loss: DensityOperator | None = None
    rho_loss: DensityOperator | None = None

    def sampled_means(self, branch: str) -> dict[str, float]:
        recs = [r for r in self.records if r.branch == branch]
        if not recs:
            return {}
        keys = recs[0].observables.keys()
        return {k: float(np.mean([r.observables[k] for r in recs])) for k in keys}

    def branch_counts(self) -> dict[str, int]:
        out = {"loss": 0, "no_loss": 0}
        for r in self.records:
            out[r.branch] += 1
        return out


def _code_observables(rho: DensityOperator, code: CodeDefinition) -> dict[str, float]:
    out = {name: expectation(rho, pauli) for name, pauli in code.all_observables().items()}
    out["P_CS"] = code_space_population(rho, code)
    return out


def _fidelity_with_pure(rho: DensityOperator, target: PureState) -> float:
    amps = target.amps
    return float(np.real(np.vdot(amps, rho.mat @ amps)) / rho.trace())


def _shrunk_correct(rho: DensityOperator | BlockOperator) -> DensityOperator | BlockOperator:
    """Both shrunk outcomes with their frame fix, unnormalized:
    (1+S)/2 rho (1+S)/2 + Z (1-S)/2 rho (1-S)/2 Z^dagger, with Z the frame's
    correction; every factor is applied as a signed permutation.  Both act on
    the surviving qubits only and map their {|0>, |1>} into itself, so a block
    must keep those qubits on {|0>, |1>} or whole, as the detection block does."""
    stab = _block_perm(_gather_cached(shrunk_stabilizer(), rho.dims), rho.flat)
    fix = _block_perm(_gather_cached(PauliFrame(-1).correction(), rho.dims), rho.flat)
    # the projectors are real and symmetric, so the right factor acts on the rows
    # of the transpose
    plus, minus = (_half_projection(stab, _half_projection(stab, rho.mat, pick).T, pick).T
                   for pick in (0, 1))
    return replace(rho, mat=plus + _conjugate(fix, minus))


def _loss_branch(rho_l: BlockOperator, phi: float, noise: NoiseModel) -> BlockOperator:
    """The detected-loss state after the shrunk measurement, its frame fix, the
    normalization and the noise mixture, on the detection block ``rho_l``: it keeps
    the surviving qubits on {|0>, |1>}, which each of those maps permutes."""
    return qnd_noise_mixture(_shrunk_correct(rho_l).normalized(), phi, noise, SURVIVING_QUBITS)


@lru_cache(maxsize=16)
def _encoding(alpha: float) -> tuple[PureState, dict[str, float]]:
    """The encoded state of ``alpha``, its amplitudes read-only, and its code
    observables with the fidelity to the logical target; callers copy the dict."""
    psi = encode(alpha)
    psi.amps.setflags(write=False)
    rho = psi.to_density()
    obs = _code_observables(rho, four_qubit_code())
    obs["fidelity"] = _fidelity_with_pure(rho, logical_target(alpha))
    return psi, obs


def analytic_run(alpha: float, phi: float, noise: NoiseModel | None = None
                 ) -> ProtocolResult:
    """Exact density-mode run; the oracle for trajectory mode.

    The encoding and its observables depend on ``alpha`` only and are computed
    once per angle (``_encoding``).  The whole run holds one occupied block (see
    ``qudit``), read off the lost pure state's amplitudes: the detection keeps
    the probed ion and the ancilla whole, and the loss branch's shrunk
    measurement, frame fix, normalization and noise run on the same block.  Each
    branch is scattered once, for its observables.
    """
    noise = noise or NoiseModel()
    code4, code3 = four_qubit_code(), three_qubit_code()
    psi, encoding_obs = _encoding(float(alpha))
    p_l, rho_l, p_nl, rho_nl = qnd_detect_density(apply_loss(psi, phi))
    rho_nl = rho_nl.register()

    # no-loss branch, never empty: ion 0 of every encoded state is |0> with
    # probability 1/2, and the loss moves sin^2(phi/2) of that to |2>, so
    # p_nl = 1 - sin^2(phi/2)/2 >= 1/2
    no_loss = BranchSummary(p_nl, _code_observables(rho_nl, code4),
                            _fidelity_with_pure(rho_nl, logical_target(alpha)))

    # loss branch: shrunk-stabilizer measurement + frame correction, combined
    rho_rec, l_obs, l_fid = None, {}, float("nan")
    if p_l > ATOL_TRACE:
        rho_rec = _loss_branch(rho_l, phi, noise).register()
        l_obs = _code_observables(rho_rec, code3)
        rec3 = partial_trace(rho_rec, SURVIVING_QUBITS)
        l_fid = _fidelity_with_pure(rec3, logical_target(alpha, 3, qubits=(0, 1, 2)))
    loss = BranchSummary(p_l, l_obs, l_fid)

    return ProtocolResult(alpha, phi, dict(encoding_obs), no_loss, loss,
                          rho_no_loss=rho_nl, rho_loss=rho_rec)


def _outcome_thresholds(state: PureState, code: CodeDefinition
                        ) -> tuple[tuple[str, float, float], ...]:
    """Sampling rule of one leaf state: ``(name, P(+1), value otherwise)`` per output.

    Each observable reads +1 with probability (1 + <P>)/2, else -1; ``P_CS``
    reads 1 with the code-space population, else 0.
    """
    out = []
    for name, pauli in code.all_observables().items():
        val = pure_expectation(state, pauli)
        if val > 1 + ATOL_ALGEBRA or val < -1 - ATOL_ALGEBRA:  # pragma: no cover
            raise ProtocolError(f"invalid expectation {val}")
        out.append((name, 0.5 * (1 + val), -1.0))
    # P_CS = <psi| prod (1+S)/2 |psi>, the projector applied as its chain of halves
    amps = state.amps
    for pauli in code.stabilizers.values():
        amps = _half_projection(_gather_cached(pauli, state.dims), amps, 0)
    out.append(("P_CS", float(np.real(np.vdot(state.amps, amps))), 0.0))
    return tuple(out)


#: the columns of a shot's row: the detection readout, the shrunk readout, the
#: noise hit, its qubit and its letter, then one per output of the branch's code
#: (at most the four-qubit code's six Paulis and P_CS)
_DETECT, _SHRUNK, _HIT, _HIT_QUBIT, _HIT_LETTER, _OUTPUTS = range(6)
_MAX_OUTPUTS = 7
_SHOT_WIDTH = _OUTPUTS + _MAX_OUTPUTS
#: noise hit codes: 0 for none, then one per (surviving qubit, letter of IXYZ)
_HIT_CODES = 1 + 4 * len(SURVIVING_QUBITS)


def _noise_hits(p_mix: float, rows: np.ndarray) -> np.ndarray:
    """Trajectory unraveling of the depolarizing mixture: the hit code of each
    shot's row, 0 for none, else ``1 + 4 * qubit index + letter`` with the
    letter's index in IXYZ (never I, which is no hit).  The qubit and letter
    columns map [0, 1) onto the surviving qubits and IXYZ in equal parts."""
    letter = (rows[:, _HIT_LETTER] * 4).astype(np.int64)
    qubit = (rows[:, _HIT_QUBIT] * len(SURVIVING_QUBITS)).astype(np.int64)
    return np.where((rows[:, _HIT] < p_mix) & (letter > 0), 1 + 4 * qubit + letter, 0)


def _leaf(branches: tuple[PureState, PureState | None], shrunk_mode: str, leaf: int
          ) -> tuple[PureState, CodeDefinition, tuple[str, int, int | None, int]]:
    """State, code and record fields (branch, ancilla outcome, shrunk outcome,
    frame sign) of the leaf ``(outcome * 2 + pick) * _HIT_CODES + hit``.

    ``branches`` holds the collapsed no-loss state and the shrunk pre-readout
    state of the loss branch.  A loss leaf takes shrunk outcome ``pick``, its
    frame fix, then the hit's extended Pauli as a signed permutation.
    """
    path, hit = divmod(leaf, _HIT_CODES)
    outcome, pick = divmod(path, 2)
    if outcome == 0:
        return branches[0], four_qubit_code(), ("no_loss", 0, None, 1)
    shrunk = 1 - 2 * pick
    frame = frame_update(PauliFrame(), shrunk)
    state = apply_frame_correction(_shrunk_post(branches[1], shrunk_mode, pick), frame)
    if hit:
        qubit, letter = divmod(hit - 1, 4)
        perm = _extended_gather("IXYZ"[letter], SURVIVING_QUBITS[qubit], N_IONS, state.dims)
        state = PureState(state.n_ions, state.dims, _permute_rows(perm, state.amps))
    return state, three_qubit_code(), ("loss", 1, shrunk, frame.sx_sign)


def run_protocol(alpha: float, phi: float, shots: int = 0,
                 noise: NoiseModel | None = None, seed: int = 0,
                 shrunk_mode: str = "exact") -> ProtocolResult:
    """Analytic branch summaries plus (optionally) sampled trajectories.

    ``alpha`` is the logical superposition angle: cos(a/2)|0_L> + i sin(a/2)|1_L>.
    The shots draw from one generator, ``seed_for(seed,
    SeedDomain.PROTOCOL_SHOTS)``: shot i reads row i of one (shots,
    ``_SHOT_WIDTH``) block of uniforms, one fixed column per draw, so a shot
    is a pure function of (seed, shot) and the first n shots of a longer run
    are the n shots of a shorter one.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shrunk_mode not in ("exact", "toolbox"):
        raise ValueError(f"unknown mode {shrunk_mode!r}")
    alpha = float(alpha)
    noise = noise or NoiseModel()
    result = analytic_run(alpha, phi, noise)
    if shots <= 0:
        return result

    detected, det_sets, det_probs = _detection_unit(apply_loss(_encoding(alpha)[0], phi))
    block = seed_for(seed, SeedDomain.PROTOCOL_SHOTS).random((shots, _SHOT_WIDTH))
    outcome = np.searchsorted(_outcome_cdf(det_probs), block[:, _DETECT], side="right")
    # every shot ends on a leaf (detection outcome, shrunk pick, noise hit)
    pick = np.zeros(shots, dtype=np.int64)
    hit = np.zeros(shots, dtype=np.int64)
    lost = outcome == 1
    if lost.any():
        pre, probs = _shrunk_split(collapse(detected, ANCILLA, det_sets[1]), shrunk_mode)
        pick[lost] = np.searchsorted(_outcome_cdf(probs), block[lost, _SHRUNK], side="right")
        if noise.enabled:
            # the imperfection model mixes noise into the loss branch only
            p_mix = mixing_probability(phi, noise.p_qnd)
            hit[lost] = _noise_hits(p_mix, block[lost])
    leaves, leaf_of = np.unique((outcome * 2 + pick) * _HIT_CODES + hit,
                                return_inverse=True)

    # Every shot of a leaf reads the same state, so each leaf's sampling rule is
    # computed once: per output, the threshold below which it reads 1, and what
    # it reads otherwise.
    branches = (collapse(detected, ANCILLA, det_sets[0]), pre if lost.any() else None)
    meta, outputs = [], []
    thresholds = np.full((len(leaves), _MAX_OUTPUTS), np.nan)
    for i, leaf in enumerate(leaves.tolist()):
        state, code, record = _leaf(branches, shrunk_mode, leaf)
        rule = _outcome_thresholds(state, code)
        thresholds[i, :len(rule)] = [prob for _, prob, _ in rule]
        meta.append(record)
        outputs.append([(name, other) for name, _, other in rule])

    # a shot's outputs are one bit mask, and each (leaf, mask) builds its dict once
    below = block[:, _OUTPUTS:] < thresholds[leaf_of]
    masks = below @ (1 << np.arange(_MAX_OUTPUTS))
    kinds, kind_of = np.unique(leaf_of * 2**_MAX_OUTPUTS + masks, return_inverse=True)
    observables = []
    for kind in kinds.tolist():
        leaf, mask = divmod(kind, 2**_MAX_OUTPUTS)
        observables.append({name: 1.0 if mask >> j & 1 else other
                            for j, (name, other) in enumerate(outputs[leaf])})
    domain = int(SeedDomain.PROTOCOL_SHOTS)
    for shot, (leaf, kind) in enumerate(zip(leaf_of.tolist(), kind_of.tolist())):
        branch, out, shrunk, frame_sx = meta[leaf]
        result.records.append(RunRecord(
            shot=shot, alpha=alpha, phi=phi, branch=branch, ancilla_outcome=out,
            shrunk_outcome=shrunk, frame_sx=frame_sx, observables=dict(observables[kind]),
            seed_key=f"({seed},{domain})[{shot}]"))
    return result


def records_to_jsonl(records: Iterable[RunRecord]) -> str:
    return "".join(r.to_json() + "\n" for r in records)


# ---------------------------------------------------------------------------
# detection-efficiency sweep


#: default cycles per loss rate, following the experiment presets
SHOT_PRESETS = {0.1 * math.pi: 1000, 0.2 * math.pi: 600, 0.5 * math.pi: 200}


def preset_shots(phi: float, presets: Mapping[float, int] = SHOT_PRESETS) -> int:
    """The shots of the preset loss rate nearest to ``phi``; an exact key wins."""
    return min(presets.items(), key=lambda kv: abs(kv[0] - phi))[1]


@dataclass
class SweepRow:
    phi: float
    direct_loss: float
    detected_loss: float
    false_positive_rate: float
    false_negative_rate: float
    shots: int


@dataclass
class SweepResult:
    rows: list[SweepRow]
    efficiency: float  # fraction of shots where detected == actually leaked


#: a sweep shot's row: the ancilla readout, the level of ion 0, then the
#: transfer pulses of the five-ion register's three spectators (two stages,
#: two pulses each); a two-ion register reads the first two columns only
_SWEEP_WIDTH = 2 + 4 * 3


def _sweep_readout(state: PureState, ancilla: int, partition: Sequence[frozenset[Level]]
                   ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Ancilla readout probabilities and, per possible ancilla outcome, the level
    probabilities of ion 0 after it."""
    sets, probs = outcome_probabilities(state, ancilla, partition)
    levels = [{l} for l in map(Level, range(state.dims))]
    return probs, {k: outcome_probabilities(collapse(state, ancilla, sets[k]), 0, levels)[1]
                   for k in range(len(sets)) if probs[k] > 0}


def detection_sweep(phi_grid: Sequence[float], shots: int, seed: int = 0,
                    register: int = 2, addressing_error: float = 0.0,
                    analytic: bool = False, hiding: str = "mask") -> SweepResult:
    """Reproduce the detection-efficiency comparison of the 2- and 5-ion setups.

    The probed qubit starts in |0>; "direct" loss is its dark (D-manifold)
    population read out after the detection unit, "detected" is the ancilla
    flag.  False positives/negatives are counted against the simulator's
    ground truth (the loss-level occupation of the probed qubit).  ``hiding``
    picks the ideal support-mask model or the explicit five-level pulses.
    The shots of grid point ``pi_idx`` draw from one generator,
    ``seed_for(seed, SeedDomain.SWEEP_SHOTS, pi_idx)``: shot i reads row i of
    one block whose columns are the ancilla readout, the level of ion 0 and
    the transfer pulses (``_SWEEP_WIDTH``), each pulse skipped with the
    addressing-error probability.  The ideal hiding exposes a spectator when
    either of its two hide pulses is skipped.  Both registers read the same
    readout columns, so without addressing errors they count alike.

    The explicit five-level pulses expose a spectator exactly when its p0
    hide pulse (|0> <-> |H0>) is skipped: p1 (|1> <-> |H1>) is an exact no-op
    on a ground-state spectator, and the unhide pulses act after the last gate
    on ion 0 and the ancilla.  The truncated gates act as the identity on
    |H0>, so a spectator there behaves as an ion outside the detection
    support.  The all-|0> start and the collective gates treat the spectators
    alike, so only the count k of exposed spectators matters: under either
    model a shot reads the three-level detection run with spectators 1..k in
    the support.  The five-level pulse simulation is the tests' reference.
    """
    if len(phi_grid) == 0:
        raise ValueError("phi_grid must not be empty")
    if register not in (2, 5):
        raise ValueError("register must be 2 or 5 ions")
    if shots <= 0 and not analytic:
        raise ValueError("shots must be positive in sampled mode")
    if hiding not in ("mask", "explicit"):
        raise ValueError(f"unknown hiding mode {hiding!r}")
    if not 0.0 <= addressing_error <= 1.0:
        raise ValueError(f"addressing_error must lie in [0, 1], got {addressing_error}")
    if analytic and addressing_error > 0.0:
        raise ValueError("the analytic sweep has no addressing errors; "
                         "run it sampled or with addressing_error=0")
    n, ancilla = register, register - 1
    spectators = tuple(range(1, n - 1))
    partition = readout_partition(3)
    rows: list[SweepRow] = []
    agree = 0
    total = 0

    for pi_idx, phi in enumerate(phi_grid):
        if analytic:
            # the loss gate refuses a NaN or infinite angle, as in the sampled rows
            p_leak = math.sin(loss_rotation(phi, 0).angle / 2) ** 2
            rows.append(SweepRow(phi, p_leak, p_leak, 0.0, 0.0, 0))
            continue
        block = seed_for(seed, SeedDomain.SWEEP_SHOTS, pi_idx).random((shots, _SWEEP_WIDTH))
        hide = block[:, 2:2 + 2 * len(spectators)] >= addressing_error
        p0, p1 = hide[:, 0::2], hide[:, 1::2]
        exposed = ~p0 if hiding == "explicit" else ~(p0 & p1)
        # shots with as many exposed spectators read alike: one cdf row per count
        keys, which = np.unique(exposed.sum(axis=1), return_inverse=True)
        lost = apply_loss(make_state(n, 3, [0] * n), phi)
        ancilla_cdfs = np.empty((len(keys), 2))
        level_cdfs = np.full((len(keys), 2, 3), np.nan)
        for i, k in enumerate(keys.tolist()):
            state = _detect(lost, (0, *spectators[:k], ancilla))
            probs, levels = _sweep_readout(state, ancilla, partition)
            ancilla_cdfs[i] = _outcome_cdf(probs)
            for outcome, lv in levels.items():
                level_cdfs[i, outcome] = _outcome_cdf(lv)
        # an outcome is the count of cdf entries at or below its uniform
        # (bisect_right); a NaN row, of an outcome that never occurs, counts none
        out_a = np.sum(ancilla_cdfs[which] <= block[:, :1], axis=1)
        lvl = np.sum(level_cdfs[which, out_a] <= block[:, 1:2], axis=1)
        detected, true_leak = out_a == 1, lvl == Level.L2
        n_detect, n_true = int(detected.sum()), int(true_leak.sum())
        n_direct = int(np.isin(lvl, list(partition[1])).sum())
        n_fp = int((detected & ~true_leak).sum())
        n_fn = int((~detected & true_leak).sum())
        agree += shots - n_fp - n_fn
        total += shots
        fp_rate = n_fp / max(shots - n_true, 1)
        fn_rate = n_fn / max(n_true, 1)
        rows.append(SweepRow(phi, n_direct / shots, n_detect / shots,
                             fp_rate, fn_rate, shots))
    efficiency = agree / total if total else 1.0
    return SweepResult(rows, efficiency)


# ---------------------------------------------------------------------------
# single-qubit detection process (for process tomography)

PROCESS_INPUTS: dict[str, np.ndarray] = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
}


def detection_process(phi: float, input_label: str, ancilla_outcome: int
                      ) -> tuple[float, DensityOperator]:
    """Exact branch probability and unnormalised output state of the probed
    qubit, whose trace is that probability however small.

    Prepares the given input on the probed qubit (ancilla in |0>), runs loss
    + detection, post-selects the ancilla outcome and traces down to the
    probed qubit (3-level operator).  The register is the probed qubit and
    the ancilla only: the hidden spectators never enter the detection
    circuit, so a five-ion register gives the same process bit for bit.
    """
    if ancilla_outcome not in (0, 1):
        raise ValueError(f"ancilla outcome must be 0 or 1, got {ancilla_outcome}")
    amps = np.zeros(9, dtype=complex)
    amps[0], amps[3] = PROCESS_INPUTS[input_label]
    state = _detect(apply_loss(PureState(2, 3, amps), phi), (0, 1))
    branch = state.to_density().project_levels(1, readout_partition(3)[ancilla_outcome])
    return branch.trace(), partial_trace(branch, (0,))
