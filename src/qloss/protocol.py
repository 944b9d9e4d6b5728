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
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .channels import NoiseModel, _extended_pauli, mixing_probability, qnd_noise_mixture
from .gates import (GateOp, Register, _transfer_pulses, addressed_z, collective_rotation,
                    compile_gate, loss_rotation, ms_gate)
from .qudit import (DensityOperator, Level, PauliString, PureState,
                    UndefinedExpectationError, _apply_checked, _block_perm, _conjugate,
                    _gather_cached, _occupied_block, _on_block, _permute_rows, collapse,
                    draw_outcome, expectation, make_state, outcome_probabilities,
                    partial_trace, pure_expectation, readout_partition, seed_streams)
# perfbench traces protocol.seed_for, so the name stays importable here
from .qudit import seed_for  # noqa: F401
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
    """Product of (1+S)/2 over the generators ``gens`` (validated to commute)."""
    gens = tuple(gens)
    key = (gens, dims)
    cached = _PROJECTOR_CACHE.get(key)
    if cached is not None:
        return cached
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if not g.commutes(h):
                raise ValueError("code generators do not commute")
    d = dims ** gens[0].n_ions
    proj = np.eye(d, dtype=complex)
    for g in gens:
        proj = proj @ (0.5 * (np.eye(d) + g.embedded(dims)))
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
    reg = Register(make_state(N_IONS, 3, [0] * N_IONS))
    reg.run(encode_ops(alpha))
    return reg.state


def apply_loss(state: PureState, phi: float) -> PureState:
    """The controlled loss rotation by ``phi`` on ion 0, the probed ion."""
    return _apply_op(state, loss_rotation(phi, 0))


def _apply_op(state: PureState, op: GateOp) -> PureState:
    return _apply_checked(state, compile_gate(op, state.dims), op.support)


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
    reg = Register(state)
    reg.run(detection_ops(support))
    stray = reg.state.level_populations(support[-1])[2:].sum()
    if not stray <= ATOL_LEAK_GUARD:
        raise ProtocolError(
            f"ancilla has population {stray:.2e} outside the computational subspace")
    return reg.state


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
    pre, sets, probs = _detection_unit(state)
    force = None
    if force_branch is not None:
        force = 1 if force_branch == "loss" else 0
    outcome = draw_outcome(probs, rng, force)
    return DetectResult("loss" if outcome == 1 else "no_loss", outcome,
                        collapse(pre, ANCILLA, sets[outcome]), float(probs[outcome]))


def qnd_detect_density(rho: DensityOperator
                       ) -> tuple[float, DensityOperator, float, DensityOperator]:
    """Exact branch split: (p_loss, rho_loss, p_no_loss, rho_no_loss), renormalized."""
    for op in detection_ops((0, ANCILLA)):
        rho = rho.apply_operator(compile_gate(op, rho.dims), op.support)
    bright, dark = readout_partition(rho.dims)
    rho_nl = rho.project_levels(ANCILLA, bright)
    rho_l = rho.project_levels(ANCILLA, dark)
    p_nl, p_l = rho_nl.trace(), rho_l.trace()
    total = rho.trace()
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


def _shrunk_project(arr: np.ndarray, pick: int,
                    stab: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(1 + S)/2 @ arr for ``pick`` 0, (1 - S)/2 @ arr for ``pick`` 1, with the
    shrunk stabilizer S = X2X3X4 applied as its signed permutation ``stab``."""
    half = 0.5 * arr
    s_half = 0.5 * _permute_rows(stab, arr)
    return half + s_half if pick == 0 else half - s_half


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
        plus = _shrunk_project(state.amps, 0, _gather_cached(shrunk_stabilizer(), state.dims))
        p_plus = float(np.vdot(plus, plus).real / np.vdot(state.amps, state.amps).real)
        return state, np.array([p_plus, 1 - p_plus])
    if mode == "toolbox":
        reg = Register(_apply_op(state, _ANCILLA_FLIP))  # reset ancilla |1> -> |0>
        reg.run(shrunk_measurement_ops())
        _, probs = outcome_probabilities(reg.state, ANCILLA, readout_partition(state.dims))
        return reg.state, probs
    raise ValueError(f"unknown mode {mode!r}")


def _shrunk_post(pre: PureState, mode: str, pick: int) -> PureState:
    """Post state of shrunk outcome ``pick``, with the ancilla reset to |0>."""
    if mode == "exact":
        amps = _shrunk_project(pre.amps, pick, _gather_cached(shrunk_stabilizer(), pre.dims))
        post = PureState(pre.n_ions, pre.dims, amps / np.linalg.norm(amps))
        return _apply_op(post, _ANCILLA_FLIP)  # ancilla |1> -> |0> reset (feed-forward)
    post = collapse(pre, ANCILLA, readout_partition(pre.dims)[pick])
    # feed-forward reset after a -1 readout
    return _apply_op(post, _ANCILLA_FLIP) if pick == 1 else post


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
    corr = frame.correction()
    if corr is None:
        return state
    # addressed_z(pi) = diag(e^{-i pi/2}, e^{+i pi/2}) = -i Z on the qubit block
    return _apply_op(state, addressed_z(math.pi, corr.support[0]))


# ---------------------------------------------------------------------------
# full protocol runs


@dataclass
class RunRecord:
    """One trajectory shot of the full protocol."""

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
        return json.dumps(asdict(self), sort_keys=True)


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


def _shrunk_correct(rho: np.ndarray, dims: int) -> np.ndarray:
    """Both shrunk outcomes with their frame fix, unnormalized:
    (1+S)/2 rho (1+S)/2 + Z (1-S)/2 rho (1-S)/2 Z^dagger, with Z the frame's
    correction; every factor is applied as a signed permutation.  Both act on
    the surviving qubits only, so the sum runs on rho's occupied block that
    keeps them whole (see ``qudit``)."""
    flat = _occupied_block(rho, N_IONS, dims, SURVIVING_QUBITS)
    stab = _block_perm(_gather_cached(shrunk_stabilizer(), dims), flat)
    fix = _block_perm(_gather_cached(PauliFrame(-1).correction(), dims), flat)

    def correct(mat: np.ndarray) -> np.ndarray:
        # the projectors are real and symmetric, so the right factor acts on the
        # rows of the transpose
        plus, minus = (_shrunk_project(_shrunk_project(mat, pick, stab).T, pick, stab).T
                       for pick in (0, 1))
        return plus + _conjugate(fix, minus)

    return _on_block(rho, flat, correct)


def analytic_run(alpha: float, phi: float, noise: NoiseModel | None = None
                 ) -> ProtocolResult:
    """Exact density-mode run; the oracle for trajectory mode."""
    noise = noise or NoiseModel()
    code4, code3 = four_qubit_code(), three_qubit_code()
    psi = encode(alpha)
    rho_enc = psi.to_density()
    encoding_obs = _code_observables(rho_enc, code4)
    encoding_obs["fidelity"] = _fidelity_with_pure(rho_enc, logical_target(alpha))

    lost = apply_loss(psi, phi).to_density()
    p_l, rho_l, p_nl, rho_nl = qnd_detect_density(lost)

    # no-loss branch
    if p_nl > ATOL_TRACE:
        nl_obs = _code_observables(rho_nl, code4)
        nl_fid = _fidelity_with_pure(rho_nl, logical_target(alpha))
    else:
        nl_obs, nl_fid = {}, float("nan")
    no_loss = BranchSummary(p_nl, nl_obs, nl_fid)

    # loss branch: shrunk-stabilizer measurement + frame correction, combined
    if p_l > ATOL_TRACE:
        combined = _shrunk_correct(rho_l.mat, rho_l.dims)
        rho_rec = DensityOperator(N_IONS, rho_l.dims, combined).normalized()
        if noise.enabled:
            rho_rec = qnd_noise_mixture(rho_rec, phi, noise, SURVIVING_QUBITS)
        l_obs = _code_observables(rho_rec, code3)
        rec3 = partial_trace(rho_rec, SURVIVING_QUBITS)
        l_fid = _fidelity_with_pure(rec3, logical_target(alpha, 3, qubits=(0, 1, 2)))
    else:
        rho_rec = rho_l
        l_obs, l_fid = {}, float("nan")
    loss = BranchSummary(p_l, l_obs, l_fid)

    return ProtocolResult(alpha, phi, encoding_obs, no_loss, loss,
                          rho_no_loss=rho_nl if p_nl > ATOL_TRACE else None,
                          rho_loss=rho_rec if p_l > ATOL_TRACE else None)


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
    proj = code_space_projector(code.stabilizers.values(), state.dims)
    out.append(("P_CS", float(np.real(np.vdot(state.amps, proj @ state.amps))), 0.0))
    return tuple(out)


def _draw_noise(p_mix: float, qubits: tuple[int, ...], rng: np.random.Generator
                ) -> tuple[int, str] | None:
    """Trajectory unraveling of the depolarizing mixture: the (qubit, Pauli) hit, if any."""
    if rng.random() >= p_mix:
        return None
    qubit = qubits[rng.integers(len(qubits))]
    letter = "IXYZ"[rng.integers(4)]
    return None if letter == "I" else (qubit, letter)


def _apply_noise(state: PureState, hit: tuple[int, str] | None) -> PureState:
    if hit is None:
        return state
    qubit, letter = hit
    return _apply_checked(state, _extended_pauli(letter, state.dims), (qubit,))


def run_protocol(alpha: float, phi: float, shots: int = 0,
                 noise: NoiseModel | None = None, seed: int = 0,
                 shrunk_mode: str = "exact") -> ProtocolResult:
    """Analytic branch summaries plus (optionally) sampled trajectories.

    ``alpha`` is the logical superposition angle: cos(a/2)|0_L> + i sin(a/2)|1_L>.
    Every shot draws its generator from a pure function of (seed, shot), so
    results do not depend on execution order.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    alpha = float(alpha)
    noise = noise or NoiseModel()
    result = analytic_run(alpha, phi, noise)
    if shots <= 0:
        return result

    code4, code3 = four_qubit_code(), three_qubit_code()
    detected, det_sets, det_probs = _detection_unit(apply_loss(encode(alpha), phi))
    p_mix = mixing_probability(phi, noise.p_qnd) if noise.enabled else 0.0
    # The states along an outcome path (detection branch, shrunk outcome, noise
    # hit) are the same for every shot that takes it: each node is computed on
    # its first shot, and every shot replays its own draws, in the original
    # order, against the cached probabilities.
    memo: dict[tuple, Any] = {}

    def once(key: tuple, make: Callable[[], Any]) -> Any:
        if key not in memo:
            memo[key] = make()
        return memo[key]

    for shot, rng in enumerate(seed_streams(seed, count=shots)):
        outcome = draw_outcome(det_probs, rng)
        branch = "loss" if outcome == 1 else "no_loss"
        detect_post = lambda: collapse(detected, ANCILLA, det_sets[outcome])
        frame = PauliFrame()
        shrunk: int | None = None
        if branch == "loss":
            pre, probs = once((branch,), lambda: _shrunk_split(detect_post(), shrunk_mode))
            pick = draw_outcome(probs, rng)
            shrunk = +1 if pick == 0 else -1
            frame = frame_update(frame, shrunk)
            path = (branch, shrunk)
            make_state = lambda: apply_frame_correction(
                _shrunk_post(pre, shrunk_mode, pick), frame)
            code = code3
            # the imperfection model mixes noise into the loss branch only
            hit = _draw_noise(p_mix, SURVIVING_QUBITS, rng) if noise.enabled else None
        else:
            path = (branch,)
            make_state = detect_post
            code, hit = code4, None
        leaf = once(path + (hit,), lambda: _outcome_thresholds(
            _apply_noise(once(path, make_state), hit), code))
        draws = rng.random(len(leaf)).tolist()
        obs = {name: 1.0 if u < p else other for (name, p, other), u in zip(leaf, draws)}
        result.records.append(RunRecord(
            shot=shot, alpha=alpha, phi=phi, branch=branch,
            ancilla_outcome=outcome, shrunk_outcome=shrunk,
            frame_sx=frame.sx_sign, observables=obs,
            seed_key=f"({seed},{shot})"))
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


def _mask_pattern(spectators: Sequence[int], addressing_error: float,
                  rng: np.random.Generator) -> tuple[int, ...]:
    """Ideal hiding: the spectators a hide leaves fully exposed to the collective
    detection gates, because either of its two transfer pulses failed."""
    return tuple(i for i in spectators
                 if addressing_error > 0
                 and (rng.random() < addressing_error
                      or rng.random() < addressing_error))


def _explicit_pattern(spectators: Sequence[int], addressing_error: float,
                      rng: np.random.Generator) -> tuple[bool, ...]:
    """Five-level hiding: which physical transfer pulses fire, in application order
    (hide, then unhide; per spectator pulse p0 then p1), each skipped
    independently with the addressing-error probability."""
    return tuple(not (addressing_error > 0 and rng.random() < addressing_error)
                 for _stage in range(2) for _ion in spectators for _pulse in range(2))


def _explicit_key(fired: tuple[bool, ...]) -> tuple[tuple[bool, bool], ...]:
    """What the readout can see of a pulse pattern: the sorted per-spectator
    (p0, p1) hide pairs.

    The readout looks at ion 0 and the ancilla only.  The unhide pulses act on
    spectators after the last gate on either of them, and the all-|0> start
    and the collective detection gates treat the spectators alike.
    """
    hide = fired[:len(fired) // 2]
    return tuple(sorted(zip(hide[0::2], hide[1::2])))


def _explicit_state(phi: float, n: int, hides: tuple[tuple[bool, bool], ...]
                    ) -> PureState:
    """Pre-readout state of five-level hiding, with the hide pulses ``hides``
    (per spectator 1, 2, ...: whether p0 and p1 fired) and no unhide pulses."""
    state = apply_loss(make_state(n, 5, [0] * n), phi)
    for ion, fires in enumerate(hides, 1):
        for fire, pulse in zip(fires, _transfer_pulses()):
            if fire:
                state = _apply_checked(state, pulse, (ion,))
    return _detect(state, tuple(range(n)))


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
    n, ancilla = register, register - 1
    spectators = tuple(range(1, n - 1))
    explicit = hiding == "explicit" and n > 2
    dims = 5 if explicit else 3
    partition = readout_partition(dims)
    rows: list[SweepRow] = []
    agree = 0
    total = 0

    for pi_idx, phi in enumerate(phi_grid):
        if analytic:
            p_leak = math.sin(phi / 2) ** 2
            rows.append(SweepRow(phi, p_leak, p_leak, 0.0, 0.0, 0))
            continue
        # shots whose pulse patterns look alike to the readout share its probabilities
        readouts: dict[tuple, tuple[np.ndarray, dict[int, np.ndarray]]] = {}
        n_direct = n_detect = n_fp = n_fn = n_true = 0
        for rng in seed_streams(seed, pi_idx, count=shots):
            if explicit:
                pattern = _explicit_key(_explicit_pattern(spectators, addressing_error, rng))
            else:
                pattern = _mask_pattern(spectators, addressing_error, rng)
            if pattern not in readouts:
                state = (_explicit_state(phi, n, pattern) if explicit
                         else _detect(apply_loss(make_state(n, 3, [0] * n), phi),
                                      (0,) + pattern + (ancilla,)))
                readouts[pattern] = _sweep_readout(state, ancilla, partition)
            ancilla_probs, level_probs = readouts[pattern]
            out_a = draw_outcome(ancilla_probs, rng)
            lvl = draw_outcome(level_probs[out_a], rng)
            detected = out_a == 1
            direct_dark = Level(lvl) in partition[1]
            true_leak = lvl == Level.L2
            n_detect += detected
            n_direct += direct_dark
            n_true += true_leak
            n_fp += detected and not true_leak
            n_fn += (not detected) and true_leak
            agree += detected == true_leak
            total += 1
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
    """Exact branch probability and output state of the probed qubit.

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
    prob = branch.trace()
    if prob <= ATOL_TRACE:
        return 0.0, DensityOperator(1, 3, np.zeros((3, 3), dtype=complex))
    return prob, partial_trace(DensityOperator(2, 3, branch.mat), (0,))
