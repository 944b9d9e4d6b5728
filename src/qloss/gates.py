"""Ion-trap gate toolbox compiled to exact matrices on the level space.

All entangling and rotation generators use the truncated Pauli convention:
the generator acts on the computational subspace of each supported ion and
annihilates the loss and hiding levels, so population outside {|0>,|1>}
simply drops out of the dynamics while the compiled matrix stays unitary
(leakage sectors map to themselves).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .qudit import PauliString, PureState, _apply_checked, check_unitary, truncated_pauli


class GateKind(str, Enum):
    MS_X = "MS_X"
    COLLECTIVE_R = "COLLECTIVE_R"
    ADDRESSED_Z = "ADDRESSED_Z"
    LOSS_ROT = "LOSS_ROT"


_SINGLE_ION_KINDS = {GateKind.ADDRESSED_Z, GateKind.LOSS_ROT}


@dataclass(frozen=True)
class GateOp:
    """Symbolic gate description; compiled to a matrix on demand."""

    kind: GateKind
    angle: float
    support: tuple[int, ...]
    axis: str | None = None  # X or Y, COLLECTIVE_R only

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"{self.kind.value} angle must be finite, got {self.angle}")
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"duplicate ions in support {self.support}")
        if self.kind == GateKind.MS_X and len(self.support) < 2:
            raise ValueError("MS gate needs at least 2 ions")
        if self.kind in _SINGLE_ION_KINDS and len(self.support) != 1:
            raise ValueError(f"{self.kind.value} acts on exactly 1 ion")
        if self.kind == GateKind.COLLECTIVE_R:
            if self.axis not in ("X", "Y"):
                raise ValueError("collective rotation axis must be X or Y")
        elif self.axis is not None:
            raise ValueError("axis only applies to COLLECTIVE_R")


def loss_rotation(phi: float, ion: int) -> GateOp:
    """Coherent |0> <-> |2> transfer by angle phi."""
    return GateOp(GateKind.LOSS_ROT, float(phi), (ion,))


def ms_gate(theta: float, support: Sequence[int]) -> GateOp:
    """Collective XX entangler exp(-i theta/2 sum_{j<l} X_j X_l), truncated."""
    return GateOp(GateKind.MS_X, float(theta), tuple(support))


def collective_rotation(axis: str, theta: float, support: Sequence[int]) -> GateOp:
    return GateOp(GateKind.COLLECTIVE_R, float(theta), tuple(support), axis=axis)


def addressed_z(theta: float, ion: int) -> GateOp:
    return GateOp(GateKind.ADDRESSED_Z, float(theta), (ion,))


# ---------------------------------------------------------------------------
# compilation

_COMPILE_CACHE: dict[tuple, np.ndarray] = {}


def _rotation(gen: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta/2 G) for a generator with G^3 = G: identity off G's support."""
    return (np.eye(len(gen), dtype=complex)
            + (math.cos(theta / 2) - 1.0) * (gen @ gen)
            - 1j * math.sin(theta / 2) * gen)


def _loss_rotation_matrix(phi: float, dims: int) -> np.ndarray:
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    m = np.eye(dims, dtype=complex)
    m[0, 0] = c
    m[2, 2] = c
    m[0, 2] = s
    m[2, 0] = -s
    return m


def _ms_matrix(theta: float, k: int, dims: int) -> np.ndarray:
    """Product of commuting pair factors exp(-i theta/2 X_j X_l)."""
    u = np.eye(dims**k, dtype=complex)
    for j, l in itertools.combinations(range(k), 2):
        u = _rotation(PauliString.from_map(k, {j: "X", l: "X"}).embedded(dims), theta) @ u
    return u


def compile_gate(op: GateOp, dims: int) -> np.ndarray:
    """Compile to a unitary on the support ions; deterministic and cached.

    The cache key uses only (kind, axis, angle, support size, dims): every
    gate family here is symmetric under permutations of its support.
    """
    key = (op.kind, op.axis, op.angle, len(op.support), dims)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None:
        return cached

    if op.kind == GateKind.MS_X:
        mat = _ms_matrix(op.angle, len(op.support), dims)
    elif op.kind == GateKind.COLLECTIVE_R:
        single = _rotation(truncated_pauli(op.axis, dims), op.angle)
        mat = np.array([[1.0 + 0j]])
        for _ in op.support:
            mat = np.kron(mat, single)
    elif op.kind == GateKind.ADDRESSED_Z:
        mat = np.eye(dims, dtype=complex)
        mat[0, 0] = np.exp(-1j * op.angle / 2)
        mat[1, 1] = np.exp(+1j * op.angle / 2)
    elif op.kind == GateKind.LOSS_ROT:
        mat = _loss_rotation_matrix(op.angle, dims)
    else:  # pragma: no cover
        raise ValueError(f"unknown gate kind {op.kind}")

    check_unitary(mat, len(mat))
    mat.setflags(write=False)
    _COMPILE_CACHE[key] = mat
    return mat


class Register:
    """A pure state that gates update in place."""

    def __init__(self, state: PureState):
        self.state = state

    @property
    def dims(self) -> int:
        return self.state.dims

    def apply(self, op: GateOp) -> None:
        if op.kind in (GateKind.MS_X, GateKind.COLLECTIVE_R):
            # commuting pair (MS) or single-ion (rotation) factors: exact and
            # cheap for wide supports
            width = 2 if op.kind == GateKind.MS_X else 1
            factor = compile_gate(replace(op, support=tuple(range(width))), self.dims)
            for ions in itertools.combinations(op.support, width):
                self.state = _apply_checked(self.state, factor, ions)
            return
        self.state = _apply_checked(self.state, compile_gate(op, self.dims), op.support)

    def run(self, ops: Iterable[GateOp]) -> PureState:
        for op in ops:
            self.apply(op)
        return self.state
