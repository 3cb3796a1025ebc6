"""Quadratic per-move actions, padding to a common dimension, Legendre data.

A move n-1 -> n carries the action

    S_n = 1/2 x_{n-1}ᵀ a x_{n-1} + 1/2 x_nᵀ b x_n + x_{n-1}ᵀ c x_n

with a, b symmetric.  c is minus the Lagrangian two-form; its null vectors
are the source of every constraint downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, Tolerance, _guarded_tolerance, as_matrix, asymmetry


def check_hbar(hbar) -> None:
    """The hbar rule: 0 < hbar, and 2 pi hbar (logged by measures) in float range."""
    if not 0 < hbar < np.finfo(float).max / (2 * np.pi):
        raise InputError("hbar must be positive and finite, and 2 pi hbar in float range")


@dataclass(frozen=True)
class QuadraticMove:
    """One evolution move on the common (extended) configuration space."""

    step_from: int
    step_to: int
    a: np.ndarray  # (Q, Q) coefficients on x_from
    b: np.ndarray  # (Q, Q) coefficients on x_to
    c: np.ndarray  # (Q, Q) cross coefficients

    def __post_init__(self):
        a, b, c = as_matrix(self.a), as_matrix(self.b), as_matrix(self.c)
        if not (a.shape == b.shape == c.shape) or a.shape[0] != a.shape[1]:
            raise InputError("move matrices must be square and equally sized")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @cached_property
    def scale(self) -> float:
        """The largest |entry| of a, b and c, once: a move's matrices are not changed."""
        return max((np.abs(m).max() for m in (self.a, self.b, self.c) if m.size), default=0.0)

    def action(self, x_from, x_to) -> float:
        x0 = np.asarray(x_from, dtype=float)
        x1 = np.asarray(x_to, dtype=float)
        return float(0.5 * x0 @ self.a @ x0 + 0.5 * x1 @ self.b @ x1 + x0 @ self.c @ x1)

    def scaled(self, s: float) -> "QuadraticMove":
        return QuadraticMove(self.step_from, self.step_to, s * self.a, s * self.b, s * self.c)

    def reversed(self) -> "QuadraticMove":
        """The same action read backward in time, step_to -> step_from.

        (a, b, c) becomes (b, a, cᵀ); the step labels are kept, so the
        reversed move runs from the higher label to the lower one.
        """
        return QuadraticMove(self.step_to, self.step_from, self.b, self.a, self.c.T)


@dataclass(frozen=True)
class RaggedMove:
    """A move whose two steps may carry different numbers of variables."""

    step_from: int
    step_to: int
    a: np.ndarray  # (d_from, d_from)
    b: np.ndarray  # (d_to, d_to)
    c: np.ndarray  # (d_from, d_to)

    def __post_init__(self):
        a, b, c = as_matrix(self.a), as_matrix(self.b), as_matrix(self.c)
        if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
            raise InputError("a and b must be square")
        if c.shape != (a.shape[0], b.shape[0]):
            raise InputError(f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim_from(self) -> int:
        return self.a.shape[0]

    @property
    def dim_to(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class MoveSequence:
    """Consecutively labelled moves sharing one extended dimension Q.

    ``slot_maps[n][k]`` is the padded slot of original variable k at step n;
    spurious padding slots do not appear.  hbar is carried once for the
    quantum layer.
    """

    dim: int
    moves: tuple
    hbar: float = 1.0
    slot_maps: dict = field(default_factory=dict)

    def __post_init__(self):
        moves = tuple(self.moves)
        if not moves:
            raise InputError("sequence must contain at least one move")
        for m in moves:
            if m.dim != self.dim:
                raise InputError("all moves must share the sequence dimension")
        check_hbar(self.hbar)
        object.__setattr__(self, "moves", moves)

    @property
    def first_step(self) -> int:
        return self.moves[0].step_from

    @property
    def last_step(self) -> int:
        return self.moves[-1].step_to

    @property
    def steps(self) -> range:
        return range(self.first_step, self.last_step + 1)

    def moves_between(self, from_step: int, to_step: int) -> tuple:
        """The moves from ``from_step`` to ``to_step``; every step range is
        read here.  A range that is not ``first_step <= from_step < to_step
        <= last_step``, or that holds no move, is an InputError."""
        moves = tuple(m for m in self.moves if from_step <= m.step_from and m.step_to <= to_step)
        if not (moves and self.first_step <= from_step < to_step <= self.last_step):
            raise InputError(f"step range {from_step}->{to_step} is not within the "
                             f"sequence's steps {self.first_step}..{self.last_step}")
        return moves

    def move_into(self, step: int):
        """The move arriving at ``step``, or None at the first step."""
        for m in self.moves:
            if m.step_to == step:
                return m
        return None

    def move_out_of(self, step: int):
        """The move leaving ``step``, or None at the last step."""
        for m in self.moves:
            if m.step_from == step:
                return m
        return None

    def hessian(self, step: int) -> np.ndarray:
        """b of the incoming move plus a of the outgoing move at ``step``."""
        h = np.zeros((self.dim, self.dim))
        m_in = self.move_into(step)
        m_out = self.move_out_of(step)
        if m_in is None and m_out is None:
            raise InputError(f"step {step} is not part of the sequence")
        if m_in is not None:
            h = h + m_in.b
        if m_out is not None:
            h = h + m_out.a
        return h


def extend_to_square(moves, hbar: float = 1.0) -> MoveSequence:
    """Zero-pad ragged moves so every step carries Q = max dimension slots.

    Original variables keep their indices; spurious slots trail them.  The
    resulting per-step slot maps are recorded on the sequence.
    """
    moves = list(moves)
    if not moves:
        raise InputError("no moves supplied")
    for prev, nxt in zip(moves, moves[1:]):
        if nxt.step_from != prev.step_to:
            raise InputError(
                f"moves {prev.step_from}->{prev.step_to} and "
                f"{nxt.step_from}->{nxt.step_to} are not consecutive"
            )
        if nxt.dim_from != prev.dim_to:
            raise InputError(
                f"step {nxt.step_from} has dimension {prev.dim_to} in one move "
                f"and {nxt.dim_from} in the next"
            )
    q = max(max(m.dim_from, m.dim_to) for m in moves)
    padded = []
    slot_maps = {moves[0].step_from: list(range(moves[0].dim_from))}
    for m in moves:
        a = np.zeros((q, q))
        b = np.zeros((q, q))
        c = np.zeros((q, q))
        a[: m.dim_from, : m.dim_from] = m.a
        b[: m.dim_to, : m.dim_to] = m.b
        c[: m.dim_from, : m.dim_to] = m.c
        padded.append(QuadraticMove(m.step_from, m.step_to, a, b, c))
        slot_maps[m.step_to] = list(range(m.dim_to))
    return MoveSequence(q, tuple(padded), hbar=hbar, slot_maps=slot_maps)


def legendre(move: QuadraticMove):
    """Both discrete Legendre transforms of a move as affine map pairs.

    Returns ``(pre_map, post_map)`` where each map is a matrix pair
    ``(on_x_from, on_x_to)``:

        pre momentum at step_from:  -p = -a x_from - c x_to
        post momentum at step_to:   +p = cᵀ x_from + b x_to
    """
    pre_map = (-move.a, -move.c)
    post_map = (move.c.T, move.b)
    return pre_map, post_map


def pre_momentum(move: QuadraticMove, x_from, x_to) -> np.ndarray:
    return -move.a @ np.asarray(x_from, float) - move.c @ np.asarray(x_to, float)


def post_momentum(move: QuadraticMove, x_from, x_to) -> np.ndarray:
    return move.c.T @ np.asarray(x_from, float) + move.b @ np.asarray(x_to, float)


def moves_tolerance(tol, *moves) -> Tolerance:
    """``with_scale`` of the moves' a, b and c, read off their cached scales."""
    if isinstance(tol, Tolerance):
        return tol
    return _guarded_tolerance(tol, max((m.scale for m in moves), default=0.0),
                              max((m.a.size for m in moves), default=0))


def _trusted(cls, fields: dict):
    """The frozen dataclass ``cls`` holding ``fields``, all of them, already checked."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def validate(seq: MoveSequence, tol: float = DEFAULT_TOL) -> list:
    """Human-readable findings; empty iff all sequence invariants hold."""
    findings = []
    tol = moves_tolerance(tol, *seq.moves)
    for m in seq.moves:
        for name, mat in (("a", m.a), ("b", m.b)):
            defect = asymmetry(mat, tol)
            if defect:
                findings.append(
                    f"move {m.step_from}->{m.step_to}: {name} asymmetric "
                    f"(max defect {defect:.3e})"
                )
        if m.step_to != m.step_from + 1:
            findings.append(
                f"move {m.step_from}->{m.step_to}: step labels not consecutive"
            )
    for prev, nxt in zip(seq.moves, seq.moves[1:]):
        if nxt.step_from != prev.step_to:
            findings.append(
                f"gap between moves {prev.step_from}->{prev.step_to} and "
                f"{nxt.step_from}->{nxt.step_to}"
            )
    return findings
