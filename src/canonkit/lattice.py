"""Move generators for a free massive Euclidean scalar field on square graphs.

Each unit cell of a move's spacetime region contributes the plaquette
action sum((phi_i - phi_j)^2)/2 over its four edges plus m^2 phi^2 / 4 on
its four corners.  Summing cells reproduces the standard 2D Euclidean
lattice action; edge and mass weights are therefore cell multiplicities,
never hard-coded.

The expanding-square generator produces the bundled growing-lattice
example with a fixed vertex labelling for steps 0..2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import MoveSequence, RaggedMove, extend_to_square
from .errors import InputError


@dataclass(frozen=True)
class StepGraph:
    """Weighted coupling graph of one move; weights are cell multiplicities.

    Edges are (i, j, weight) index triples; vertex weights count the cells
    containing each vertex (they set the mass term).
    """

    vertices_from: tuple
    vertices_to: tuple
    intra_from: tuple = ()
    intra_to: tuple = ()
    cross: tuple = ()
    mass: float = 0.0
    vertex_weight_from: tuple = ()
    vertex_weight_to: tuple = ()
    step_from: int = 0
    step_to: int = 1

    def __post_init__(self):
        if self.mass < 0:
            raise InputError("mass must be non-negative")
        nf, nt = len(self.vertices_from), len(self.vertices_to)
        wf = self.vertex_weight_from or tuple([0.0] * nf)
        wt = self.vertex_weight_to or tuple([0.0] * nt)
        if len(wf) != nf or len(wt) != nt:
            raise InputError("one vertex weight per vertex required")
        object.__setattr__(self, "vertex_weight_from", tuple(wf))
        object.__setattr__(self, "vertex_weight_to", tuple(wt))
        for name, edges, ni, nj in (
            ("intra_from", self.intra_from, nf, nf),
            ("intra_to", self.intra_to, nt, nt),
            ("cross", self.cross, nf, nt),
        ):
            for i, j, w in edges:
                if not (0 <= i < ni and 0 <= j < nj):
                    raise InputError(f"{name} edge ({i},{j}) out of range")
                if (name != "cross" and i == j) or w <= 0:
                    raise InputError(f"{name} edge ({i},{j},{w}) invalid")


def move_from_graph(g: StepGraph) -> RaggedMove:
    """Quadratic move matrices from a weighted coupling graph.

    Every edge of weight w contributes w*(phi_i - phi_j)^2/2: w on both
    diagonal slots and -w on the off-diagonal (cross edges put their
    diagonal parts into a and b respectively).  Vertex v adds
    m^2/2 * cell_count(v) to its diagonal.
    """
    nf, nt = len(g.vertices_from), len(g.vertices_to)
    a = np.zeros((nf, nf))
    b = np.zeros((nt, nt))
    c = np.zeros((nf, nt))
    for mat, edges in ((a, g.intra_from), (b, g.intra_to)):
        for i, j, w in edges:
            mat[i, i] += w
            mat[j, j] += w
            mat[i, j] -= w
            mat[j, i] -= w
    for i, j, w in g.cross:
        a[i, i] += w
        b[j, j] += w
        c[i, j] -= w
    m2 = 0.5 * g.mass**2
    for mat, weights in ((a, g.vertex_weight_from), (b, g.vertex_weight_to)):
        for i, w in enumerate(weights):
            mat[i, i] += m2 * w
    return RaggedMove(g.step_from, g.step_to, a, b, c)


def ring_coordinates(n: int) -> list:
    """Vertex coordinates of square ring n in label order.

    Ring n is the boundary of the square [-(n-1), n]^2 (side 2n-1).
    Labelling: the four corners counter-clockwise from the upper left,
    then the left side bottom-to-top, top left-to-right, right
    top-to-bottom, bottom right-to-left.
    """
    if n < 1:
        return []
    lo, hi = -(n - 1), n
    corners = [(lo, hi), (hi, hi), (hi, lo), (lo, lo)]
    if n == 1:
        return corners
    inner = range(lo + 1, hi)
    sides = (
        [(lo, y) for y in inner]                # left, upward
        + [(x, hi) for x in inner]              # top, rightward
        + [(hi, y) for y in reversed(inner)]    # right, downward
        + [(x, lo) for x in reversed(inner)]    # bottom, leftward
    )
    return corners + sides


def _square_cells(n: int) -> set:
    """Lower-left corners of the unit cells tiling the side-(2n-1) square."""
    if n < 1:
        return set()
    lo, hi = -(n - 1), n
    return {(x, y) for x in range(lo, hi) for y in range(lo, hi)}


def _cell_edges(cell):
    x, y = cell
    corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    return [tuple(sorted((corners[k], corners[(k + 1) % 4]))) for k in range(4)], corners


def expanding_move_graph(n: int, mass: float) -> StepGraph:
    """Coupling graph of the growing-square move n -> n+1.

    The region is the cell annulus between rings n and n+1 (the full
    side-1 square for the move from nothing, n = 0).
    """
    cells = _square_cells(n + 1) - _square_cells(n)
    coords_from = ring_coordinates(n)
    coords_to = ring_coordinates(n + 1)
    where = {}
    for k, xy in enumerate(coords_from):
        where[xy] = ("from", k)
    for k, xy in enumerate(coords_to):
        where[xy] = ("to", k)

    edge_mult, vertex_mult = {}, {}
    for cell in cells:
        edges, corners = _cell_edges(cell)
        for e in edges:
            edge_mult[e] = edge_mult.get(e, 0) + 1
        for v in corners:
            vertex_mult[v] = vertex_mult.get(v, 0) + 1

    intra_from, intra_to, cross = [], [], []
    for (u, v), w in sorted(edge_mult.items()):
        su, ku = where[u]
        sv, kv = where[v]
        if su == "from" and sv == "from":
            intra_from.append((ku, kv, w))
        elif su == "to" and sv == "to":
            intra_to.append((ku, kv, w))
        elif su == "from":
            cross.append((ku, kv, w))
        else:
            cross.append((kv, ku, w))
    wf = tuple(float(vertex_mult.get(xy, 0)) for xy in coords_from)
    wt = tuple(float(vertex_mult.get(xy, 0)) for xy in coords_to)
    return StepGraph(
        vertices_from=tuple(coords_from),
        vertices_to=tuple(coords_to),
        intra_from=tuple(intra_from),
        intra_to=tuple(intra_to),
        cross=tuple(cross),
        mass=mass,
        vertex_weight_from=wf,
        vertex_weight_to=wt,
        step_from=n,
        step_to=n + 1,
    )


@dataclass(frozen=True)
class ExpandingSquare:
    """Padded expanding-lattice sequence plus its reference bases.

    ``basis_t1``/``basis_t2`` are the explicit reference bases of the
    example (identity at step 1; the length-12 null-vector basis at step
    2), zero-padded to the sequence dimension.  ``basis_t2`` is ``None`` for
    a one-move sequence, which has no step 2.  Moves beyond step 2 are
    generated rather than hand-checked.
    """

    sequence: MoveSequence
    basis_t1: np.ndarray
    basis_t2: np.ndarray | None


def reference_basis_t2(dim: int = 12) -> np.ndarray:
    """The explicit reference basis at step 2, padded to ``dim``.

    Rows 1-4 are the corner-neighbour difference null vectors, rows 5-8
    the corner unit vectors, rows 9-12 unit vectors completing the basis.
    """
    if dim < 12:
        raise InputError("step-2 basis needs at least 12 slots")
    t = np.zeros((dim, dim))

    def e(i):
        v = np.zeros(dim)
        v[i - 1] = 1.0
        return v

    t[0] = e(12) - e(5)
    t[1] = e(11) - e(10)
    t[2] = e(9) - e(8)
    t[3] = e(7) - e(6)
    for k in range(4):
        t[4 + k] = e(k + 1)
    t[8] = e(9)
    t[9] = e(7)
    t[10] = e(11)
    t[11] = e(12)
    for k in range(12, dim):
        t[k] = e(k + 1)
    return t


def expanding_square_sequence(n_steps: int, mass: float = 0.0, hbar: float = 1.0) -> ExpandingSquare:
    """The expanding square-lattice sequence 0 -> 1 -> ... -> n_steps."""
    if n_steps < 1:
        raise InputError("need at least one move")
    moves = [move_from_graph(expanding_move_graph(n, mass)) for n in range(n_steps)]
    seq = extend_to_square(moves, hbar=hbar)
    q = seq.dim
    t1 = np.eye(q)
    t2 = reference_basis_t2(q) if n_steps >= 2 else None
    return ExpandingSquare(sequence=seq, basis_t1=t1, basis_t2=t2)
