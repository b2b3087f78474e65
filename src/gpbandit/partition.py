"""Adaptive hypercube cover of the unit box.

The cover starts as a uniform grid whose cardinality stays within T^q.  After
each observation one split pass bisects every cell whose sample count has
outgrown its diameter-derived capacity: a cell of diameter rho splits once
rho^(-1/b) < count + 1.  Each cell owns an independent GP over the
observations falling inside it; a split hands the parent's data to its 2^d
children in insertion order.

Cell ownership is half-open ([lower, upper) per axis) except on faces that
coincide with the domain's upper boundary, which are closed; this gives every
point exactly one owning cell even though neighbouring boxes share faces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gp import GpModel
from .kernels import KernelSpec


def split_constants(d: int, nu: float) -> tuple[float, float]:
    """Capacity exponent b and cover-cardinality exponent q for dimension d."""
    b = (d + 1) / (d + 2.0 * nu)
    q = d * (d + 1) / (d * (d + 2) + 2.0 * nu)
    return b, q


@dataclass(eq=False)
class Cell:
    """Axis-aligned box with its own local dataset and GP.

    The box is kept twice, each form set once with it: lower and upper as
    float arrays for the work on many points (draws, splits), and box, the
    pair (lower, upper) as tuples of Python floats, for the per-step work on
    one point or one bound (contains, move_in, GpModel.box_reach), where a
    numpy call on d numbers costs more than the arithmetic."""

    lower: np.ndarray
    upper: np.ndarray
    model: GpModel
    diameter: float = field(init=False)  # of the box
    box: tuple[tuple[float, ...], tuple[float, ...]] = field(init=False, repr=False)
    # per axis, whether the upper face lies on the domain's and is closed
    _closed: tuple[bool, ...] = field(init=False, repr=False)
    # split_pass's capacity diameter ** (-1 / b), set at the cell's first pass
    capacity: float | None = field(init=False, default=None)
    # the select phase's last search of the cell, made or deferred, under
    # its key (model.n, omega_t)
    search: object | None = field(init=False, default=None)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not np.all(self.lower < self.upper):
            raise ValueError("cell must have lower < upper componentwise")
        self.diameter = float(np.linalg.norm(self.upper - self.lower))
        self.box = tuple(self.lower.tolist()), tuple(self.upper.tolist())
        self._closed = tuple(b >= 1.0 for b in self.box[1])

    def contains(self, x) -> bool:
        """Ownership test: half-open, closed on domain-boundary upper faces;
        False where a coordinate of x is NaN."""
        xs = np.asarray(x, dtype=float).tolist()
        for xi, a, b, closed in zip(xs, *self.box, self._closed, strict=True):
            if not (a <= xi and (xi <= b if closed else xi < b)):
                return False
        return True

    def move_in(self, x: np.ndarray) -> np.ndarray:
        """x, a point of the closed box, kept in the cell's ownership region:
        an exact hit on a shared upper face would belong to the neighbour
        cell, so there x is copied and moved in by one ulp; x itself where
        it needs no move."""
        xs, moved = x.tolist(), False
        for i, (a, b, closed) in enumerate(zip(*self.box, self._closed)):
            if not closed and xs[i] >= b:
                xs[i], moved = math.nextafter(b, a), True
        return np.array(xs) if moved else x


@dataclass
class Cover:
    """Set of cells tiling [0,1]^d, plus the split-rule constants."""

    cells: list[Cell]
    b: float
    q: float
    total_created: int = field(init=False)

    def __post_init__(self):
        self.total_created = len(self.cells)

    @property
    def cell_count(self) -> int:
        return len(self.cells)


def initial_cover(d: int, T: int, kernel: KernelSpec, lam: float) -> Cover:
    """Uniform grid with max(1, floor(T^(q/d))) cells per side."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    b, q = split_constants(d, kernel.nu)
    m = max(1, math.floor(T ** (q / d)))
    edges = np.linspace(0.0, 1.0, m + 1)
    cells = []
    for idx in itertools.product(range(m), repeat=d):
        lower = np.array([edges[i] for i in idx])
        upper = np.array([edges[i + 1] for i in idx])
        cells.append(Cell(lower, upper, GpModel(kernel, lam)))
    return Cover(cells, b, q)


def split_pass(cover: Cover) -> int:
    """Bisect, in place, every cell that breaks the capacity rule (strict
    inequality) into 2^d children; returns the number of cells split.
    Children that break the rule at once are left for the next pass."""
    n_split = 0
    for cell in list(cover.cells):
        if cell.capacity is None:
            cell.capacity = cell.diameter ** (-1.0 / cover.b)
        if not cell.capacity < cell.model.n + 1:
            continue
        mid = 0.5 * (cell.lower + cell.upper)
        children = []
        for corner in itertools.product((False, True), repeat=mid.size):
            corner = np.asarray(corner)
            children.append(Cell(np.where(corner, mid, cell.lower),
                                 np.where(corner, cell.upper, mid),
                                 GpModel(cell.model.kernel, cell.model.lam)))
        # a point's child is its corner, the upper half where x >= mid, as
        # contains reads half-open faces; the first axis is the top bit
        bits = 2 ** np.arange(mid.size - 1, -1, -1)
        for x, y in zip(cell.model.points, cell.model.observations):
            children[int((x >= mid) @ bits)].model.update(x, y)
        pos = cover.cells.index(cell)
        cover.cells[pos : pos + 1] = children
        cover.total_created += len(children)
        n_split += 1
    return n_split
