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
    """Axis-aligned box with its own local dataset and GP."""

    lower: np.ndarray
    upper: np.ndarray
    model: GpModel

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not np.all(self.lower < self.upper):
            raise ValueError("cell must have lower < upper componentwise")

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x: np.ndarray) -> bool:
        """Ownership test: half-open, closed on domain-boundary upper faces."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower):
            return False
        at_domain_face = self.upper >= 1.0
        ok_upper = np.where(at_domain_face, x <= self.upper, x < self.upper)
        return bool(np.all(ok_upper))


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
        if not cell.diameter ** (-1.0 / cover.b) < cell.model.n + 1:
            continue
        mid = 0.5 * (cell.lower + cell.upper)
        children = []
        for corner in itertools.product((False, True), repeat=mid.size):
            corner = np.asarray(corner)
            children.append(Cell(np.where(corner, mid, cell.lower),
                                 np.where(corner, cell.upper, mid),
                                 GpModel(cell.model.kernel, cell.model.lam)))
        for x, y in zip(cell.model.points, cell.model.observations):
            for child in children:
                if child.contains(x):
                    child.model.update(x, y)
                    break
            else:
                raise RuntimeError(f"orphaned point {x} during split")
        pos = cover.cells.index(cell)
        cover.cells[pos : pos + 1] = children
        cover.total_created += len(children)
        n_split += 1
    return n_split
