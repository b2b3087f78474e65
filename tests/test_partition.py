import numpy as np
import pytest

from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec
from gpbandit.partition import Cell, initial_cover, split_constants, split_pass


@pytest.fixture
def kernel():
    return KernelSpec(MATERN, 0.2, 2.5)


def make_cover(d=2, T=100, nu=2.5, kernel=None, lam=0.01):
    kernel = kernel or KernelSpec(MATERN, 0.2, nu)
    return initial_cover(d, T, kernel, lam)


def breaks_capacity(cover, cell):
    """The split rule restated as an oracle: rho^(-1/b) < count + 1."""
    return cell.diameter ** (-1.0 / cover.b) < cell.model.n + 1


class TestSplitConstants:
    def test_d3_nu25(self):
        b, q = split_constants(3, 2.5)
        assert b == pytest.approx(4 / 8)
        assert q == pytest.approx(12 / 20)

    def test_d1_nu15(self):
        b, q = split_constants(1, 1.5)
        assert b == pytest.approx(0.5)
        assert q == pytest.approx(2 / 6)


class TestInitialCover:
    def test_d3_t100_has_eight_cells(self, kernel):
        cover = make_cover(d=3, T=100)
        # q = 0.6, m = floor(100^0.2) = 2 per side
        assert cover.cell_count == 8
        assert cover.cell_count <= 100 ** cover.q

    def test_t1_single_cell(self, kernel):
        cover = make_cover(d=2, T=1)
        assert cover.cell_count == 1
        cell = cover.cells[0]
        np.testing.assert_array_equal(cell.lower, np.zeros(2))
        np.testing.assert_array_equal(cell.upper, np.ones(2))

    def test_cells_start_empty(self):
        cover = make_cover(d=3, T=100)
        assert all(c.model.n == 0 for c in cover.cells)

    def test_diameter_matches_bounds(self):
        cover = make_cover(d=3, T=100)
        for cell in cover.cells:
            direct = float(np.linalg.norm(cell.upper - cell.lower))
            assert abs(cell.diameter - direct) < 1e-12


class TestLocate:
    def test_interior_boundary_goes_right(self, kernel):
        cover = make_cover(d=1, T=50)  # 1d grid with >= 2 cells
        assert cover.cell_count >= 2
        x = np.array([cover.cells[0].upper[0]])
        assert [c for c in cover.cells if c.contains(x)] == [cover.cells[1]]

    def test_domain_corners(self):
        cover = make_cover(d=1, T=50)
        for x, cell in ((0.0, cover.cells[0]), (1.0, cover.cells[-1])):
            assert [c for c in cover.cells if c.contains(np.array([x]))] == [cell]

    def test_every_point_owned_once(self):
        cover = make_cover(d=3, T=100)
        rng = np.random.default_rng(31)
        for x in rng.uniform(size=(1000, 3)):
            owners = [c for c in cover.cells if c.contains(x)]
            assert len(owners) == 1

    def test_outside_rejected(self):
        cover = make_cover(d=2, T=10)
        assert not any(c.contains(np.array([1.2, 0.5])) for c in cover.cells)


class TestSplitRule:
    def test_empty_cell_with_small_diameter_never_splits(self, kernel):
        # rho <= 1 gives capacity rho^(-1/b) >= 1, and 1 < 0 + 1 fails strictly
        cover = make_cover(d=2, T=1)
        cover.b = 0.5
        for side in (1 / np.sqrt(2), 0.3, 0.05):
            cell = Cell(np.zeros(2), np.full(2, side), GpModel(kernel, 0.01))
            assert cell.diameter <= 1.0 + 1e-12
            cover.cells = [cell]
            assert not breaks_capacity(cover, cell)
            assert split_pass(cover) == 0 and cover.cells == [cell]

    def test_strict_inequality_boundary(self, kernel):
        cover = make_cover(d=2, T=1)
        cover.b = 0.5
        cell = Cell(np.zeros(2), np.full(2, 1 / np.sqrt(2)), GpModel(kernel, 0.01))
        cover.cells = [cell]
        assert cell.diameter == pytest.approx(1.0)
        assert not breaks_capacity(cover, cell)  # 1 < 0 + 1 fails
        assert split_pass(cover) == 0 and cover.cells == [cell]

    def test_split_fires_and_halves_diameter(self, kernel):
        cover = make_cover(d=2, T=1)
        cover.b = 0.5
        side = 0.5 / np.sqrt(2)  # l2 diagonal 0.5
        cell = Cell(np.zeros(2), np.full(2, side), GpModel(kernel, 0.01))
        cover.cells = [cell]
        assert cell.diameter == pytest.approx(0.5)
        rng = np.random.default_rng(32)
        for _ in range(4):
            cell.model.update(rng.uniform(0, side, size=2), rng.normal())
        # rho^-2 = 4 < 5 -> split into 4 children of half the diameter
        assert breaks_capacity(cover, cell)
        assert split_pass(cover) == 1
        children = cover.cells
        assert len(children) == 4
        assert cover.cell_count == 4
        for child in children:
            assert child.diameter == pytest.approx(cell.diameter / 2)

    def test_point_conservation_across_splits(self):
        cover = make_cover(d=2, T=100)
        rng = np.random.default_rng(33)
        total = 0
        for _ in range(60):
            x = rng.uniform(size=2)
            owners = [c for c in cover.cells if c.contains(x)]
            assert len(owners) == 1
            owners[0].model.update(x, rng.normal())
            total += 1
            split_pass(cover)
            assert sum(c.model.n for c in cover.cells) == total

    def test_tiling_preserved_after_splits(self):
        cover = make_cover(d=2, T=100)
        rng = np.random.default_rng(34)
        for _ in range(80):
            x = rng.uniform(size=2)
            owners = [c for c in cover.cells if c.contains(x)]
            assert len(owners) == 1
            owners[0].model.update(x, rng.normal())
            split_pass(cover)
        for x in rng.uniform(size=(500, 2)):
            owners = [c for c in cover.cells if c.contains(x)]
            assert len(owners) == 1

    def test_children_rebuilt_from_parent_data(self, kernel):
        cover = make_cover(d=1, T=1)
        cover.b = 0.5
        cell = cover.cells[0]
        xs = [0.1, 0.3, 0.6, 0.9]
        for x in xs:
            cell.model.update(np.array([x]), float(x))
        split_pass(cover)
        children = cover.cells
        assert len(children) == 2
        left, right = children
        np.testing.assert_allclose(left.model.points.ravel(), [0.1, 0.3])
        np.testing.assert_allclose(right.model.points.ravel(), [0.6, 0.9])
        assert left.model.observations.tolist() == [0.1, 0.3]
        assert right.model.observations.tolist() == [0.6, 0.9]

    def test_total_created_counts_children(self):
        cover = make_cover(d=2, T=100)
        before = cover.total_created
        rng = np.random.default_rng(35)
        for _ in range(60):
            x = rng.uniform(size=2)
            owners = [c for c in cover.cells if c.contains(x)]
            assert len(owners) == 1
            owners[0].model.update(x, rng.normal())
            split_pass(cover)
        grown = cover.total_created - before
        assert grown % 4 == 0
        assert cover.total_created >= cover.cell_count
