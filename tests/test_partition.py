import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpbandit import optimizers
from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec
from gpbandit.optimizers import ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T, RunConfig, run
from gpbandit.partition import Cell, Cover, initial_cover, split_constants, split_pass
from gpbandit.testbed import NoisyOracle, standard_function


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


def contains_on_arrays(cell, x) -> bool:
    """The ownership rule on arrays, the reference for Cell.contains:
    half-open, closed on domain-boundary upper faces."""
    x = np.asarray(x, dtype=float)
    if np.any(x < cell.lower):
        return False
    return bool(np.all(np.where(cell.upper >= 1.0, x <= cell.upper, x < cell.upper)))


def move_in_on_arrays(cell, x):
    """The upper-face move on arrays, the reference for Cell.move_in."""
    clamp = (cell.upper < 1.0) & (x >= cell.upper)
    return np.where(clamp, np.nextafter(cell.upper, cell.lower), x) if clamp.any() else x


def cell_of(lower, upper) -> Cell:
    return Cell(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float),
                GpModel(KernelSpec(MATERN, 0.2, 2.5), 0.01))


@st.composite
def cell_and_point(draw):
    """A dyadic cell of [0, 1]^d and a point whose coordinates sit on its
    lower or upper faces (interior or on the domain's), one ulp off them,
    inside, outside, at +-0.0 or NaN."""
    d = draw(st.integers(1, 4))
    level = draw(st.integers(0, 4))
    k = [draw(st.integers(0, 2**level - 1)) for _ in range(d)]
    lower = np.array(k, dtype=float) / 2**level
    upper = (np.array(k, dtype=float) + 1) / 2**level
    x = []
    for a, b in zip(lower.tolist(), upper.tolist()):
        x.append(draw(st.one_of(
            st.sampled_from([a, b, -a, math.nextafter(a, -1.0), math.nextafter(b, 2.0),
                             math.nextafter(b, a), a - 0.25, b + 0.25, 0.0, -0.0, 1.0,
                             math.nan]),
            st.floats(a, b), st.floats(-1.0, 2.0))))
    return cell_of(lower, upper), np.array(x)


class TestOwnershipOnFloats:
    @settings(max_examples=400, deadline=None)
    @given(cell_and_point())
    @example((cell_of([0.0, 0.0], [0.5, 0.5]), np.array([0.25, 0.5])))  # interior upper face
    @example((cell_of([0.5], [1.0]), np.array([1.0])))  # the domain's upper face
    @example((cell_of([0.0, 0.0], [1.0, 1.0]), np.array([-0.0, math.nan])))
    def test_contains_and_move_in_keep_the_array_rule(self, args):
        cell, x = args
        assert cell.contains(x) is contains_on_arrays(cell, x)
        assert cell.contains(list(x)) is contains_on_arrays(cell, x)
        box = np.clip(x, cell.lower, cell.upper)  # move_in takes points of the box
        got, want = cell.move_in(box), move_in_on_arrays(cell, box)
        assert (got is box) == (want is box)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if not np.isnan(box).any():
            assert cell.contains(got)

    def test_box_is_the_bounds_as_floats(self):
        cell = cell_of([0.25, 0.0], [0.5, 1.0])
        assert cell.box == ((0.25, 0.0), (0.5, 1.0))
        assert all(type(v) is float for side in cell.box for v in side)

    def test_wrong_length_raises(self):
        cell = cell_of([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cell.contains(np.array([0.5, 0.5, 0.5]))


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

    @pytest.mark.parametrize("d", range(1, 7))
    def test_children_hold_the_points_they_contain(self, kernel, d):
        # split_pass files each point by the corner of the parent it lies in;
        # against contains, on random points, points on every midpoint face
        # and points on the domain's upper faces, which the cell owns
        rng = np.random.default_rng(36 + d)
        b = split_constants(d, kernel.nu)[0]
        edge = np.arange(d) % 2 == 0
        parents = [(np.zeros(d), np.ones(d)),
                   (np.full(d, 0.25), np.full(d, 0.75)),
                   (np.where(edge, 0.5, 0.0), np.where(edge, 1.0, 0.5))]
        for lower, upper in parents:
            mid = 0.5 * (lower + upper)
            xs = list(rng.uniform(lower, upper, size=(20, d)))
            for axis in range(d):
                for face in (mid, upper) if upper[axis] == 1.0 else (mid,):
                    x = rng.uniform(lower, upper)
                    x[axis] = face[axis]
                    xs.append(x)
            xs += [mid, np.where(upper == 1.0, 1.0, lower)]
            ys = rng.normal(size=len(xs)).tolist()
            parent = Cell(lower, upper, GpModel(kernel, 0.01))
            for x, y in zip(xs, ys):
                assert parent.contains(x)
                parent.model.update(x, y)
            cover = Cover([parent], b, math.nan)
            assert split_pass(cover) == 1 and cover.cell_count == 2**d
            for child in cover.cells:
                mine = [child.contains(x) for x in xs]
                assert child.model.points.tolist() == [x.tolist() for x, m in zip(xs, mine) if m]
                assert child.model.observations.tolist() == [y for y, m in zip(ys, mine) if m]
            assert sum(child.model.n for child in cover.cells) == len(xs)

    def test_empty_parent_splits_into_empty_children(self, kernel):
        # at d = 5 the unit box's children have diameter sqrt(5)/2 > 1, so
        # they break the rule with no data
        child = Cell(np.zeros(5), np.full(5, 0.5), GpModel(kernel, 0.01))
        cover = Cover([child], split_constants(5, kernel.nu)[0], math.nan)
        assert child.diameter > 1.0
        assert split_pass(cover) == 1 and cover.cell_count == 32
        assert all(grandchild.model.n == 0 for grandchild in cover.cells)

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


class TestDiameterSetOnce:
    def test_run_matches_a_fresh_norm(self, monkeypatch):
        # Improved GP-EI on Hartmann-3 at T = 20: every split pass splits
        # exactly the cells that the rule, with the norm computed afresh,
        # picks among the cells present when it starts, every cell's stored
        # diameter is that norm and its kept capacity that norm's power, and
        # every cell's model counts the points it was handed
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(algorithm=ALG_IMPROVED_GP_EI, horizon_T=20,
                        omega_mode=OMEGA_POLYLOG_T, kernel=KernelSpec(MATERN, 0.2, 2.5))
        oracle = NoisyOracle(target, d, 0.1, np.random.default_rng(10_000))
        real_split_pass, passes = optimizers.split_pass, []

        def fresh_norm(cell):
            return float(np.linalg.norm(cell.upper - cell.lower))

        def replayed(cover):
            before = list(cover.cells)
            want = [c for c in before
                    if fresh_norm(c) ** (-1.0 / cover.b) < c.model.n + 1]
            n_split = real_split_pass(cover)
            assert [c for c in before if c not in cover.cells] == want
            assert n_split == len(want)
            for cell in cover.cells:
                assert cell.diameter == fresh_norm(cell)
                assert cell.model.n == len(cell.model.points) == len(cell.model.observations)
            for cell in before:
                assert cell.capacity == fresh_norm(cell) ** (-1.0 / cover.b)
            passes.append(n_split)
            return n_split

        monkeypatch.setattr(optimizers, "split_pass", replayed)
        trace = run(cfg, oracle, opt)
        assert len(passes) == 20 and sum(passes) > 0
        assert trace.rows[-1].cell_count > trace.rows[0].cell_count
