import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sliceforge import layout as layout_mod
from sliceforge.errors import InfeasibleError
from sliceforge.layout import (
    PAGE_SIZES_MM,
    MaxRects,
    _assign_clusters_to_sheets,
    _first_centre,
    build_vectors,
    cluster_slices,
    kmeans_elbow,
    pack,
    page_plan,
    partition_page,
    pca_2d,
    scale_range,
    slice_print_size,
)
from sliceforge.ordering import AssemblyPlan

from helpers import place_reference, prune_contained_reference, synthetic_slices


def plan_for(slices):
    return AssemblyPlan(
        hinge_order=(), slice_order=tuple(s.id for s in slices), objective=0.0, exact=True
    )


def grid_slices(extents, dims=(128, 128, 128)):
    """Alternating-orientation slices with given (u0, v0, u1, v1) extents."""
    specs = []
    for i, ext in enumerate(extents):
        specs.append(("x" if i % 2 == 0 else "y", (i * 7) % dims[0], ext, (i,)))
    return synthetic_slices(specs)


class TestBuildVectors:
    def test_five_slices_order_component(self):
        slices = grid_slices([(0, 0, 64, 64)] * 5)
        vectors = build_vectors(slices, plan_for(slices), (128, 128, 128))
        assert vectors.shape == (5, 4)
        assert vectors[:, 3].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert ((0.0 <= vectors) & (vectors <= 1.0)).all()

    def test_single_slice_degenerate_d(self):
        slices = grid_slices([(0, 0, 64, 64)])
        ((*_, d),) = build_vectors(slices, plan_for(slices), (128, 128, 128))
        assert d == 0.0

    def test_mirrored_centers_symmetric(self):
        slices = synthetic_slices(
            [("x", 32, (0, 0, 128, 128), (0,)), ("x", 96, (0, 0, 128, 128), (1,))]
        )
        xs = build_vectors(slices, plan_for(slices), (128, 128, 128))[:, 0]
        assert math.isclose(xs[0] + xs[1], 1.0)


class TestPca:
    def test_identical_vectors_project_to_zero(self):
        projected = pca_2d(np.full((3, 4), 0.5))
        assert projected.shape == (3, 2)
        assert np.allclose(projected, 0.0)

    def test_rank_one_second_component_zero(self):
        data = np.array([(0.1 * i, 0.5, 0.5, 0.5) for i in range(4)])
        projected = pca_2d(data)
        assert np.allclose(projected[:, 1], 0.0, atol=1e-12)

    def test_generic_vectors_match_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(size=(6, 4))
        projected = pca_2d(data)
        # oracle: full eigendecomposition of the covariance
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / len(data)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top2 = eigvals[np.argsort(eigvals)[::-1][:2]]
        variance_captured = projected.var(axis=0, ddof=0).sum()
        assert math.isclose(variance_captured, float(top2.sum()), rel_tol=1e-9)
        # projection is a contraction of pairwise distances
        for i in range(len(data)):
            for j in range(i + 1, len(data)):
                d2 = np.linalg.norm(projected[i] - projected[j])
                d4 = np.linalg.norm(centered[i] - centered[j])
                assert d2 <= d4 + 1e-9

    def test_orthonormality_tolerance(self):
        rng = np.random.default_rng(17)
        data = rng.uniform(size=(12, 4))
        # full-rank data: least squares recovers the (4, 2) directions projected onto
        directions, *_ = np.linalg.lstsq(data - data.mean(axis=0), pca_2d(data), rcond=None)
        gram = directions.T @ directions
        assert np.abs(gram - np.eye(2)).max() <= 1e-9


class TestKmeansElbow:
    def test_single_point(self):
        model = kmeans_elbow(np.array([[2.0, 3.0]]), k_max=6)
        assert model.k == 1
        assert np.allclose(model.centroids[0], [2.0, 3.0])
        assert model.assignment.tolist() == [0]

    def test_two_blobs_found(self):
        pts = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1],
             [5.0, 5.0], [5.1, 5.0], [5.0, 5.1], [5.1, 5.1]]
        )
        with mock.patch.object(layout_mod, "_lloyd", wraps=layout_mod._lloyd) as lloyd:
            model = kmeans_elbow(pts, k_max=4)
        assert model.k == 2
        assert len(set(model.assignment[:4])) == 1
        assert len(set(model.assignment[4:])) == 1
        assert model.assignment[0] != model.assignment[4]
        # exhaustive WCSS for k=1..3 confirms the elbow sits at 2: the k=1
        # to k=2 drop dominates the total, the next drop is negligible
        curve = [layout_mod._lloyd(pts, k, _first_centre(len(pts)))[2] for k in (1, 2, 3)]
        assert (curve[0] - curve[1]) / curve[0] >= 0.10
        assert (curve[1] - curve[2]) / curve[0] < 0.10
        assert [c.args[1] for c in lloyd.call_args_list] == [1, 2, 3]  # no k past the one after the elbow

    def test_assignments_are_nearest_centroid_fixed_point(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(40, 2))
        model = kmeans_elbow(pts, k_max=6)
        dists = ((pts[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignment, dists.argmin(axis=1))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(25, 2))
        a = kmeans_elbow(pts, k_max=5)
        b = kmeans_elbow(pts, k_max=5)
        assert a.k == b.k
        assert np.array_equal(a.assignment, b.assignment)

    @given(
        points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=40),
        k_max=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_k_max_at_the_chosen_k_gives_the_same_clustering(self, points, k_max):
        # the elbow keeps the first k whose gain is small, so a layout reader
        # that knows only the k of a layout clusters its slices as `pack` did
        pts = np.array(points)
        model = kmeans_elbow(pts, k_max)
        again = kmeans_elbow(pts, model.k)
        assert again.k == model.k
        assert np.array_equal(again.centroids, model.centroids)
        assert np.array_equal(again.assignment, model.assignment)


class TestFirstCentre:
    """`_first_centre` is the index numpy's generator started from 0 draws
    first, computed without importing numpy.random; the tests import it to
    compare."""

    FIRST_DIFFERENCE = 104_930  # numpy's rejection step draws again

    def test_equals_numpys_draw(self):
        rng = np.random.default_rng(0)
        start = rng.bit_generator.state
        for n in range(1, self.FIRST_DIFFERENCE):
            rng.bit_generator.state = start
            assert _first_centre(n) == int(rng.integers(n)), n

    def test_fixed_cases(self):
        # one point is its own centre; 14 and 116 slices are the smallest
        # workload and the CT-shaped case; at FIRST_DIFFERENCE numpy rejects
        # the word and draws again, so the two part
        assert [_first_centre(n) for n in (1, 2, 14, 116)] == [0, 1, 11, 98]
        n = self.FIRST_DIFFERENCE
        assert _first_centre(n) == 89_256
        assert int(np.random.default_rng(0).integers(n)) != _first_centre(n)


class TestPartitionPage:
    def test_single_cluster_whole_page(self):
        assert partition_page((0, 0, 100, 200), [5.0]) == [(0, 0, 100, 200)]

    def test_three_to_one_ratio(self):
        leaves = partition_page((0.0, 0.0, 100.0, 120.0), [300.0, 100.0])
        areas = [w * h for _x, _y, w, h in leaves]
        assert math.isclose(areas[0] / areas[1], 3.0, rel_tol=1e-9)

    def test_four_equal_clusters(self):
        leaves = partition_page((0.0, 0.0, 80.0, 60.0), [10.0] * 4)
        areas = [w * h for _x, _y, w, h in leaves]
        assert all(math.isclose(a, areas[0], rel_tol=1e-9) for a in areas)

    def test_leaves_tile_the_page(self):
        rng = np.random.default_rng(2)
        weights = list(rng.uniform(1, 10, size=5))
        page = (5.0, 7.0, 200.0, 287.0)
        leaves = partition_page(page, weights)
        assert math.isclose(sum(w * h for _x, _y, w, h in leaves), page[2] * page[3], rel_tol=1e-9)
        for (x, y, w, h) in leaves:
            assert x >= page[0] - 1e-9 and y >= page[1] - 1e-9
            assert x + w <= page[0] + page[2] + 1e-9
            assert y + h <= page[1] + page[3] + 1e-9
        for a, b in itertools.combinations(leaves, 2):
            dx = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
            dy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
            assert not (dx > 1e-9 and dy > 1e-9)

    def test_area_fractions_match_weights(self):
        weights = [3.0, 1.0, 2.0, 6.0]
        leaves = partition_page((0.0, 0.0, 90.0, 120.0), weights)
        total_w = sum(weights)
        total_a = 90.0 * 120.0
        for w, (_x, _y, lw, lh) in zip(weights, leaves):
            assert math.isclose(lw * lh / total_a, w / total_w, rel_tol=1e-9)


class TestMaxRects:
    def test_two_unit_squares_side_by_side(self):
        packer = MaxRects(2.0, 1.0)
        a = packer.insert(1.0, 1.0)
        b = packer.insert(1.0, 1.0)
        assert a == (0.0, 0.0, False)
        assert b == (1.0, 0.0, False)

    def test_best_short_side_fit_choice(self):
        packer = MaxRects(8.0, 4.0)
        assert packer.insert(8.0, 1.0) == (0.0, 0.0, False)
        # free rects now: 8x3 (above); a 7.5x3 item fits it snugly
        pos = packer.insert(7.5, 3.0)
        assert pos is not None and pos[2] is False

    def test_rotation_used_when_needed(self):
        packer = MaxRects(4.0, 2.0)
        pos = packer.insert(2.0, 4.0)
        assert pos == (0.0, 0.0, True)

    def test_reject_when_nothing_fits(self):
        packer = MaxRects(2.0, 2.0)
        assert packer.insert(3.0, 3.0) is None


    @given(
        bin_size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        # halves and repeated sizes make equal rectangles and shared edges
        sizes=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda s: (s[0] / 2, s[1] / 2)), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_free_list_equals_whole_list_prune(self, bin_size, sizes):
        # pruning only the split pieces keeps the free list, and its order,
        # of pruning the whole list after every placement
        packer = MaxRects(*bin_size)
        free = list(packer.free)
        for w, h in sizes:
            placed = packer.insert(w, h)
            if placed is not None:
                x, y, rotated = placed
                free = place_reference(free, (x, y, h, w) if rotated else (x, y, w, h))
            assert packer.free == free

    @given(
        rects=st.lists(st.tuples(*(st.integers(0, 6),) * 2, *(st.integers(1, 6),) * 2), min_size=1, max_size=12),
        used=st.tuples(*(st.integers(-1, 6),) * 2, *(st.integers(1, 5),) * 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_place_equals_whole_list_prune_on_any_pruned_list(self, rects, used):
        # any free list the prune leaves, and any used rectangle, including
        # ones that split two rectangles into equal pieces
        packer = MaxRects(1.0, 1.0)
        packer.free = prune_contained_reference(rects)
        free = place_reference(packer.free, used)
        packer._place(used)
        assert packer.free == free

def check_layout(layout, slices, spacing=(1.0, 1.0, 1.0)):
    """Exact rectangle arithmetic: in-partition and pairwise disjoint."""
    part_of = {}
    for part in layout.partitions:
        part_of[part.cluster] = part
    for pl in layout.placements:
        part = part_of[layout.cluster_of[pl.slice_id]]
        px, py, pw, ph = part.rect
        assert pl.page == part.page
        assert pl.x >= px and pl.y >= py
        assert pl.x + pl.w <= px + pw + 1e-12
        assert pl.y + pl.h <= py + ph + 1e-12
    for a, b in itertools.combinations(layout.placements, 2):
        if a.page != b.page:
            continue
        dx = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
        dy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
        assert not (dx > 0 and dy > 0)


class TestPack:
    def test_single_slice_fits_and_is_maximal(self):
        slices = grid_slices([(0, 0, 100, 50)])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (128, 128, 128))
        layout = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"], margin=5.0)
        (pl,) = layout.placements
        # placed at the partition origin
        assert (pl.x, pl.y) == (5.0, 5.0)
        check_layout(layout, slices)
        # rotated: 100 mm side along the 287 mm usable height
        assert pl.rotated
        from sliceforge.layout import _try_pack, slice_print_size  # probe helper

        sizes = {s.id: slice_print_size(s, (1.0, 1.0, 1.0), ("x", "y")) for s in slices}
        leaves = {p.cluster: (p.page, p.rect) for p in layout.partitions}
        assert _try_pack(layout.scale * 1.01, [slices[0]], sizes, layout.cluster_of, leaves, 4.0) is None

    def test_all_placements_share_global_scale(self):
        slices = grid_slices([(0, 0, 40, 30), (0, 0, 20, 60), (0, 0, 50, 50), (0, 0, 10, 10)])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (128, 128, 128))
        layout = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"])
        for pl in layout.placements:
            s = next(s for s in slices if s.id == pl.slice_id)
            w, h = slice_print_size(s, (1.0, 1.0, 1.0), ("x", "y"))
            got = (pl.w, pl.h) if not pl.rotated else (pl.h, pl.w)
            assert math.isclose(got[0], w * layout.scale, rel_tol=1e-12)
            assert math.isclose(got[1], h * layout.scale, rel_tol=1e-12)
        check_layout(layout, slices)

    def test_deterministic(self):
        slices = grid_slices([(0, 0, 40, 30), (0, 0, 20, 60), (0, 0, 50, 50)])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (128, 128, 128))
        a = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"])
        b = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"])
        assert a == b

    def test_page_plan_at_the_packed_scale_gives_the_layout(self):
        slices = grid_slices([(0, 0, 40, 30), (0, 0, 20, 60), (0, 0, 50, 50), (0, 0, 10, 10)])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (128, 128, 128))
        layout = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A3"], sheets=3)
        place = page_plan(slices, plan, clusters, (1.0, 1.0, 1.0), ("x", "y"), PAGE_SIZES_MM["A3"], layout.sheets,
                          layout.margin, layout.gutter)
        assert place(layout.scale) == layout
        assert place(layout.scale * 100) is None

    def test_infeasible_suggests_more_sheets(self):
        # two clusters of oversized slices: one A4 sheet cannot take them,
        # a second sheet can (pinned clustering isolates the pack behavior)
        import numpy as np

        from sliceforge.layout import ClusterModel

        specs = []
        for i in range(4):
            plane = 16 if i < 2 else 240
            specs.append(("x" if i % 2 == 0 else "y", plane, (0, 0, 250, 250), (i,)))
        slices = synthetic_slices(specs)
        plan = plan_for(slices)
        clusters = ClusterModel(
            k=2,
            centroids=np.array([[0.0, 0.0], [1.0, 0.0]]),
            assignment=np.array([0, 0, 1, 1]),
        )
        with pytest.raises(InfeasibleError) as err:
            pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"], sheets=1)
        assert "sheets" in str(err.value.hint)
        layout = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"], sheets=2)
        assert layout.sheets == 2
        check_layout(layout, slices)

    @pytest.mark.parametrize(
        "k, per_cluster, sheets",
        [(1, 3, 1), (1, 3, 3), (2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2), (3, 3, 5)],
    )
    def test_infeasible_hint_never_asks_for_more_sheets_than_clusters(self, k, per_cluster, sheets):
        # pinned clusters of 250 mm slices: A4 holds two per page at the
        # minimum scale, and each cluster lands on one page, so sheets past
        # k stay empty
        from sliceforge.layout import ClusterModel

        n = k * per_cluster
        slices = synthetic_slices(
            [("x" if i % 2 == 0 else "y", 16 + i, (0, 0, 250, 250), (i,)) for i in range(n)]
        )
        clusters = ClusterModel(
            k=k,
            centroids=np.array([[float(c), 0.0] for c in range(k)]),
            assignment=np.repeat(np.arange(k), per_cluster),
        )
        with pytest.raises(InfeasibleError) as err:
            pack(slices, plan_for(slices), clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"], sheets=sheets)
        hint = err.value.hint
        if sheets >= k:
            assert hint == "try a larger page or a wider --slot-width"
        else:
            suggested = int(hint.split("--sheets ")[1].split()[0])
            assert sheets < suggested <= k

    @pytest.mark.parametrize("sheets", [1, 2])
    def test_infeasible_hint_when_no_float_holds_the_area(self, sheets):
        # a 1e308 mm gutter makes the padded slice area infinite, which names
        # no sheet count: below k too, the hint asks for a larger page
        from sliceforge.layout import ClusterModel

        slices = synthetic_slices([("x" if i % 2 == 0 else "y", 16 + i, (0, 0, 10, 10), (i,)) for i in range(4)])
        clusters = ClusterModel(
            k=2, centroids=np.array([[0.0, 0.0], [1.0, 0.0]]), assignment=np.array([0, 0, 1, 1])
        )
        with pytest.raises(InfeasibleError) as err:
            pack(slices, plan_for(slices), clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"],
                 sheets=sheets, gutter=1e308)
        assert err.value.hint == "try a larger page or a wider --slot-width"

    def test_multi_sheet_partitions_disjoint_pages(self):
        slices = grid_slices([(0, 0, 90, 90), (0, 0, 90, 90), (0, 0, 90, 90), (0, 0, 90, 90)])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (128, 128, 128))
        layout = pack(slices, plan, clusters, (1.0, 1.0, 1.0), page_size=PAGE_SIZES_MM["A4"], sheets=2)
        check_layout(layout, slices)
        assert layout.sheets <= 2

    def test_anisotropic_spacing_respected(self):
        slices = synthetic_slices([("x", 8, (0, 0, 10, 10), (0,))])
        plan = plan_for(slices)
        clusters = cluster_slices(slices, plan, (16, 16, 16))
        layout = pack(slices, plan, clusters, (0.74, 0.74, 1.5), page_size=PAGE_SIZES_MM["A4"])
        (pl,) = layout.placements
        w, h = slice_print_size(slices[0], (0.74, 0.74, 1.5), ("x", "y"))
        assert math.isclose(w, 7.4) and math.isclose(h, 15.0)
        got = (pl.w, pl.h) if not pl.rotated else (pl.h, pl.w)
        assert math.isclose(got[0] / got[1], w / h, rel_tol=1e-9)


class TestSheetAssignment:
    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
        sheets=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_sheet_used_contiguous_non_decreasing(self, weights, sheets):
        sheet_of = _assign_clusters_to_sheets(weights, sheets)
        assert len(sheet_of) == len(weights)
        assert sheet_of[0] == 0
        assert all(b - a in (0, 1) for a, b in zip(sheet_of, sheet_of[1:]))
        if len(weights) >= sheets:
            assert set(sheet_of) == set(range(sheets))

    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
        sheets=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_pages_used_assign_as_the_sheets_asked(self, weights, sheets):
        # a layout records the pages that `pack` used, not the sheets it was
        # given; assigning onto those pages must give the same sheets again
        sheet_of = _assign_clusters_to_sheets(weights, sheets)
        assert _assign_clusters_to_sheets(weights, max(sheet_of) + 1) == sheet_of

    def test_one_cluster_per_sheet(self):
        assert _assign_clusters_to_sheets([1, 1], 2) == [0, 1]
        assert _assign_clusters_to_sheets([1, 1, 1], 3) == [0, 1, 2]


def _rounds_past(free, used) -> bool:
    """Whether a piece that `used` cuts from a free rectangle ends, by its
    float sum, past that rectangle's far edge."""
    ux, uy, uw, uh = used
    for fx, fy, fw, fh in free:
        fr, ft, ur, ut = fx + fw, fy + fh, ux + uw, uy + uh
        if ux < fr and ur > fx and uy < ft and ut > fy and (
            ux > fx and fx + (ux - fx) > fr
            or ur < fr and ur + (fr - ur) > fr
            or uy > fy and fy + (uy - fy) > ft
            or ut < ft and ut + (ft - ut) > ft
        ):
            return True
    return False


class TestMaxRectsRounding:
    """`MaxRects._place` prunes only the new pieces, unless a piece's far
    edge rounds past the edge of the rectangle it was cut from."""

    def test_a_piece_past_its_parent_prunes_the_whole_list(self):
        # found by search over tenths: the piece right of `used` in the
        # second rectangle ends at 0.6 + 1.1 = 1.7000000000000002, past that
        # rectangle's 0.5 + 1.2 = 1.7, and so holds the first rectangle, which
        # the second does not hold and a prune of the pieces alone would keep
        free, used = [(0.8, 0.5, 0.9, 0.8), (0.5, 0.5, 1.2, 3.0)], (0.5, 2.3, 0.1, 2.0)
        assert prune_contained_reference(free) == free and _rounds_past(free, used)
        packer = MaxRects(1.0, 1.0)
        packer.free = list(free)
        packer._place(used)
        assert packer.free == place_reference(free, used) == [(0.6, 0.5, 1.1, 3.0), (0.5, 0.5, 1.2, 1.7999999999999998)]

    @given(
        rects=st.lists(st.tuples(*(st.integers(0, 30),) * 2, *(st.integers(1, 30),) * 2), min_size=1, max_size=12),
        used=st.tuples(*(st.integers(-5, 30),) * 2, *(st.integers(1, 25),) * 2),
    )
    @settings(max_examples=500, deadline=None)
    def test_place_equals_whole_list_prune_on_tenths(self, rects, used):
        # tenths are not exact in binary, so pieces often end past their parent
        free = prune_contained_reference([tuple(v / 10 for v in r) for r in rects])
        used = tuple(v / 10 for v in used)
        if _rounds_past(free, used):
            event("a piece ends past its parent")
        packer = MaxRects(1.0, 1.0)
        packer.free = list(free)
        packer._place(used)
        assert packer.free == place_reference(free, used)


class TestInfeasibleMessage:
    @pytest.mark.parametrize("slot_width", [0.3, 1.0, 2.0])
    def test_names_the_slot_width_printed_at_the_smallest_scale(self, slot_width):
        # the search starts at the low end of `scale_range`, which prints the
        # slot at LEGIBLE_SLOT_FRACTION of MIN_PRINT_SLOT_MM, whatever its width
        from sliceforge.layout import ClusterModel

        slices = synthetic_slices([("x", 16, (0, 0, 4000, 4000), (0,))])
        clusters = ClusterModel(k=1, centroids=np.zeros((1, 2)), assignment=np.zeros(1, dtype=int))
        with pytest.raises(InfeasibleError) as err:
            pack(slices, plan_for(slices), clusters, (1.0, 1.0, 1.0), slot_width_mm=slot_width)
        low = scale_range(slot_width)[0] * slot_width
        assert f"printed slot width below {low:g} mm" in str(err.value)
        assert "printed slot width below 0.5 mm" in str(err.value)
