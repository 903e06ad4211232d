import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge.octree import (
    OctreeNode,
    Slice,
    build_octree,
    extract_slices,
    iter_nodes,
    unify_slices,
)
from sliceforge.volume import LabelVolume, quantize

from helpers import oracle_slice_count


def label_volume(arr: np.ndarray) -> LabelVolume:
    arr = np.asarray(arr, np.uint16)
    return LabelVolume(
        dims=arr.shape, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0),
        labels=arr, n_labels=int(arr.max()),
    )


class TestBuildOctree:
    def test_uniform_single_label_is_root_leaf(self):
        root = build_octree(label_volume(np.ones((16, 16, 16))), 3)
        assert root.is_leaf
        assert root.level == 1
        assert root.distinct_labels == {1}

    def test_interleaved_8cube_level2(self):
        x, y, z = np.meshgrid(*(np.arange(8),) * 3, indexing="ij")
        arr = 1 + (x + y + z) % 2
        root = build_octree(label_volume(arr), 2)
        assert len(root.children) == 8
        assert all(c.is_leaf and c.level == 2 for c in root.children)

    def test_subdivision_predicate_brute_force(self, checker16):
        # every node's leaf/internal status matches the predicate evaluated
        # directly on the label grid
        grid = checker16.labels
        root = build_octree(checker16, 3)
        for node in iter_nodes(root):
            (x0, x1), (y0, y1), (z0, z1) = node.bounds
            distinct = {int(v) for v in np.unique(grid[x0:x1, y0:y1, z0:z1])} - {0}
            assert node.distinct_labels == distinct
            should = (
                len(distinct) >= 2
                and node.level < 3
                and all(hi - lo >= 2 for lo, hi in node.bounds)
            )
            assert (not node.is_leaf) == should

    def test_all_background_warns_and_returns_leaf(self):
        # the leaf root is all: `stage_slice` reports the volume, once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = build_octree(label_volume(np.zeros((8, 8, 8))), 2)
        assert root.is_leaf
        assert root.distinct_labels == frozenset()

    def test_depth_bounded_and_children_exact(self, checker16):
        for level in (1, 2, 3, 4):
            root = build_octree(checker16, level)
            for node in iter_nodes(root):
                assert node.level <= level
                assert len(node.children) in (0, 8)
                if node.is_leaf and len(node.distinct_labels) >= 2:
                    assert node.level == level or any(
                        hi - lo < 2 for lo, hi in node.bounds
                    )

    def test_children_partition_bounds(self, checker16):
        root = build_octree(checker16, 3)
        for node in iter_nodes(root):
            if node.is_leaf:
                continue
            volume = sum(
                np.prod([hi - lo for lo, hi in c.bounds]) for c in node.children
            )
            assert volume == np.prod([hi - lo for lo, hi in node.bounds])


class TestExtractSlices:
    def test_root_only_two_center_slices(self):
        root = build_octree(label_volume(np.ones((16, 16, 16))), 3)
        raw = extract_slices(root)
        assert len(raw) == 2
        assert {s.orientation for s in raw} == {"x", "y"}
        assert all(s.plane_coord == 8 for s in raw)
        assert all(s.extent == (0, 0, 16, 16) for s in raw)

    def test_fully_subdivided_l2_raw_count(self, checker16):
        root = build_octree(checker16, 2)
        raw = extract_slices(root)
        # 2 root slices + 8 children x 2 orientations
        assert len(raw) == 18
        per_x = sorted({s.plane_coord for s in raw if s.orientation == "x"})
        assert per_x == [4, 8, 12]

    def test_one_voxel_axis_emits_no_slice(self):
        root = build_octree(label_volume(np.ones((1, 8, 8))), 2)
        raw = extract_slices(root)
        # the x-center plane coincides with the node's bounding plane
        assert {s.orientation for s in raw} == {"y"}

    def test_alternate_orientation_pair(self):
        root = build_octree(label_volume(np.ones((8, 8, 8))), 1)
        raw = extract_slices(root, orientations=("y", "z"))
        assert {s.orientation for s in raw} == {"y", "z"}


class TestUnifySlices:
    def test_l2_yields_six(self, checker64):
        root = build_octree(checker64, 2)
        assert len(unify_slices(extract_slices(root))) == 6

    def test_l3_yields_fourteen(self, checker64):
        root = build_octree(checker64, 3)
        assert len(unify_slices(extract_slices(root))) == 14

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_full_tree_count_formula(self, level, checker16):
        root = build_octree(checker16, level)
        assert len(unify_slices(extract_slices(root))) == 2 * (2**level - 1)

    def test_edge_sharing_rectangles_merge(self):
        raw = [
            Slice(0, "x", 4, (0, 0, 2, 4), (1,)),
            Slice(1, "x", 4, (2, 0, 4, 2), (2,)),
        ]
        unified = unify_slices(raw)
        assert len(unified) == 1
        assert unified[0].extent == (0, 0, 4, 4)
        assert unified[0].source_nodes == (1, 2)

    def test_corner_touch_stays_separate(self):
        raw = [
            Slice(0, "x", 4, (0, 0, 2, 2), (1,)),
            Slice(1, "x", 4, (2, 2, 4, 4), (2,)),
        ]
        assert len(unify_slices(raw)) == 2

    def test_different_planes_not_merged(self):
        raw = [
            Slice(0, "x", 4, (0, 0, 2, 2), (1,)),
            Slice(1, "x", 6, (0, 0, 2, 2), (2,)),
        ]
        assert len(unify_slices(raw)) == 2

    def test_counts_match_brute_force_oracle(self, checker64):
        for level in (2, 3):
            root = build_octree(checker64, level)
            count = len(unify_slices(extract_slices(root)))
            assert count == oracle_slice_count(checker64.labels, level)

    def test_oracle_on_asymmetric_volume(self):
        # multi-label content only in the low-x half
        arr = np.ones((32, 32, 32), np.uint16)
        x, y, z = np.meshgrid(*(np.arange(32),) * 3, indexing="ij")
        arr[(x < 16)] = 1 + ((x + y + z) % 3 == 0)[x < 16]
        labels = label_volume(arr)
        for level in (2, 3):
            root = build_octree(labels, level)
            count = len(unify_slices(extract_slices(root)))
            assert count == oracle_slice_count(labels.labels, level)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12), st.integers(0, 12), st.integers(1, 6), st.integers(1, 6)
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_unify_idempotent_and_disjoint(self, rects):
        raw = [
            Slice(i, "x", 4, (u, v, u + w, v + h), (i,))
            for i, (u, v, w, h) in enumerate(rects)
        ]
        once = unify_slices(raw)
        twice = unify_slices(once)
        assert [s.extent for s in once] == [s.extent for s in twice]
        # pairwise disjoint and non-adjacent
        for i, a in enumerate(once):
            for b in once[i + 1 :]:
                du = min(a.extent[2], b.extent[2]) - max(a.extent[0], b.extent[0])
                dv = min(a.extent[3], b.extent[3]) - max(a.extent[1], b.extent[1])
                assert not ((du > 0 and dv >= 0) or (du >= 0 and dv > 0))

    def test_ids_sequential_and_sorted(self, checker16):
        root = build_octree(checker16, 3)
        unified = unify_slices(extract_slices(root))
        assert [s.id for s in unified] == list(range(len(unified)))
        keys = [(s.orientation, s.plane_coord, s.extent) for s in unified]
        assert keys == sorted(keys)
