"""Visibility-driven octree partitioning and slice extraction.

A node subdivides while it still contains two or more distinct visible
structures, the level budget allows, and every axis is at least two voxels
wide. Every node reached by the recursion emits one center slice per
configured plane family; coplanar touching slices are then unified into
minimal bounding rectangles, in one pass over each plane's rectangles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codec import decode
from .errors import ValidationError
from .volume import LabelVolume

AXES = ("x", "y", "z")

Bounds = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def up_axis(orientations: tuple[str, str]) -> str:
    """The axis shared by both slicing plane families (the hinge direction)."""
    rest = [a for a in AXES if a not in orientations]
    if len(orientations) != 2 or orientations[0] == orientations[1] or len(rest) != 1:
        raise ValidationError(f"orientations must be two distinct axes, got {orientations}")
    return rest[0]


@dataclass(frozen=True, eq=False)
class OctreeNode:
    id: int
    bounds: Bounds  # inclusive lo, exclusive hi per axis, voxel units
    level: int
    distinct_labels: frozenset[int]
    children: tuple["OctreeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _should_subdivide(distinct: frozenset[int], level: int, bounds: Bounds, max_level: int) -> bool:
    if len(distinct) < 2 or level >= max_level:
        return False
    return all(hi - lo >= 2 for lo, hi in bounds)


def _halve(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Both halves of every interval, as a node splits; a one-voxel interval
    gives an empty first half."""
    return [half for lo, hi in intervals for half in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))]


def _block_masks(grid: np.ndarray, bits: np.ndarray, intervals) -> np.ndarray:
    """OR of the label bits over every block of the tensor grid `intervals`
    (one interval list per axis).

    An empty interval ``(lo, lo)`` is the first half of a one-voxel one, so
    it is never a node's; its block reads voxel ``lo``, which its sibling
    holds too, so the blocks of every coarser grid still come out right.
    """
    masks = bits[grid]
    # along the axis of smallest stride first: the fastest order on either layout
    for axis in sorted(range(masks.ndim), key=lambda a: masks.strides[a]):
        starts = np.array([lo for lo, _ in intervals[axis]])
        masks = np.bitwise_or.reduceat(masks, starts, axis=axis)
    return masks


def build_octree(labels: LabelVolume, max_level: int) -> OctreeNode:
    """Recursive octant subdivision driven by distinct visible labels.

    Every node at depth d spans one block of the tensor grid whose axes are
    halved d times, so the labels of all nodes come from one pass over the
    volume: label l sets bit l - 1 of a mask, the masks are OR-reduced per
    block of the deepest grid a node can reach, and each coarser grid ORs
    2 x 2 x 2 blocks of the one below.
    """
    if max_level < 1:
        raise ValidationError(f"octree level must be >= 1, got {max_level}")
    grid = labels.labels
    n_bits = labels.n_labels
    top = int(grid.max())
    if top > n_bits:
        raise ValidationError(f"label volume holds label {top} but has only {n_bits} labels")
    # intervals[d][axis]: the node intervals along an axis at depth d
    intervals = [[[(0, int(n))] for n in labels.dims]]
    while len(intervals) < max_level and all(
        max(hi - lo for lo, hi in ivs) >= 2 for ivs in intervals[-1]
    ):
        intervals.append([_halve(ivs) for ivs in intervals[-1]])

    # label l sets bit (l - 1) % word_bits of word (l - 1) // word_bits
    word_bits = next((b for b in (8, 16, 32) if n_bits <= b), 64)
    dtype = np.dtype(f"uint{word_bits}")
    # masks_by_depth[d]: per word, the OR of the label bits in every block at depth d
    masks_by_depth: list[list[np.ndarray]] = [[] for _ in intervals]
    for first in range(0, max(n_bits, 1), word_bits):
        held = np.arange(first, min(n_bits, first + word_bits))  # label - 1
        bits = np.zeros(n_bits + 1, dtype=dtype)
        bits[held + 1] = np.left_shift(dtype.type(1), (held - first).astype(dtype))
        masks = _block_masks(grid, bits, intervals[-1])
        for depth in reversed(range(len(intervals))):
            masks_by_depth[depth].append(masks)
            if depth:  # the blocks at depth - 1 are 2 x 2 x 2 blocks of these
                nx, ny, nz = (n // 2 for n in masks.shape)
                masks = np.bitwise_or.reduce(masks.reshape(nx, 2, ny, 2, nz, 2), axis=(1, 3, 5))

    label_sets: dict[tuple[int, ...], frozenset[int]] = {}

    def distinct_at(depth: int, index: tuple[int, int, int]) -> frozenset[int]:
        words = tuple(m.item(index) for m in masks_by_depth[depth])
        if words not in label_sets:
            label_sets[words] = frozenset(
                w * word_bits + b + 1
                for w, word in enumerate(words)
                for b in range(word_bits)
                if word >> b & 1
            )
        return label_sets[words]

    counter = [0]

    def build(depth: int, index: tuple[int, int, int]) -> OctreeNode:
        node_id = counter[0]
        counter[0] += 1
        bounds = tuple(intervals[depth][axis][i] for axis, i in enumerate(index))
        distinct = distinct_at(depth, index)
        children: tuple[OctreeNode, ...] = ()
        if _should_subdivide(distinct, depth + 1, bounds, max_level):
            children = tuple(
                build(depth + 1, (2 * index[0] + ix, 2 * index[1] + iy, 2 * index[2] + iz))
                for ix in range(2)
                for iy in range(2)
                for iz in range(2)
            )
        return OctreeNode(id=node_id, bounds=bounds, level=depth + 1, distinct_labels=distinct, children=children)

    root = build(0, (0, 0, 0))
    if not root.distinct_labels:
        warnings.warn("volume is entirely background: nothing to slice")
    return root


def iter_nodes(root: OctreeNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Slice:
    """Axis-aligned rectangular slice on an integer plane.

    ``orientation`` is the plane normal axis. The in-plane frame is
    (u, v) where u runs along the other plane family's normal and v along
    the shared up axis; ``extent`` is (u0, v0, u1, v1) in voxel units.
    """

    id: int
    orientation: str
    plane_coord: int
    extent: tuple[int, int, int, int]
    source_nodes: tuple[int, ...]

    @property
    def u_range(self) -> tuple[int, int]:
        return (self.extent[0], self.extent[2])

    @property
    def v_range(self) -> tuple[int, int]:
        return (self.extent[1], self.extent[3])

    @property
    def area(self) -> int:
        u0, v0, u1, v1 = self.extent
        return (u1 - u0) * (v1 - v0)


def slice_axes(orientation: str, orientations: tuple[str, str]) -> tuple[int, int, int]:
    """(normal, u, v) axis indices for a slice of the given family."""
    normal = AXES.index(orientation)
    other = orientations[1] if orientation == orientations[0] else orientations[0]
    return normal, AXES.index(other), AXES.index(up_axis(orientations))


def extract_slices(root: OctreeNode, orientations: tuple[str, str] = ("x", "y")) -> list[Slice]:
    """One center slice per node and plane family, bounding planes excluded."""
    up_axis(orientations)  # validates the pair
    raw: list[Slice] = []
    for node in iter_nodes(root):
        for orientation in orientations:
            normal, u_ax, v_ax = slice_axes(orientation, orientations)
            lo, hi = node.bounds[normal]
            plane = (lo + hi) // 2
            if plane == lo or plane == hi:
                continue  # center fell on the node's own bounding plane
            (u0, u1), (v0, v1) = node.bounds[u_ax], node.bounds[v_ax]
            raw.append(
                Slice(
                    id=-1,
                    orientation=orientation,
                    plane_coord=plane,
                    extent=(u0, v0, u1, v1),
                    source_nodes=(node.id,),
                )
            )
    return raw


def _rects_meet(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """True when rectangles overlap or share an edge of positive length."""
    du = min(a[2], b[2]) - max(a[0], b[0])
    dv = min(a[3], b[3]) - max(a[1], b[1])
    return (du > 0 and dv >= 0) or (du >= 0 and dv > 0)


def _merge_group(rects: list[tuple[tuple[int, int, int, int], tuple[int, ...]]]):
    """Least fixpoint of uniting touching rectangles into bounding rectangles.

    The kept rectangles never meet one another. Each incoming rectangle
    absorbs every kept one it meets and grows until it meets none. Meeting
    only grows with the rectangles, so every fixpoint joins what a merge
    joins, and the result does not depend on the input order.
    """
    kept: list[tuple[tuple[int, int, int, int], set[int]]] = []
    for rect, nodes in rects:
        nodes = set(nodes)
        while hits := [k for k in kept if _rects_meet(rect, k[0])]:
            kept = [k for k in kept if not _rects_meet(rect, k[0])]
            u0, v0, u1, v1 = zip(rect, *(other for other, _ in hits))
            rect = (min(u0), min(v0), max(u1), max(v1))
            for _, more in hits:
                # add the smaller set to the larger: one component can
                # absorb hundreds of rectangles one at a time
                if len(more) > len(nodes):
                    nodes, more = more, nodes
                nodes |= more
        kept.append((rect, nodes))
    return [(rect, tuple(sorted(nodes))) for rect, nodes in kept]


def unify_slices(raw: list[Slice]) -> list[Slice]:
    """Coalesce coplanar touching slices into their bounding rectangles.

    Idempotent; after unification slices sharing (orientation, plane) are
    pairwise disjoint and non-adjacent. They are numbered in (orientation,
    plane, extent) order, each with its source nodes sorted.
    """
    groups: dict[tuple[str, int], list] = {}
    for s in raw:
        groups.setdefault((s.orientation, s.plane_coord), []).append((s.extent, s.source_nodes))
    unified = sorted(
        (orientation, plane, extent, nodes)
        for (orientation, plane), rects in groups.items()
        for extent, nodes in _merge_group(rects)
    )
    return [Slice(i, *record) for i, record in enumerate(unified)]


def slices_from_json(items: list[dict]) -> list[Slice]:
    return decode(list[Slice], items, "slices")
