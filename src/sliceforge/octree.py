"""Visibility-driven octree partitioning and slice extraction.

A node subdivides while it still contains two or more distinct visible
structures, the level budget allows, and every axis is at least two voxels
wide. Every node reached by the recursion emits one center slice per
configured plane family; coplanar touching slices are then unified into
minimal bounding rectangles.
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

    def extent(self, axis: int) -> int:
        lo, hi = self.bounds[axis]
        return hi - lo


def _should_subdivide(distinct: frozenset[int], level: int, bounds: Bounds, max_level: int) -> bool:
    if len(distinct) < 2 or level >= max_level:
        return False
    return all(hi - lo >= 2 for lo, hi in bounds)


def build_octree(labels: LabelVolume, max_level: int) -> OctreeNode:
    """Recursive octant subdivision driven by distinct visible labels."""
    if max_level < 1:
        raise ValidationError(f"octree level must be >= 1, got {max_level}")
    grid = labels.labels
    counter = [0]

    def distinct_in(bounds: Bounds) -> frozenset[int]:
        (x0, x1), (y0, y1), (z0, z1) = bounds
        vals = np.unique(grid[x0:x1, y0:y1, z0:z1])
        return frozenset(int(v) for v in vals if v != 0)

    def build(bounds: Bounds, level: int) -> OctreeNode:
        node_id = counter[0]
        counter[0] += 1
        distinct = distinct_in(bounds)
        children: tuple[OctreeNode, ...] = ()
        if _should_subdivide(distinct, level, bounds, max_level):
            mids = tuple((lo + hi) // 2 for lo, hi in bounds)
            kids = []
            for ix in range(2):
                for iy in range(2):
                    for iz in range(2):
                        halves = []
                        for axis, pick in enumerate((ix, iy, iz)):
                            lo, hi = bounds[axis]
                            halves.append((lo, mids[axis]) if pick == 0 else (mids[axis], hi))
                        kids.append(build(tuple(halves), level + 1))
            children = tuple(kids)
        return OctreeNode(id=node_id, bounds=bounds, level=level, distinct_labels=distinct, children=children)

    root_bounds = tuple((0, int(d)) for d in labels.dims)
    root = build(root_bounds, 1)
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
    """Fixpoint union of touching rectangles into bounding rectangles."""
    changed = True
    while changed:
        changed = False
        merged: list[tuple[tuple[int, int, int, int], tuple[int, ...]]] = []
        for rect, nodes in rects:
            hit = None
            for i, (mrect, _) in enumerate(merged):
                if _rects_meet(rect, mrect):
                    hit = i
                    break
            if hit is None:
                merged.append((rect, nodes))
            else:
                mrect, mnodes = merged[hit]
                merged[hit] = (
                    (
                        min(rect[0], mrect[0]),
                        min(rect[1], mrect[1]),
                        max(rect[2], mrect[2]),
                        max(rect[3], mrect[3]),
                    ),
                    tuple(sorted(set(nodes) | set(mnodes))),
                )
                changed = True
        rects = merged
    return rects


def unify_slices(raw: list[Slice]) -> list[Slice]:
    """Coalesce coplanar touching slices into their bounding rectangles.

    Idempotent; after unification slices sharing (orientation, plane) are
    pairwise disjoint and non-adjacent.
    """
    groups: dict[tuple[str, int], list] = {}
    for s in raw:
        groups.setdefault((s.orientation, s.plane_coord), []).append((s.extent, s.source_nodes))

    unified: list[Slice] = []
    for (orientation, plane), rects in sorted(groups.items()):
        for extent, nodes in _merge_group(rects):
            unified.append(
                Slice(
                    id=-1,
                    orientation=orientation,
                    plane_coord=plane,
                    extent=extent,
                    source_nodes=nodes,
                )
            )
    unified.sort(key=lambda s: (s.orientation, s.plane_coord, s.extent))
    return [
        Slice(
            id=i,
            orientation=s.orientation,
            plane_coord=s.plane_coord,
            extent=s.extent,
            source_nodes=s.source_nodes,
        )
        for i, s in enumerate(unified)
    ]


def slices_from_json(items: list[dict]) -> list[Slice]:
    return decode(list[Slice], items, "slices")
