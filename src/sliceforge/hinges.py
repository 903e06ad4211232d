"""Slice intersections (hinges), found through an index of the second
plane family by plane, slot classification, the hinges of each slice in
position order, and the precedence structure the assembly-order optimizer
consumes. The module uses no numpy: the stage works on small lists of
records. The hinges are a function of the slices, so a hinges artifact is
read by deriving them again and requiring it to hold exactly those.

Every hinge is the vertical segment where two perpendicular slices cross.
Up-down hinges split the segment into a top slot on the first plane family
and a bottom slot on the second; cut-throughs put a full window on the
taller slice and nothing on the shorter one, plus a stopper tab when the
contact line sits on the shorter slice's boundary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

from .codec import require_encoding
from .errors import InfeasibleError, ValidationError
from .octree import Slice


class HingeKind(str, Enum):
    UP_DOWN = "up_down"
    CUT_THROUGH = "cut_through"


class SlotKind(str, Enum):
    TOP = "top"
    BOTTOM = "bottom"
    WINDOW = "window"
    NONE = "none"


@dataclass
class Hinge:
    """Crossing of slice_a (first plane family) and slice_b (second).

    u_a / u_b are the in-plane horizontal positions of the segment on each
    slice (voxel units); (v0, v1) is the segment's interval along the up
    axis. slot_a / slot_b say what gets cut on each slice.
    """

    id: int
    slice_a: int
    slice_b: int
    u_a: int
    u_b: int
    v0: int
    v1: int
    kind: HingeKind
    slot_a: SlotKind
    slot_b: SlotKind
    stopper_on: int | None = None

    def slot_on(self, slice_id: int) -> SlotKind:
        if slice_id == self.slice_a:
            return self.slot_a
        if slice_id == self.slice_b:
            return self.slot_b
        raise ValidationError(f"hinge {self.id} does not touch slice {slice_id}")

    def u_on(self, slice_id: int) -> int:
        if slice_id == self.slice_a:
            return self.u_a
        if slice_id == self.slice_b:
            return self.u_b
        raise ValidationError(f"hinge {self.id} does not touch slice {slice_id}")

    @property
    def length(self) -> int:
        return self.v1 - self.v0


@dataclass(frozen=True)
class PrecedenceTriple:
    """Cut-through j must be stitched before up-down neighbors i and k."""

    i: int
    j: int
    k: int
    host_slice: int


def compute_hinges(slices: list[Slice], orientations: tuple[str, str] = ("x", "y")) -> list[Hinge]:
    """One hinge per perpendicular slice pair whose rectangles cross.

    A crossing sits at (a's plane, b's plane), and u on each slice is the
    other's plane, so a slice a of the first family can only cross the run of
    the second, sorted by plane, whose planes lie in a's u-range. Hinge ids
    follow (u_b, u_a, v0, v1), then the positions of a and of b in `slices`."""
    family_a = [(s.plane_coord, *s.extent, s.id) for s in slices if s.orientation == orientations[0]]
    family_b = sorted((s.plane_coord, *s.extent, s.id, pos)
                      for pos, s in enumerate(s for s in slices if s.orientation == orientations[1]))
    planes_b = [b[0] for b in family_b]
    up_down = (HingeKind.UP_DOWN, SlotKind.TOP, SlotKind.BOTTOM, None)
    found = []
    for pos_a, (plane_a, ua0, va0, ua1, va1, id_a) in enumerate(family_a):
        for plane_b, ub0, vb0, ub1, vb1, id_b, pos_b in family_b[bisect_left(planes_b, ua0):bisect_right(planes_b, ua1)]:
            v0, v1 = (va0 if va0 > vb0 else vb0), (va1 if va1 < vb1 else vb1)
            if v1 <= v0 or not ub0 <= plane_a <= ub1:
                continue  # a corner touch, disjoint heights or no crossing
            if va0 == vb0 and va1 == vb1:
                rest = up_down
            # containment (possibly sharing one end) or, defensively, partial
            # overlap: the taller slice (a, of staggered equal heights) has the
            # window; a none slot on the other's boundary needs a stopper tab
            elif va1 - va0 >= vb1 - vb0:
                rest = (HingeKind.CUT_THROUGH, SlotKind.WINDOW, SlotKind.NONE, id_b if plane_a in (ub0, ub1) else None)
            else:
                rest = (HingeKind.CUT_THROUGH, SlotKind.NONE, SlotKind.WINDOW, id_a if plane_b in (ua0, ua1) else None)
            found.append((plane_a, plane_b, v0, v1, pos_a, pos_b, id_a, id_b, rest))
    found.sort()  # no two crossings share their first six fields
    return [Hinge(i, id_a, id_b, u_a, u_b, v0, v1, *rest)
            for i, (u_b, u_a, v0, v1, _, _, id_a, id_b, rest) in enumerate(found)]


def find_backbone(hinges: list[Hinge], slices: list[Slice]) -> int:
    """The hinge joining two slices of the root node (id 0); stitched first
    for stability."""
    if not hinges:
        raise InfeasibleError("no hinges: the model cannot be stabilized")
    by_id = {s.id: s for s in slices}
    root = {sid for sid, s in by_id.items() if 0 in s.source_nodes}
    candidates = [h for h in hinges if h.slice_a in root and h.slice_b in root]
    if not candidates:
        raise InfeasibleError("no hinge joins the two root slices: the model cannot be stabilized")
    return min(candidates, key=lambda h: (-h.length, -(by_id[h.slice_a].area + by_id[h.slice_b].area), h.id)).id


def hinges_by_slice(hinges: list[Hinge]) -> dict[int, list[Hinge]]:
    """The hinges touching each slice in (in-plane position, v0, id) order;
    a slice that no hinge touches has no entry. `hinges` must come in
    `compute_hinges` order, which on every slice already is that order."""
    by_slice: dict[int, list[Hinge]] = {}
    for h in hinges:
        for sid in (h.slice_a, h.slice_b):
            by_slice.setdefault(sid, []).append(h)
    return by_slice


def collect_triples(hinges: list[Hinge], slices: list[Slice]) -> list[PrecedenceTriple]:
    """For each none-slot between up-down hinges, record the ordering triple
    of the nearest up-down hinge on each side of it."""
    by_slice = hinges_by_slice(hinges)
    triples: list[PrecedenceTriple] = []
    for s in slices:
        mine = by_slice.get(s.id, [])
        left, right, rights = None, None, []  # rights: the nearest up-down hinge after each one, back to front
        for h in reversed(mine):
            rights.append(right)
            right = h if h.kind == HingeKind.UP_DOWN else right
        for h, right in zip(mine, reversed(rights)):
            if left is not None and right is not None and h.slot_on(s.id) == SlotKind.NONE:
                triples.append(PrecedenceTriple(i=left.id, j=h.id, k=right.id, host_slice=s.id))
            left = h if h.kind == HingeKind.UP_DOWN else left
    return triples


def hinges_from_json(items: list[dict], path: str, slices: list[Slice], orientations: tuple[str, str]) -> list[Hinge]:
    """The hinges of `slices`, which the hinges artifact read from `path`
    must hold as `items`: every hinge is where two slices cross, so any
    other list is no artifact that `hinge` wrote."""
    return require_encoding({"hinges": items}, {"hinges": compute_hinges(slices, orientations)}, f"hinges {path}",
                            "its slices", "rewrite it from its slices with `sliceforge hinge`")["hinges"]
