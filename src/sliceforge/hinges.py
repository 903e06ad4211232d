"""Pairwise slice intersections (hinges), slot classification, the hinges
of each slice in position order, and the precedence structure the
assembly-order optimizer consumes.

Every hinge is the vertical segment where two perpendicular slices cross.
Up-down hinges split the segment into a top slot on the first plane family
and a bottom slot on the second; cut-throughs put a full window on the
taller slice and nothing on the shorter one, plus a stopper tab when the
contact line sits on the shorter slice's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import decode
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


@dataclass(frozen=True)
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


def _classify(za: tuple[int, int], zb: tuple[int, int]) -> tuple[HingeKind, bool]:
    """Returns (kind, window_on_a). Intervals are the slices' v extents."""
    if za == zb:
        return HingeKind.UP_DOWN, False
    # containment (possibly sharing one end) or, defensively, any partial
    # overlap: the taller slice carries the window
    len_a, len_b = za[1] - za[0], zb[1] - zb[0]
    if len_a == len_b:
        return HingeKind.CUT_THROUGH, True  # staggered equal heights: pick a
    return HingeKind.CUT_THROUGH, len_a > len_b


def compute_hinges(slices: list[Slice], orientations: tuple[str, str] = ("x", "y")) -> list[Hinge]:
    """One hinge per perpendicular slice pair whose rectangles cross."""
    family_a = [s for s in slices if s.orientation == orientations[0]]
    family_b = [s for s in slices if s.orientation == orientations[1]]
    found = []
    for a in family_a:
        for b in family_b:
            # the crossing line sits at (a.plane, b.plane); u on a slice runs
            # along the other family's normal
            u_on_a, u_on_b = b.plane_coord, a.plane_coord
            if not (a.u_range[0] <= u_on_a <= a.u_range[1]):
                continue
            if not (b.u_range[0] <= u_on_b <= b.u_range[1]):
                continue
            v0 = max(a.v_range[0], b.v_range[0])
            v1 = min(a.v_range[1], b.v_range[1])
            if v1 - v0 <= 0:
                continue  # corner touch or disjoint heights
            kind, window_on_a = _classify(a.v_range, b.v_range)
            stopper = None
            if kind == HingeKind.UP_DOWN:
                slot_a, slot_b = SlotKind.TOP, SlotKind.BOTTOM
            else:
                slot_a = SlotKind.WINDOW if window_on_a else SlotKind.NONE
                slot_b = SlotKind.NONE if window_on_a else SlotKind.WINDOW
                small = b if window_on_a else a
                small_u = u_on_b if window_on_a else u_on_a
                if small_u == small.u_range[0] or small_u == small.u_range[1]:
                    stopper = small.id  # none slot on the boundary: needs a tab
            found.append((a.id, b.id, u_on_a, u_on_b, v0, v1, kind, slot_a, slot_b, stopper))
    # each crossing holds the fields of a Hinge after its id; ids follow
    # (u_b, u_a, v0, v1), and a stable sort keeps equal keys in loop order
    found.sort(key=lambda f: (f[3], f[2], f[4], f[5]))
    return [Hinge(i, *f) for i, f in enumerate(found)]


def find_backbone(hinges: list[Hinge], slices: list[Slice]) -> int:
    """The hinge joining two slices of the root node (id 0); stitched first
    for stability."""
    if not hinges:
        raise InfeasibleError("no hinges: the model cannot be stabilized")
    by_id = {s.id: s for s in slices}
    candidates = [
        h
        for h in hinges
        if 0 in by_id[h.slice_a].source_nodes and 0 in by_id[h.slice_b].source_nodes
    ]
    if not candidates:
        raise InfeasibleError(
            "no hinge joins the two root slices: the model cannot be stabilized"
        )
    return min(
        candidates,
        key=lambda h: (-h.length, -(by_id[h.slice_a].area + by_id[h.slice_b].area), h.id),
    ).id


def hinges_by_slice(hinges: list[Hinge]) -> dict[int, list[Hinge]]:
    """The hinges touching each slice, sorted by in-plane position; a slice
    that no hinge touches has no entry."""
    by_slice: dict[int, list[Hinge]] = {}
    for h in hinges:
        for sid in {h.slice_a, h.slice_b}:
            by_slice.setdefault(sid, []).append(h)
    for sid, mine in by_slice.items():
        mine.sort(key=lambda h: (h.u_on(sid), h.v0, h.id))
    return by_slice


def collect_triples(hinges: list[Hinge], slices: list[Slice]) -> list[PrecedenceTriple]:
    """For each none-slot between up-down hinges, record the ordering triple."""
    by_slice = hinges_by_slice(hinges)
    triples: list[PrecedenceTriple] = []
    for s in slices:
        mine = by_slice.get(s.id, [])
        for m, h in enumerate(mine):
            if h.slot_on(s.id) != SlotKind.NONE:
                continue
            left = next(
                (g for g in reversed(mine[:m]) if g.kind == HingeKind.UP_DOWN), None
            )
            right = next((g for g in mine[m + 1 :] if g.kind == HingeKind.UP_DOWN), None)
            if left is not None and right is not None:
                triples.append(
                    PrecedenceTriple(i=left.id, j=h.id, k=right.id, host_slice=s.id)
                )
    return triples


def hinges_from_json(items: list[dict], path: str) -> list[Hinge]:
    """The hinges of the artifact read from `path`."""
    return decode(list[Hinge], items, f"hinges {path}")
