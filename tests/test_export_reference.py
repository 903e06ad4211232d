"""Cut geometry in integers over one power of two against the `Fraction`
code it replaced (`helpers.slice_cut_geometry_reference`): every field is
the same float and prints the same, on random slices and hinges and on
every slice of the 64³ checkerboard and the 32³ spheres. Plus the seed-7
tie that plain float arithmetic prints differently, and the mating of the
slots of each hinge on the same fixtures.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import pipeline
from sliceforge.export import _Frame, _fmt, _path, _rect_path, emit_pages, slice_cut_geometry
from sliceforge.hinges import Hinge, HingeKind, SlotKind, hinges_by_slice
from sliceforge.layout import PageLayout, Placement
from sliceforge.mesh import voxelize_meshes
from sliceforge.octree import Slice, slice_axes
from sliceforge.ordering import AssemblyPlan
from sliceforge.synth import nested_spheres
from sliceforge.volume import quantize

from helpers import slice_cut_geometry_reference

PAIRS = [(a, b) for a in "xyz" for b in "xyz" if a != b]
# decimals that are not short in binary, powers of two, the seed-7 spacing
SPECIAL = (0.1, 1 / 3, 0.25, 0.5, 0.77, 1.0, 2.5, 100 / 48)
# every positive finite float, subnormals and the largest ones included
lengths = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
# a `--config` slot width may be an integer, also one a float cannot hold
slot_widths = st.one_of(lengths, st.integers(1, 8), st.integers(2**53 + 1, 2**64))
FIXTURE_PAIRS = [("x", "y"), ("z", "x")]
# (labels fixture, octree level): at level 3 both fixtures make up-down
# hinges only; the spheres at level 4 add windows and stopper tabs
FIXTURES = [("checker64", 3), ("spheres32", 3), ("spheres32", 4)]
FIXTURE_SCALES = (0.1, 1 / 3, float.fromhex("0x1.eb33333333332p-2"))


def numbers(geom) -> list:
    return [
        geom.width,
        geom.height,
        *(c for point in geom.outline for c in point),
        *(c for cut in geom.slots for c in (cut.x0, cut.y0, cut.x1, cut.y1)),
    ]


def shape(geom) -> tuple:
    return len(geom.outline), [(cut.hinge_id, cut.kind) for cut in geom.slots]


def assert_matches_reference(s, slice_hinges, spacing, scale, slot_width, orientations):
    args = (s, slice_hinges, spacing, scale, slot_width, orientations)
    ref = slice_cut_geometry_reference(*args)
    try:
        expected = [float(v) for v in numbers(ref)]
    except OverflowError:  # an exact coordinate beyond the largest float
        with pytest.raises(OverflowError):
            slice_cut_geometry(*args)
        return
    got = slice_cut_geometry(*args)
    assert shape(got) == shape(ref)
    assert all(type(v) is float for v in numbers(got))
    assert numbers(got) == expected
    assert [_fmt(v) for v in numbers(got)] == [_fmt(v) for v in numbers(ref)]


@st.composite
def scenes(draw):
    """One slice and up to eight hinges on it of every slot kind. Hinge ends
    often sit on the slice's own ends: stoppers on the left and the right,
    windows flush with the bottom or the top."""
    orientations = draw(st.sampled_from(PAIRS))
    u0, v0 = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    u1, v1 = u0 + draw(st.integers(1, 40)), v0 + draw(st.integers(1, 40))
    s = Slice(
        id=0,
        orientation=draw(st.sampled_from(orientations)),
        plane_coord=draw(st.integers(0, 80)),
        extent=(u0, v0, u1, v1),
        source_nodes=(0,),
    )
    slice_hinges = []
    for i in range(draw(st.integers(0, 8))):
        slot = draw(st.sampled_from(list(SlotKind)))
        u = draw(st.one_of(st.sampled_from((u0, u1)), st.integers(u0, u1)))
        a = draw(st.one_of(st.just(v0), st.integers(v0, v1 - 1)))
        b = draw(st.one_of(st.just(v1), st.integers(a + 1, v1)))
        other, on_a = i + 1, draw(st.booleans())
        slice_hinges.append(Hinge(
            id=i,
            slice_a=0 if on_a else other,
            slice_b=other if on_a else 0,
            u_a=u,
            u_b=u,
            v0=a,
            v1=b,
            kind=HingeKind.UP_DOWN if slot in (SlotKind.TOP, SlotKind.BOTTOM) else HingeKind.CUT_THROUGH,
            slot_a=slot,
            slot_b=slot,
            stopper_on=draw(st.sampled_from((None, 0, other))) if slot == SlotKind.NONE else None,
        ))
    return s, slice_hinges, orientations


@settings(max_examples=400, deadline=None)
@given(scenes(), st.tuples(lengths, lengths, lengths), lengths, slot_widths)
def test_random_slices_match_reference(scene, spacing, scale, slot_width):
    s, slice_hinges, orientations = scene
    assert_matches_reference(s, slice_hinges, spacing, scale, slot_width, orientations)


def test_integer_slot_width_stays_exact():
    # (2^53 + 1) / 2 is not a float; rounding the width to a float first
    # would move the slot's left edge by half a millimetre
    slot_width = 2**53 + 1
    s = Slice(id=0, orientation="x", plane_coord=4, extent=(0, 0, 8, 8), source_nodes=(0,))
    h = Hinge(0, 0, 1, 1, 1, 0, 8, HingeKind.UP_DOWN, SlotKind.TOP, SlotKind.BOTTOM)
    cut = slice_cut_geometry(s, [h], (1.0, 1.0, 1.0), 1.0, slot_width).slots[0]
    assert cut.x0 == float(1 - Fraction(slot_width, 2)) == -4503599627370495.5
    assert 1 - float(slot_width) / 2 == -4503599627370495.0
    assert_matches_reference(s, [h], (1.0, 1.0, 1.0), 1.0, slot_width, ("x", "y"))


def test_numpy_scalars_match_reference():
    s = Slice(id=0, orientation="y", plane_coord=4, extent=(1, 2, 9, 7), source_nodes=(0,))
    h = Hinge(0, 1, 0, 5, 5, 2, 7, HingeKind.UP_DOWN, SlotKind.TOP, SlotKind.BOTTOM)
    spacing = (np.int64(1), np.float32(0.1), np.float64(2.5))
    assert_matches_reference(s, [h], spacing, np.float64(1 / 3), np.int64(2), ("x", "y"))


def test_touching_stopper_tabs_merge():
    # two stopper tabs whose slot-width margins just meet make one tab
    s = Slice(id=0, orientation="x", plane_coord=4, extent=(0, 0, 8, 8), source_nodes=(0,))
    tabs = [Hinge(i, 0, i + 1, 0, 0, v0, v0 + 1, HingeKind.CUT_THROUGH, SlotKind.NONE, SlotKind.WINDOW, stopper_on=0)
            for i, v0 in enumerate((1, 3))]
    geom = slice_cut_geometry(s, tabs, (1.0, 1.0, 1.0), 1.0, 0.5)
    assert geom.outline == ((0, 0), (8, 0), (8, 8), (0, 8), (0, 4.5), (-0.5, 4.5), (-0.5, 0.5), (0, 0.5))
    assert_matches_reference(s, tabs, (1.0, 1.0, 1.0), 1.0, 0.5, ("x", "y"))


@pytest.fixture(scope="module")
def spheres32():
    volume, tf = voxelize_meshes(nested_spheres(subdivisions=2), (32, 32, 32))
    return quantize(volume, tf)


@pytest.fixture(params=FIXTURES, ids=lambda case: f"{case[0]}-L{case[1]}")
def fixture_case(request):
    name, level = request.param
    return request.getfixturevalue(name), level


def sliced(case, orientations):
    labels, level = case
    slices = pipeline.stage_slice(labels, level, orientations)
    return labels.spacing, slices, pipeline.stage_hinges(slices, orientations)


@pytest.mark.parametrize("orientations", FIXTURE_PAIRS)
def test_fixture_slices_match_reference(fixture_case, orientations):
    spacing, slices, hinges = sliced(fixture_case, orientations)
    by_slice = hinges_by_slice(hinges)
    for scale in FIXTURE_SCALES:
        for slot_width in (1.0, 2.5):
            for s in slices:
                assert_matches_reference(
                    s, by_slice.get(s.id, []), spacing, scale, slot_width, orientations
                )


def test_seed7_tie_prints_the_correctly_rounded_width():
    """The seed-7 `mesh-spheres` meshes built with `--resolution 48 --level 3
    --slot-width 2.5 --page A4 --sheets 1` place a 48-voxel slice at
    x = 5 mm. Its exact width 48 · spacing · scale rounds to 47.96875, so
    its right edge is at 52.96875 mm: a tie at four decimals, which prints
    as 52.9688. The same product in float arithmetic lands one ulp lower
    and prints 52.9687."""
    spacing = (100 / 48,) * 3
    scale = float.fromhex("0x1.eb33333333332p-2")  # 0.47968749999999993
    s = Slice(id=3, orientation="x", plane_coord=24, extent=(0, 0, 48, 48), source_nodes=(0,))
    geom = slice_cut_geometry(s, [], spacing, scale, 2.5)
    assert geom.width == float(48 * Fraction(spacing[1]) * Fraction(scale)) == 47.96875

    naive = 48 * spacing[1] * scale
    assert naive == 47.96874999999999
    assert _fmt(5.0 + naive) == "52.9687"

    # the packer sizes the placement in floats, as the build does
    placement = Placement(slice_id=3, page=0, x=5.0, y=5.0, rotated=False, w=naive, h=naive)
    layout = PageLayout(
        page_size=(210.0, 297.0), margin=5.0, gutter=4.0, sheets=1, scale=scale,
        partitions=(), placements=(placement,), cluster_of={3: 0},
    )
    plan = AssemblyPlan(hinge_order=(), slice_order=(3,), objective=0.0, exact=True)
    (page,), _ = emit_pages(layout, {}, {3: geom}, plan)
    assert "M 5 52.9687 L 52.9688 52.9687 L 52.9688 5 L 5 5 Z" in page


@pytest.mark.parametrize("scale", FIXTURE_SCALES)
@pytest.mark.parametrize("orientations", FIXTURE_PAIRS)
def test_slots_mate(fixture_case, orientations, scale):
    """The two slots of an up-down hinge meet at the same height and are
    one slot width wide up to the rounding of their edges; every window
    clears the slice that passes through it."""
    slot_width = 2.5
    spacing, slices, hinges = sliced(fixture_case, orientations)
    by_id = {s.id: s for s in slices}
    by_slice = hinges_by_slice(hinges)
    geoms = {s.id: slice_cut_geometry(s, by_slice.get(s.id, []), spacing, scale, slot_width, orientations)
             for s in slices}
    cut = {(sid, c.hinge_id): c for sid, g in geoms.items() for c in g.slots}
    exact_sw = Fraction(slot_width) * Fraction(scale)

    def width_error(c) -> Fraction:
        return abs(Fraction(c.x1) - Fraction(c.x0) - exact_sw) * 2 / Fraction(math.ulp(c.x0) + math.ulp(c.x1))

    up_down = [h for h in hinges if h.kind == HingeKind.UP_DOWN]
    windows = [h for h in hinges if SlotKind.WINDOW in (h.slot_a, h.slot_b)]
    assert up_down and (windows or fixture_case[1] == 3)
    for h in up_down:
        # up-down slices share their v extent, so their local frames share y
        assert by_id[h.slice_a].v_range == by_id[h.slice_b].v_range
        top, bottom = cut[h.slice_a, h.id], cut[h.slice_b, h.id]
        assert (top.kind, bottom.kind) == (SlotKind.TOP, SlotKind.BOTTOM)
        assert top.y0 == bottom.y1
        assert (top.y1, bottom.y0) == (geoms[h.slice_a].height, 0.0)
        assert width_error(top) <= 1 and width_error(bottom) <= 1
    for h in windows:
        host, passing = (h.slice_a, h.slice_b) if h.slot_a == SlotKind.WINDOW else (h.slice_b, h.slice_a)
        window = cut[host, h.id]
        assert (passing, h.id) not in cut
        hv0, hv1 = by_id[host].v_range
        pv0, pv1 = by_id[passing].v_range
        v_ax = slice_axes(by_id[host].orientation, orientations)[2]
        mm = Fraction(spacing[v_ax]) * Fraction(scale)
        # rounding is monotone, so the exact inequalities hold on the floats
        assert window.y0 <= float((max(pv0, hv0) - hv0) * mm)
        assert window.y1 >= float((min(pv1, hv1) - hv0) * mm)
        assert width_error(window) <= 1


# page and local coordinates: ordinary ones, zeros of both signs, and small
# negatives that print as "-0.0000" before `_fmt` turns them into "0"
coordinates = st.one_of(
    st.sampled_from((0.0, -0.0, -1e-5, -4.9e-5, 5e-5, -5e-5, 1 / 3, 210.0)),
    st.floats(-1e4, 1e4),
)


@settings(max_examples=400, deadline=None)
@given(st.builds(Placement, slice_id=st.just(0), page=st.just(0), x=coordinates, y=coordinates,
                 rotated=st.booleans(), w=coordinates, h=coordinates),
       st.tuples(coordinates, coordinates, coordinates, coordinates), st.booleans())
def test_rect_path_equals_its_four_mapped_corners(placement, rect, dash):
    frame = _Frame(placement)
    x0, y0, x1, y1 = rect
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    assert _rect_path(frame, x0, y0, x1, y1, dash) == _path([frame.to_page(a, b) for a, b in corners], dash)


@pytest.mark.parametrize("rotated", [False, True])
def test_rect_path_of_a_corner_that_prints_as_minus_zero(rotated):
    frame = _Frame(Placement(slice_id=0, page=0, x=0.0, y=-1e-5, rotated=rotated, w=10.0, h=1e-5))
    path = _rect_path(frame, -1e-5, 0.0, 2.0, 1e-5, False)
    assert "-0" not in path
    assert path == _path([frame.to_page(a, b) for a, b in [(-1e-5, 0.0), (2.0, 0.0), (2.0, 1e-5), (-1e-5, 1e-5)]],
                         False)
