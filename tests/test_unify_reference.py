"""The one-pass `unify_slices` and `hinges_by_slice` against the code they
replaced (`helpers.unify_slices_reference`, which reruns a full merge pass
until nothing changes, and `helpers.hinges_on_slice_reference`, which scans
every hinge once per slice): the same slices, and the same hinges per slice
in the same order."""

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sliceforge.hinges import compute_hinges, hinges_by_slice
from sliceforge.octree import Slice, build_octree, extract_slices, unify_slices

from helpers import hinges_on_slice_reference, stopper_model, unify_slices_reference

# (u0, v0, u1, v1) rectangles on one plane, and the extents they unify into
CONFIGURATIONS = {
    "overlap": ([(0, 0, 3, 3), (1, 1, 4, 4)], [(0, 0, 4, 4)]),
    "shared edge": ([(0, 0, 2, 2), (2, 0, 4, 2)], [(0, 0, 4, 2)]),
    "partly shared edge": ([(0, 0, 2, 2), (2, 1, 4, 3)], [(0, 0, 4, 3)]),
    "corner only": ([(0, 0, 2, 2), (2, 2, 4, 4)], [(0, 0, 2, 2), (2, 2, 4, 4)]),
    "contained": ([(0, 0, 4, 4), (1, 1, 2, 2)], [(0, 0, 4, 4)]),
    # the third meets neither of the first two, only their bounding box
    "grown box meets a third": ([(0, 0, 2, 2), (2, 1, 4, 3), (0, 3, 1, 5)], [(0, 0, 4, 5)]),
    # each bounding box reaches one more rectangle
    "grown box chain": (
        [(0, 0, 2, 2), (2, 1, 4, 3), (0, 3, 1, 5), (4, 4, 6, 6), (1, 6, 2, 7)],
        [(0, 0, 6, 7)],
    ),
    "apart": ([(0, 0, 1, 1), (3, 0, 4, 1), (0, 3, 1, 4)], [(0, 0, 1, 1), (0, 3, 1, 4), (3, 0, 4, 1)]),
}


def raw_slices(rects, orientation="x", plane=0) -> list[Slice]:
    return [Slice(-1, orientation, plane, rect, (node,)) for node, rect in enumerate(rects)]


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_every_input_order_of_a_configuration(name):
    rects, extents = CONFIGURATIONS[name]
    for order in itertools.permutations(range(len(rects))):
        raw = raw_slices([rects[i] for i in order])
        unified = unify_slices(raw)
        assert unified == unify_slices_reference(raw)
        assert [s.extent for s in unified] == extents
        assert sorted(n for s in unified for n in s.source_nodes) == list(range(len(rects)))


def _contact(a, b) -> str:
    du = min(a[2], b[2]) - max(a[0], b[0])
    dv = min(a[3], b[3]) - max(a[1], b[1])
    if du > 0 and dv > 0:
        return "overlap"
    if du >= 0 and dv >= 0:
        return "corner" if du == dv == 0 else "edge"
    return "apart"


@st.composite
def raw_slice_sets(draw) -> list[Slice]:
    """Several (orientation, plane) groups of small rectangles of positive
    area on a 10 x 10 grid, so that they often overlap, share an edge or
    touch at a corner, in random order. Source nodes are sorted and distinct
    per slice, as `extract_slices` makes them, and may repeat across
    slices."""
    groups = draw(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)), min_size=1, max_size=4, unique=True))
    raw = []
    for orientation, plane in groups:
        rects = draw(st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 3), st.integers(1, 3)),
            min_size=1, max_size=14,
        ))
        for u0, v0, w, h in rects:
            nodes = draw(st.lists(st.integers(0, 60), min_size=1, max_size=3, unique=True))
            raw.append(Slice(-1, orientation, plane, (u0, v0, u0 + w, v0 + h), tuple(sorted(nodes))))
        for a, b in itertools.combinations([s.extent for s in raw[-len(rects):]], 2):
            event(_contact(a, b))
    return draw(st.permutations(raw))


@settings(max_examples=300, deadline=None)
@given(raw_slice_sets())
def test_matches_rescanning_fixpoint(raw):
    unified = unify_slices(raw)
    assert unified == unify_slices_reference(raw)
    if len(unified) < _direct_components(raw):
        event("a grown box joins what no two rectangles join")


def _direct_components(raw: list[Slice]) -> int:
    """Connected components of coplanar rectangles that meet directly."""
    parent = list(range(len(raw)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(raw)), 2):
        a, b = raw[i], raw[j]
        if (a.orientation, a.plane_coord) == (b.orientation, b.plane_coord) and _contact(a.extent, b.extent) in (
            "overlap", "edge"
        ):
            parent[root(i)] = root(j)
    return len({root(i) for i in range(len(raw))})


def test_octree_slices_match_reference(spheres64):
    _volume, _tf, labels = spheres64
    for level, orientations in ((3, ("x", "y")), (4, ("y", "z"))):
        raw = extract_slices(build_octree(labels, level), orientations)
        unified = unify_slices(raw)
        assert unified == unify_slices_reference(raw)
        assert unify_slices(unified) == unified  # idempotent


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("orientations", [("x", "y"), ("z", "x")])
def test_hinges_by_slice_matches_reference_on_checkerboard(checker64, level, orientations):
    slices = unify_slices(extract_slices(build_octree(checker64, level), orientations))
    hinges = compute_hinges(slices, orientations)
    by_slice = hinges_by_slice(hinges)
    assert hinges
    for s in slices:
        assert by_slice.get(s.id, []) == hinges_on_slice_reference(hinges, s.id)
    assert set(by_slice) <= {s.id for s in slices}


def test_hinges_by_slice_matches_reference_on_stopper_model():
    slices = stopper_model()
    hinges = compute_hinges(slices)
    by_slice = hinges_by_slice(hinges)
    for s in slices:
        assert by_slice[s.id] == hinges_on_slice_reference(hinges, s.id)
