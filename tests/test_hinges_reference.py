"""`compute_hinges`, `collect_triples` and `find_backbone` against the code
they replaced (`helpers.compute_hinges_reference`, which tests every pair of
perpendicular slices, `helpers.collect_triples_reference`, which rescans the
hinges on both sides of each none slot, and `helpers.find_backbone_reference`,
which scans each hinge's slices for node 0): the same hinges with the same
ids, the same triples in the same order, the same backbone or the same error.

`golden/volume_deep_seed3_slices.json` is the slices artifact of the
benchmark's `volume-deep` input at seed 3: `sliceforge slice` at level 6 on
the files that `perfbench.workloads.prepare("volume-deep", 3, dest)` writes.
"""

from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sliceforge import pipeline
from sliceforge.errors import InfeasibleError
from sliceforge.hinges import collect_triples, compute_hinges, find_backbone
from sliceforge.octree import Slice, slices_from_json

from helpers import collect_triples_reference, compute_hinges_reference, find_backbone_reference

GOLDEN = Path(__file__).parent / "golden" / "volume_deep_seed3_slices.json"
PAIRS = [(a, b) for a in "xyz" for b in "xyz" if a != b]


def assert_matches_reference(slices: list[Slice], orientations: tuple[str, str]) -> None:
    hinges = compute_hinges(slices, orientations)
    assert hinges == compute_hinges_reference(slices, orientations)
    assert collect_triples(hinges, slices) == collect_triples_reference(hinges, slices)
    try:
        expected = find_backbone_reference(hinges, slices)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=str(exc)):
            find_backbone(hinges, slices)
    else:
        assert find_backbone(hinges, slices) == expected


@st.composite
def slice_sets(draw) -> tuple[list[Slice], tuple[str, str]]:
    """Slices of both families (and now and then of the third axis) on an
    8-voxel grid, so that coplanar slices meet, heights are equal or
    staggered and crossings fall on extent edges. Each slice takes one of a
    few v intervals, so that up-down hinges flank cut-throughs; ids are
    distinct but in random order; node 0 is in about half of the slices."""
    orientations = draw(st.sampled_from(PAIRS))
    third = next(a for a in "xyz" if a not in orientations)
    specs = draw(st.lists(
        st.tuples(
            st.sampled_from([*orientations, *orientations, third]),
            st.integers(0, 8),
            st.integers(0, 4), st.integers(2, 8),  # u0, width
            st.sampled_from([(0, 4), (0, 4), (0, 8), (2, 6), (0, 2)]),  # (v0, v1)
            st.sets(st.integers(0, 3), min_size=1, max_size=3),
        ),
        min_size=1, max_size=30,
    ))
    ids = draw(st.permutations(range(len(specs))))
    slices = [Slice(i, o, plane, (u0, v0, u0 + w, v1), tuple(sorted(nodes)))
              for i, (o, plane, u0, w, (v0, v1), nodes) in zip(ids, specs)]
    if ids != sorted(ids):
        event("ids not in list order")
    return slices, orientations


# two coplanar x slices on plane 2, listed with the larger id first, cross one
# y slice over the same interval: only their positions order the two hinges
TIE = ([Slice(1, "x", 2, (0, 0, 4, 4), (0,)), Slice(0, "x", 2, (2, 0, 6, 4), (0,)),
        Slice(2, "y", 3, (0, 0, 8, 4), (0,))], ("x", "y"))


@settings(max_examples=400, deadline=None)
@example(TIE)
@given(slice_sets())
def test_matches_pairwise_scan(case):
    slices, orientations = case
    assert_matches_reference(slices, orientations)
    hinges = compute_hinges(slices, orientations)
    keys = [(h.u_b, h.u_a, h.v0, h.v1) for h in hinges]
    if len(set(keys)) < len(keys):
        event("crossings that tie on (u_b, u_a, v0, v1)")
    if collect_triples(hinges, slices):
        event("triples")


def test_tie_follows_list_position():
    slices, orientations = TIE
    assert [(h.slice_a, h.slice_b) for h in compute_hinges(slices, orientations)] == [(1, 2), (0, 2)]


def test_matches_pairwise_scan_on_the_volume_deep_slices():
    art = pipeline.read_artifact(GOLDEN)
    slices = slices_from_json(art["slices"], str(GOLDEN))
    assert (len(slices), len(compute_hinges(slices))) == (108, 1731)
    assert_matches_reference(slices, ("x", "y"))
    assert_matches_reference(slices[::-1], ("x", "y"))
    assert len(collect_triples(compute_hinges(slices), slices)) == 282
