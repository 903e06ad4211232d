import dataclasses

import pytest

from sliceforge.codec import encode
from sliceforge.errors import InfeasibleError, ValidationError
from sliceforge.hinges import (
    Hinge,
    HingeKind,
    SlotKind,
    collect_triples,
    compute_hinges,
    find_backbone,
    hinges_by_slice,
    hinges_from_json,
)
from sliceforge.octree import build_octree, extract_slices, unify_slices

from helpers import stopper_model, synthetic_slices


class TestComputeHinges:
    def test_full_height_crossing_is_up_down(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (0,)), ("y", 8, (0, 0, 16, 16), (0,))]
        )
        (h,) = compute_hinges(slices)
        assert h.kind == HingeKind.UP_DOWN
        assert (h.v0, h.v1) == (0, 16)
        # first orientation family carries the top slot
        assert h.slot_a == SlotKind.TOP and h.slot_b == SlotKind.BOTTOM
        assert h.stopper_on is None

    def test_strict_height_subset_is_cut_through(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (0,)), ("y", 8, (4, 4, 12, 12), (1,))]
        )
        (h,) = compute_hinges(slices)
        assert h.kind == HingeKind.CUT_THROUGH
        assert h.slot_a == SlotKind.WINDOW  # taller slice carries the window
        assert h.slot_b == SlotKind.NONE
        assert (h.v0, h.v1) == (4, 12)
        assert h.stopper_on is None  # contact at u=8 is interior to [4, 12]

    def test_boundary_contact_gets_stopper(self):
        slices = stopper_model()
        hinges = compute_hinges(slices)
        ct = [h for h in hinges if h.kind == HingeKind.CUT_THROUGH]
        assert len(ct) == 1
        assert ct[0].stopper_on == 2  # the small hanging slice
        assert ct[0].slot_on(2) == SlotKind.NONE
        assert ct[0].slot_on(0) == SlotKind.WINDOW

    def test_shared_end_is_cut_through(self):
        # heights share the bottom only: still a cut-through on the taller
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (0,)), ("y", 8, (4, 0, 12, 8), (1,))]
        )
        (h,) = compute_hinges(slices)
        assert h.kind == HingeKind.CUT_THROUGH
        assert h.slot_a == SlotKind.WINDOW

    def test_corner_touch_discarded(self):
        slices = synthetic_slices(
            [("x", 8, (0, 8, 16, 16), (0,)), ("y", 8, (0, 0, 16, 8), (1,))]
        )
        assert compute_hinges(slices) == []

    def test_parallel_slices_never_hinge(self):
        slices = synthetic_slices(
            [("x", 4, (0, 0, 16, 16), (0,)), ("x", 8, (0, 0, 16, 16), (1,))]
        )
        assert compute_hinges(slices) == []

    def test_out_of_extent_crossing_discarded(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 4, 16), (0,)), ("y", 8, (12, 0, 16, 16), (1,))]
        )
        assert compute_hinges(slices) == []

    def test_perpendicular_and_deterministic(self, checker64):
        root = build_octree(checker64, 3)
        slices = unify_slices(extract_slices(root))
        hinges = compute_hinges(slices)
        by_id = {s.id: s for s in slices}
        assert all(
            by_id[h.slice_a].orientation != by_id[h.slice_b].orientation for h in hinges
        )
        assert [h.id for h in hinges] == list(range(len(hinges)))
        assert hinges == compute_hinges(slices)

    def test_json_round_trip(self):
        slices = stopper_model()
        hinges = compute_hinges(slices, ("x", "y"))
        assert hinges_from_json(encode(hinges), "hinges.json", slices, ("x", "y")) == hinges

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(Hinge)])
    def test_json_with_one_field_changed_raises(self, key):
        slices = stopper_model()
        items = encode(compute_hinges(slices, ("x", "y")))
        stopper = next(i for i, item in enumerate(items) if item["stopper_on"] is not None)
        other = {"kind": "up_down", "slot_a": "top", "slot_b": "bottom", "stopper_on": None}
        items[stopper][key] = other[key] if key in other else items[stopper][key] + 1
        with pytest.raises(ValidationError, match=f"^hinges hinges.json malformed: hinge {stopper} is "):
            hinges_from_json(items, "hinges.json", slices, ("x", "y"))


class TestBackbone:
    def test_root_only_model(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (0,)), ("y", 8, (0, 0, 16, 16), (0,))]
        )
        hinges = compute_hinges(slices)
        assert find_backbone(hinges, slices) == hinges[0].id

    def test_l2_model_central_crossing(self, checker64):
        root = build_octree(checker64, 2)
        slices = unify_slices(extract_slices(root))
        hinges = compute_hinges(slices)
        bb = next(h for h in hinges if h.id == find_backbone(hinges, slices))
        by_id = {s.id: s for s in slices}
        assert by_id[bb.slice_a].plane_coord == 32
        assert by_id[bb.slice_b].plane_coord == 32
        # the backbone is the longest hinge overall
        assert bb.length == max(h.length for h in hinges)

    def test_tie_breaks_to_smaller_id(self):
        # two identical-geometry candidate pairs; ids decide
        slices = synthetic_slices(
            [
                ("x", 4, (0, 0, 16, 16), (0,)),
                ("x", 12, (0, 0, 16, 16), (0,)),
                ("y", 8, (0, 0, 16, 16), (0,)),
            ]
        )
        hinges = compute_hinges(slices)
        candidates = [h.id for h in hinges]
        assert find_backbone(hinges, slices) == min(candidates)

    def test_no_hinges_is_structural_error(self):
        slices = synthetic_slices([("x", 8, (0, 0, 16, 16), (0,))])
        with pytest.raises(InfeasibleError, match="stabilized"):
            find_backbone([], slices)

    def test_no_root_hinge_is_structural_error(self):
        slices = synthetic_slices(
            [("x", 8, (0, 0, 16, 16), (1,)), ("y", 8, (0, 0, 16, 16), (2,))]
        )
        hinges = compute_hinges(slices)
        with pytest.raises(InfeasibleError, match="root"):
            find_backbone(hinges, slices)


class TestTriples:
    def _slice_with_pattern(self, pattern):
        """Build a tall host slice (first family) crossed by full-height
        perpendicular slices (up-down) and short ones (cut-through whose
        none slot lands on the host's interior)."""
        specs = [("x", 50, (0, 0, 100, 100), (0,))]
        u = 10
        for kind in pattern:
            if kind == "UD":
                specs.append(("y", u, (0, 0, 100, 100), (len(specs),)))
            else:
                # shorter in v and in u: host is taller, so host gets the
                # window and the short slice carries the none slot... the
                # none slot must lie on the HOST for a triple, so the short
                # slice must be the taller one at this crossing instead
                specs.append(("y", u, (20, 0, 80, 120), (len(specs),)))
            u += 15
        return synthetic_slices(specs)

    def test_ud_ct_ud_yields_one_triple(self):
        slices = self._slice_with_pattern(["UD", "CT", "UD"])
        hinges = compute_hinges(slices)
        triples = collect_triples(hinges, slices)
        assert len(triples) == 1
        (t,) = triples
        assert t.host_slice == 0
        mine = hinges_by_slice(hinges)[0]
        pos = {h.id: i for i, h in enumerate(mine)}
        assert pos[t.i] < pos[t.j] < pos[t.k]

    def test_only_up_down_no_triples(self):
        slices = self._slice_with_pattern(["UD", "UD", "UD"])
        hinges = compute_hinges(slices)
        assert collect_triples(hinges, slices) == []

    def test_two_cut_throughs_two_triples(self):
        slices = self._slice_with_pattern(["UD", "CT", "UD", "CT", "UD"])
        hinges = compute_hinges(slices)
        triples = collect_triples(hinges, slices)
        assert len(triples) == 2
        js = {t.j for t in triples}
        assert len(js) == 2

    def test_edge_cut_through_without_flanking_ud_no_triple(self):
        slices = self._slice_with_pattern(["CT", "UD"])
        hinges = compute_hinges(slices)
        assert collect_triples(hinges, slices) == []
