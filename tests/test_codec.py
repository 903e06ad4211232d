"""The artifact codec: encode/decode round trips, JSON key names, and one
ValidationError for every malformed input."""

import json

import pytest

from sliceforge.codec import decode, encode, json_text
from sliceforge.errors import ValidationError
from sliceforge.hinges import Hinge, HingeKind, SlotKind
from sliceforge.layout import PageLayout, Partition, Placement
from sliceforge.ordering import AssemblyPlan
from sliceforge.pipeline import GridInfo
from sliceforge.volume import TransferBin, TransferFunction

GRID = GridInfo((4, 5, 6), (0.5, 0.5, 1.0), (-1.0, 0.0, 2.5), ("x", "y"))
LAYOUT = PageLayout(
    page_size=(210.0, 297.0),
    margin=5.0,
    gutter=4.0,
    sheets=1,
    scale=0.75,
    partitions=(Partition(page=0, cluster=0, rect=(5.0, 5.0, 200.0, 287.0)),),
    placements=(Placement(slice_id=3, page=0, x=5.0, y=6.5, rotated=True, w=10.0, h=20.0),),
    cluster_of={3: 0, 11: 0},
)
HINGE = Hinge(1, 0, 7, 4, 4, 0, 32, HingeKind.CUT_THROUGH, SlotKind.WINDOW, SlotKind.NONE, stopper_on=7)
VALUES = [
    GRID,
    LAYOUT,
    HINGE,
    AssemblyPlan(hinge_order=(2, 0, 1), slice_order=(1, 0), objective=3.25, exact=False),
    TransferFunction(bins=(TransferBin(0.0, 1.0, (1.0, 0.5, 0.0), 0.25),)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_round_trip_through_json_text(value):
    assert decode(type(value), json.loads(json_text(encode(value))), "value") == value


def test_json_keys_follow_field_metadata():
    assert sorted(encode(GRID)) == ["dims", "orientations", "origin_mm", "spacing_mm"]
    record = encode(LAYOUT)
    assert sorted(record) == [
        "clusters", "gutter_mm", "margin_mm", "page_size_mm", "partitions", "placements", "scale", "sheets",
    ]
    assert record["clusters"] == {"3": 0, "11": 0}
    assert record["placements"][0]["slice"] == 3
    assert encode(HINGE)["kind"] == "cut_through"


def test_absent_field_with_a_default_takes_the_default():
    record = encode(HINGE)
    del record["stopper_on"]
    assert decode(Hinge, record, "hinge").stopper_on is None


GRID_JSON = encode(GRID)
MALFORMED = [
    (GridInfo, {k: v for k, v in GRID_JSON.items() if k != "dims"}),  # missing key
    (GridInfo, {**GRID_JSON, "dims": [4, 5]}),  # wrong tuple length
    (GridInfo, {**GRID_JSON, "spacing_mm": ["a", 1, 1]}),  # not a number
    (GridInfo, None),
    (GridInfo, [1, 2, 3]),
    (Hinge, {**encode(HINGE), "kind": "sideways"}),  # unknown enum value
    (PageLayout, {**encode(LAYOUT), "clusters": [0, 0]}),  # array for an object
    (list[Hinge], {"0": encode(HINGE)}),  # object for an array
]


@pytest.mark.parametrize("tp,data", MALFORMED)
def test_malformed_input_raises_one_validation_error(tp, data):
    with pytest.raises(ValidationError, match="^thing malformed: "):
        decode(tp, data, "thing")


PLAN_JSON = encode(VALUES[3])
MISMATCHED = [
    (AssemblyPlan, {**PLAN_JSON, "exact": "false"}),  # a string for a bool
    (AssemblyPlan, {**PLAN_JSON, "exact": 0}),  # an integer for a bool
    (AssemblyPlan, {**PLAN_JSON, "hinge_order": [2, 0, 1.7]}),  # a fraction for an int
    (AssemblyPlan, {**PLAN_JSON, "hinge_order": [2, 0, True]}),  # a bool for an int
    (AssemblyPlan, {**PLAN_JSON, "objective": True}),  # a bool for a float
    (AssemblyPlan, {**PLAN_JSON, "objective": "3.25"}),  # a string for a float
    (GridInfo, {**GRID_JSON, "orientations": ["x", 1]}),  # a number for a str
    (Hinge, {**encode(HINGE), "stopper_on": 7.0}),  # a float for an optional int
]


@pytest.mark.parametrize("tp,data", MISMATCHED)
def test_mismatched_json_type_is_not_converted(tp, data):
    with pytest.raises(ValidationError, match="^thing malformed: TypeError: expected a JSON "):
        decode(tp, data, "thing")


def test_integer_decodes_as_float():
    plan = decode(AssemblyPlan, {**PLAN_JSON, "objective": 3}, "plan")
    assert plan.objective == 3.0 and type(plan.objective) is float


# a bad `kind` or `slot_a` in a hinges artifact, and the enum's own ValueError
# text that its message carries
BAD_ENUMS = [
    ("kind", "sideways", "ValueError: 'sideways' is not a valid HingeKind"),
    ("kind", "CUT_THROUGH", "ValueError: 'CUT_THROUGH' is not a valid HingeKind"),
    ("kind", 3, "ValueError: 3 is not a valid HingeKind"),
    ("kind", 2.5, "ValueError: 2.5 is not a valid HingeKind"),
    ("kind", True, "ValueError: True is not a valid HingeKind"),
    ("kind", None, "ValueError: None is not a valid HingeKind"),
    ("kind", ["up_down"], "ValueError: ['up_down'] is not a valid HingeKind"),
    ("kind", {"a": 1}, "ValueError: {'a': 1} is not a valid HingeKind"),
    ("slot_a", "", "ValueError: '' is not a valid SlotKind"),
    ("slot_a", 0, "ValueError: 0 is not a valid SlotKind"),
    ("slot_a", [], "ValueError: [] is not a valid SlotKind"),
    ("slot_a", {}, "ValueError: {} is not a valid SlotKind"),
]


@pytest.mark.parametrize("key,value,message", BAD_ENUMS)
def test_bad_enum_value_keeps_the_enums_own_message(key, value, message):
    items = [encode(HINGE), {**encode(HINGE), key: value}]
    with pytest.raises(ValidationError) as info:
        decode(list[Hinge], items, "hinges h.json")
    assert str(info.value) == f"hinges h.json malformed: {message}"


def test_enum_decodes_to_the_enums_own_members():
    items = [encode(HINGE), {**encode(HINGE), "kind": "up_down", "slot_a": "top"}]
    hinges = decode(list[Hinge], items, "hinges h.json")
    assert hinges[0].kind is HingeKind.CUT_THROUGH and hinges[1].kind is HingeKind.UP_DOWN
    assert hinges[0].slot_a is SlotKind.WINDOW and hinges[1].slot_a is SlotKind.TOP
    assert all(h.slot_b is SlotKind.NONE for h in hinges)


@pytest.mark.parametrize("key", ["01", "1_0", " 3", "3 ", "+3", "-0", "٥", "1.0", "0x1", ""])
def test_int_key_must_be_canonical_digits(key):
    # int() takes every one of these but the last three; "01" and "1" would name one key
    with pytest.raises(ValidationError, match="^layout l.json malformed: ValueError: "):
        decode(dict[int, int], {"1": 6, key: 5}, "layout l.json")


def test_int_keys_that_collapse_under_int_are_rejected():
    with pytest.raises(ValidationError, match="^x malformed: ValueError: object key '1_0' is not an integer"):
        decode(dict[int, int], {"1_0": 2, " 3": 1, "٥": 7, "01": 5, "1": 6}, "x")


def test_canonical_int_keys_decode():
    assert decode(dict[int, int], {"0": 1, "-4": 2, "10": 3, "1" + "0" * 30: 4}, "x") == {0: 1, -4: 2, 10: 3, 10**30: 4}
    record = json.loads(json_text(encode(LAYOUT)))
    assert decode(PageLayout, record, "layout").cluster_of == {3: 0, 11: 0}
    record["clusters"] = {"03": 0, "11": 0}
    with pytest.raises(ValidationError, match="^layout malformed: ValueError: object key '03'"):
        decode(PageLayout, record, "layout")
