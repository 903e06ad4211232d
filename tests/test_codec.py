"""The artifact codec: encode/decode round trips of every type a command
decodes, JSON key names, and one ValidationError for every malformed input."""

import json
import re

import pytest

from sliceforge.codec import decode, encode, json_text, require_encoding
from sliceforge.errors import ValidationError
from sliceforge.hinges import Hinge, HingeKind, SlotKind
from sliceforge.layout import PageLayout, Partition, Placement
from sliceforge.octree import Slice
from sliceforge.pipeline import GridInfo, LayoutOptions
from sliceforge.volume import TransferBin, TransferFunction, _VolumeHeader

GRID = GridInfo((4, 5, 6), (0.5, 0.5, 1.0), (-1.0, 0.0, 2.5), ("x", "y"))
SLICES = [Slice(0, "x", 2, (0, 0, 5, 6), (1, 2)), Slice(7, "y", 3, (1, 2, 4, 6), ())]
TF = TransferFunction(bins=(TransferBin(0.0, 1.0, (1.0, 0.5, 0.0), 0.25),))
HEADER = _VolumeHeader((4, 5, 6), (0.5, 0.5, 1.0), "u16", (-1.0, 0.0, 2.5))
OPTIONS = LayoutOptions((210.0, 297.0), 5.0, 4.0, 1, 0.75, 1.0)
VALUES = [GRID, SLICES, TF, HEADER, OPTIONS]
# only encoded: a command derives hinges and layouts again and compares them
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


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_round_trip_through_json_text(value):
    # a slice compares by identity, so a list of them compares field by field
    tp = list[Slice] if isinstance(value, list) else type(value)
    got = decode(tp, json.loads(json_text(encode(value))), "value")
    assert [vars(s) for s in got] == [vars(s) for s in value] if isinstance(value, list) else got == value


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
    record = encode(HEADER)
    del record["origin_mm"]
    assert decode(_VolumeHeader, record, "header").origin == (0.0, 0.0, 0.0)


GRID_JSON = encode(GRID)
SLICE_JSON = encode(SLICES[0])
BIN_JSON = encode(TF.bins[0])
MALFORMED = [
    (GridInfo, {k: v for k, v in GRID_JSON.items() if k != "dims"}),  # missing key
    (GridInfo, {**GRID_JSON, "dims": [4, 5]}),  # wrong tuple length
    (GridInfo, {**GRID_JSON, "spacing_mm": ["a", 1, 1]}),  # not a number
    (GridInfo, None),
    (GridInfo, [1, 2, 3]),
    (_VolumeHeader, {k: v for k, v in encode(HEADER).items() if k != "dtype"}),  # missing key without a default
    (TransferFunction, {"bins": [list(BIN_JSON.values())]}),  # array for an object
    (list[Slice], {"0": SLICE_JSON}),  # object for an array
]


@pytest.mark.parametrize("tp,data", MALFORMED)
def test_malformed_input_raises_one_validation_error(tp, data):
    with pytest.raises(ValidationError, match="^thing malformed: "):
        decode(tp, data, "thing")


OPTIONS_JSON = encode(OPTIONS)
MISMATCHED = [
    (list[Slice], [{**SLICE_JSON, "plane_coord": True}]),  # a bool for an int
    (GridInfo, {**GRID_JSON, "dims": [4, 5, 6.5]}),  # a fraction for an int
    (TransferFunction, {"bins": [{**BIN_JSON, "lo": True}]}),  # a bool for a float
    (TransferFunction, {"bins": [{**BIN_JSON, "lo": "0.0"}]}),  # a string for a float
    (LayoutOptions, {**OPTIONS_JSON, "sheets": True}),  # a bool for an int
    (LayoutOptions, {**OPTIONS_JSON, "scale": "0.75"}),  # a string for a float
    (GridInfo, {**GRID_JSON, "orientations": ["x", 1]}),  # a number for a str
    (_VolumeHeader, {**encode(HEADER), "dtype": 16}),  # a number for a str
]


@pytest.mark.parametrize("tp,data", MISMATCHED)
def test_mismatched_json_type_is_not_converted(tp, data):
    with pytest.raises(ValidationError, match="^thing malformed: TypeError: expected a JSON "):
        decode(tp, data, "thing")


def test_integer_decodes_as_float():
    tf = decode(TransferFunction, {"bins": [{**BIN_JSON, "lo": 0}]}, "tf")
    assert tf.bins[0].lo == 0.0 and type(tf.bins[0].lo) is float


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["positive", "negative"])
def test_integer_too_large_for_a_float_raises_one_validation_error(value):
    message = "^tf malformed: OverflowError: int too large to convert to float$"
    with pytest.raises(ValidationError, match=message):
        decode(TransferFunction, {"bins": [{**BIN_JSON, "hi": value}]}, "tf")


@pytest.mark.parametrize("at,edit", [
    ("placements[0].rotated", lambda obj: obj["placements"][0].update(rotated=1)),
    ("sheets", lambda obj: obj.update(sheets=1.0)),
    ("sheets", lambda obj: obj.update(sheets=True)),
    ("clusters.3", lambda obj: obj["clusters"].update({"3": False})),
    ("partitions[0].rect[0]", lambda obj: obj["partitions"][0]["rect"].__setitem__(0, 5)),
])
def test_require_encoding_names_a_value_of_another_json_type(at, edit):
    # Python's == takes true and 1.0 for 1; the JSON text of each edit differs
    obj = json.loads(json_text(encode(LAYOUT)))
    assert require_encoding(obj, LAYOUT, "layout", "its slices", "hint") is LAYOUT
    edit(obj)
    assert obj == encode(LAYOUT)
    with pytest.raises(ValidationError, match=rf"^layout malformed: {re.escape(at)} is "):
        require_encoding(obj, LAYOUT, "layout", "its slices", "hint")
