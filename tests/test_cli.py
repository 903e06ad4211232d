"""Command-line validation: bad values exit 2 with a message, never a traceback."""

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sliceforge import cli, pipeline
from sliceforge import mesh
from sliceforge.mesh import save_obj
from sliceforge.render import MAX_RASTER_PIXELS
from sliceforge.synth import icosphere

from helpers import write_volume_files
from synth import checkerboard_volume

# the commands that take --slot-width or --dpi; input paths need not exist
# because option values are checked before any file is read
COMMANDS = {
    "build": ["build", "--meshes", "missing.obj", "--out", "out"],
    "pack": ["pack", "--in", "hinges.json", "--plan", "plan.json", "--out", "layout.json"],
    "export": [
        "export", "--in", "layout.json", "--hinges", "hinges.json",
        "--plan", "plan.json", "--meshes", "missing.obj", "--out", "out",
    ],
}
FLAGS = {"build": ("slot_width", "dpi"), "pack": ("slot_width",), "export": ("dpi",)}
CASES = [(cmd, key) for cmd, keys in FLAGS.items() for key in keys]


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command,key", CASES)
@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
def test_non_positive_flag_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    code, err = run(COMMANDS[command] + [flag, value], capsys)
    assert code == 2
    assert f"{flag} must be a positive number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,key", CASES)
@pytest.mark.parametrize("value", [0, -2, "1", None, True])
def test_bad_config_value_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    code, err = run(COMMANDS[command] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert "must be a positive number" in err
    assert "Traceback" not in err


def test_positive_values_pass_validation(capsys, tmp_path, monkeypatch):
    # past the option checks the build fails on the missing mesh (I/O, exit 4)
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS["build"] + ["--slot-width", "0.5", "--dpi", "2"], capsys)
    assert code == 4
    assert "must be a positive number" not in err


@pytest.fixture
def volume_build(tmp_path, monkeypatch):
    """A build of a small checkerboard volume that succeeds as written;
    a test overwrites one of its files to break it."""
    monkeypatch.chdir(tmp_path)
    raw, header, tf = write_volume_files(tmp_path, *checkerboard_volume(8))
    (tmp_path / "cfg.json").write_text("{}")
    return ["build", "--input", raw.name, "--header", header.name, "--tf", tf.name,
            "--level", "2", "--config", "cfg.json", "--out", "out"]


def test_volume_build_succeeds(volume_build, capsys):
    assert run(volume_build, capsys)[0] == 0


def test_all_background_volume_is_reported_once(tmp_path):
    # in a fresh interpreter, whose stderr shows any warning as Python prints it
    volume, tf = checkerboard_volume(8)
    zeros = dataclasses.replace(volume, scalars=np.zeros_like(volume.scalars))
    raw, header, tf_path = write_volume_files(tmp_path, zeros, tf)
    argv = ["build", "--input", str(raw), "--header", str(header), "--tf", str(tf_path),
            "--level", "2", "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", "sliceforge.cli", *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error [octree]: volume is entirely background",
        "hint: nothing to slice: every voxel has opacity 0",
    ]
    assert "UserWarning" not in done.stderr and str(Path(cli.__file__).parent) not in done.stderr


def test_config_key_gives_the_output_directory(volume_build, capsys, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "from_config"}))
    assert run(volume_build[:-2], capsys)[0] == 0
    assert (tmp_path / "from_config" / "manifest.json").is_file()
    assert run(volume_build, capsys)[0] == 0  # the flag beats the key
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_config_keys_give_every_stage_its_paths(tmp_path, monkeypatch, capsys):
    # each path a stage requires (--in, --hinges, --plan, --out) by its config key alone
    monkeypatch.chdir(tmp_path)
    raw, header, tf = write_volume_files(tmp_path, *checkerboard_volume(8))
    volume = ["--input", raw.name, "--header", header.name, "--tf", tf.name]
    stages = [
        ("slice", [*volume, "--level", "2"], {"out": "slices.json"}),
        ("hinge", [], {"inp": "slices.json", "out": "hinges.json"}),
        ("order", [], {"inp": "hinges.json", "out": "plan.json"}),
        ("pack", [], {"inp": "hinges.json", "plan": "plan.json", "out": "layout.json"}),
        ("export", volume, {"inp": "layout.json", "hinges": "hinges.json", "plan": "plan.json", "out": "print"}),
    ]
    for command, flags, paths in stages:
        (tmp_path / "cfg.json").write_text(json.dumps(paths))
        assert run([command, *flags, "--config", "cfg.json"], capsys) == (0, ""), command
    assert (tmp_path / "print" / "manifest.json").is_file()


@pytest.mark.parametrize("command,flag,key", [
    ("build", "--out", "out"), ("pack", "--in", "inp"), ("pack", "--plan", "plan"),
    ("export", "--hinges", "hinges"), ("export", "--out", "out"),
])
@pytest.mark.parametrize("config", [None, {}, "null"], ids=["no-config", "no-key", "null-key"])
def test_missing_required_path_names_its_flag_and_config_key(command, flag, key, config, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    at = COMMANDS[command].index(flag)
    argv = COMMANDS[command][:at] + COMMANDS[command][at + 2:]
    if config is not None:  # no key, or the key set to null
        (tmp_path / "cfg.json").write_text(json.dumps({key: None} if config == "null" else config))
        argv += ["--config", "cfg.json"]
    code, err = run(argv, capsys)
    assert code == 2
    assert f"{flag} is required: give the flag or the config key {key!r}" in err


def test_config_key_inside_a_config_file_is_unknown(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"config": "cfg.json"}))
    code, err = run(COMMANDS["build"] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert "unknown config key 'config' for command 'build'" in err


BAD_BIN = {"bins": [{"lo": "abc", "hi": 1.0, "rgb": [1, 0, 0], "opacity": 0.5}]}
# a byte that UTF-8 never holds, and an integer of more digits than int() takes
NOT_UTF8 = b'{"bins": "\xff"}'
TOO_MANY_DIGITS = '{"bins": ' + "1" * 5000 + "}"


@pytest.mark.parametrize("name,text,message", [
    ("vol_tf.json", json.dumps(BAD_BIN), "transfer function vol_tf.json malformed"),
    ("vol_tf.json", "{bins: ", "transfer function vol_tf.json is not valid JSON"),
    ("cfg.json", json.dumps({"sheets": "2"}), "--sheets must be an integer"),
    pytest.param("vol_tf.json", NOT_UTF8, "transfer function vol_tf.json is not valid JSON", id="tf-not-utf8"),
    pytest.param("vol_tf.json", TOO_MANY_DIGITS, "transfer function vol_tf.json is not valid JSON", id="tf-digits"),
    pytest.param("vol_tf.json", "[" * 5000, "transfer function vol_tf.json is not valid JSON", id="tf-nesting"),
    pytest.param("vol.json", NOT_UTF8, "header vol.json is not valid JSON", id="header-not-utf8"),
    pytest.param("vol.json", TOO_MANY_DIGITS, "header vol.json is not valid JSON", id="header-digits"),
    pytest.param("cfg.json", NOT_UTF8, "config file cfg.json is not valid JSON", id="config-not-utf8"),
    pytest.param("mesh.obj", b"v 0 0 0\nv 1 0 \xff\n", "mesh.obj:2: byte 0xff is not UTF-8 text", id="mesh-not-utf8"),
    pytest.param("mesh.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n", "mesh 'mesh' is empty", id="mesh-no-faces"),
    pytest.param("mesh.obj", "", "mesh 'mesh' is empty", id="mesh-empty"),
])
def test_malformed_input_exits_2_with_a_message(volume_build, name, text, message, capsys, tmp_path):
    (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    # meshes take the place of the volume: its --input, --header and --tf
    argv = ["build", "--meshes", name, *volume_build[7:]] if name.endswith(".obj") else volume_build
    code, err = run(argv, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_oversized_volume_exits_2_before_it_is_read(volume_build, capsys, tmp_path):
    # a sparse 1 GiB file takes no disk, and its size is checked first
    os.truncate(tmp_path / "vol.raw", 1 << 30)
    code, err = run(volume_build, capsys)
    assert code == 2
    assert "expected 512 scalars (2048 bytes), file holds 268435456 (1073741824 bytes)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    ("spacing_mm", [math.nan, 1, 1], "spacing must be three finite numbers > 0"),
    ("spacing_mm", [math.inf, 1, 1], "spacing must be three finite numbers > 0"),
    ("spacing_mm", [1, 1], "header vol.json malformed: ValueError: expected 3 items"),
    ("dtype", ["f32"], "header vol.json malformed: TypeError: expected a JSON string"),
    ("dims", "888", "header vol.json malformed: TypeError: expected a JSON array"),
    ("origin_mm", [math.nan, 0, 0], "origin must be three finite numbers"),
])
def test_malformed_volume_header_exits_2(volume_build, key, value, message, capsys, tmp_path):
    header = tmp_path / "vol.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), key: value}))
    code, err = run(volume_build, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


# --margin and --gutter measure paper; --seed is no option, so any value of
# it exits 2 as unknown, as a flag and as a config key
RANGE_CASES = [
    ("build", "margin"), ("build", "gutter"), ("build", "seed"),
    ("pack", "margin"), ("pack", "gutter"), ("pack", "seed"),
]
FLAG_MESSAGES = {"margin": "--margin must be a finite number >= 0", "gutter": "--gutter must be a finite number >= 0",
                 "seed": "unrecognized arguments: --seed"}
CONFIG_MESSAGES = {**FLAG_MESSAGES, "seed": "unknown config key 'seed'"}


@pytest.mark.parametrize("command,key", RANGE_CASES)
@pytest.mark.parametrize("value", ["-20", "-1", "nan", "inf"])
def test_out_of_range_flag_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS[command] + [f"--{key}", value], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert FLAG_MESSAGES[key] in err


@pytest.mark.parametrize("command,key", RANGE_CASES)
@pytest.mark.parametrize("value", [-1, -0.5, float("nan"), float("inf"), "1", None, True])
def test_out_of_range_config_value_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    code, err = run(COMMANDS[command] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert CONFIG_MESSAGES[key] in err


@pytest.mark.parametrize("command", ["build", "pack"])
def test_seed_is_no_option(command, capsys, tmp_path, monkeypatch):
    # k-means starts from one fixed centre: the seed that picked it is gone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 0}))
    for extra, message in ((["--seed", "0"], "unrecognized arguments: --seed 0"),
                           (["--config", "cfg.json"], f"unknown config key 'seed' for command '{command}'")):
        code, err = run(COMMANDS[command] + extra, capsys)
        assert code == 2
        assert message in err
        assert "Traceback" not in err


def test_zero_margin_and_gutter_pass_validation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS["build"] + ["--margin", "0", "--gutter", "0"], capsys)
    assert code == 4
    assert "must be" not in err


@pytest.mark.parametrize("command", ["build", "pack"])
def test_k_max_is_no_option(command, capsys, tmp_path, monkeypatch):
    # `layout.K_MAX` caps the elbow's k, as the paper leaves no choice of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"k_max": 2}))
    for extra, message in ((["--k-max", "2"], "unrecognized arguments: --k-max 2"),
                           (["--config", "cfg.json"], f"unknown config key 'k_max' for command '{command}'")):
        code, err = run(COMMANDS[command] + extra, capsys)
        assert code == 2
        assert message in err
        assert "Traceback" not in err


def missing_inputs(command: str) -> list[str]:
    """`command` with each path that it requires, and --input, --header and
    --tf if it reads a volume, naming a file that does not exist."""
    named = [dest for dest, option in cli._OPTIONS.items() if command in option.commands
             and (option.kwargs.get("required") or dest in ("input", "header", "tf"))]
    return [command, *(arg for dest in named for arg in (cli._OPTIONS[dest].flag, f"missing-{dest}"))]


# one value outside the range of each option that `cli._OPTIONS` gives one
OUT_OF_RANGE = {"level": 0, "sheets": 0, "slot_width": 0, "margin": -1, "gutter": -1, "dpi": 0}
RANGED = [(dest, command) for dest, option in cli._OPTIONS.items() if option.range for command in option.commands]


def test_every_number_option_but_resolution_has_a_range():
    # the voxelizer bounds --resolution, and a volume build refuses any
    numbers = {dest for dest, option in cli._OPTIONS.items() if option.kwargs.get("type") in (int, float)}
    assert {dest for dest in numbers if cli._OPTIONS[dest].range is None} == {"resolution"}
    assert OUT_OF_RANGE.keys() == {dest for dest, _command in RANGED}


@pytest.mark.parametrize("dest,command", RANGED, ids=[f"{dest}-{command}" for dest, command in RANGED])
@pytest.mark.parametrize("channel", ["flag", "config"])
def test_out_of_range_value_exits_2_before_any_input_is_read(dest, command, channel, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = missing_inputs(command)
    assert run(argv, capsys)[0] == 4  # with every value in range, the missing inputs stop the command
    flag, value = cli._OPTIONS[dest].flag, OUT_OF_RANGE[dest]
    if channel == "flag":
        argv += [flag, str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({dest: value}))
        argv += ["--config", "cfg.json"]
    code, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"error [{command}]: {flag} must be {cli._OPTIONS[dest].range[1]}, got ")


def write_runs(tmp: Path, levels: tuple[str, ...]) -> list[str]:
    """A checkerboard volume in `tmp` and the staged artifacts of one run of
    it per octree level, as `slices2.json`, `hinges2.json`, ... for level 2;
    returns the volume's input flags."""
    raw, header, tf = write_volume_files(tmp, *checkerboard_volume(8))
    inputs = ["--input", str(raw), "--header", str(header), "--tf", str(tf)]
    for level in levels:
        slices, hinges, plan, layout = (str(tmp / f"{kind}{level}.json") for kind in ("slices", "hinges", "plan", "layout"))
        for argv in (
            ["slice", *inputs, "--level", level, "--out", slices],
            ["hinge", "--in", slices, "--out", hinges],
            ["order", "--in", hinges, "--out", plan],
            ["pack", "--in", hinges, "--plan", plan, "--out", layout],
        ):
            assert cli.main(argv) == 0
    return inputs


@pytest.fixture
def two_runs(tmp_path, monkeypatch):
    """The staged artifacts of a level 2 and a level 3 run of one volume,
    which slice it differently; returns the volume's input flags."""
    monkeypatch.chdir(tmp_path)
    return write_runs(tmp_path, ("2", "3"))


def test_export_rejects_artifacts_of_another_slice_set(two_runs, capsys):
    inputs = two_runs

    def export(layout, hinges, plan):
        return run(["export", *inputs, "--in", layout, "--hinges", hinges, "--plan", plan, "--out", "out"], capsys)

    code, err = export("layout3.json", "hinges2.json", "plan2.json")
    assert code == 2
    assert ("layout layout3.json malformed: partitions[0].cluster is 0, "
            "but the slices of hinges2.json packed at its scale give 1") in err
    code, err = export("layout2.json", "hinges2.json", "plan3.json")
    assert code == 2
    assert "plan plan3.json malformed: hinge_order[0] is 24, but the hinges of hinges2.json give 4" in err
    assert "Traceback" not in err
    assert export("layout2.json", "hinges2.json", "plan2.json")[0] == 0


def edit_clusters(path: Path, edit) -> None:
    record = json.loads(path.read_text())
    record["clusters"] = edit(record["clusters"])
    path.write_text(json.dumps(record))


@pytest.mark.parametrize("edit,message", [
    # a cluster for a slice the layout does not place
    (lambda c: {**c, "999": 0}, "clusters.999 is 0, but the slices of hinges2.json packed at its scale give None"),
    # a placed slice in no cluster
    (lambda c: dict(list(c.items())[1:]), "clusters.0 is None, but the slices of hinges2.json packed at its scale give 1"),
    # a cluster that holds no placed slice
    (lambda c: {**c, "999": max(c.values()) + 1},
     "clusters.999 is 3, but the slices of hinges2.json packed at its scale give None"),
], ids=["extra", "missing", "phantom-cluster"])
def test_export_rejects_clusters_of_other_slices(two_runs, capsys, tmp_path, edit, message):
    edit_clusters(tmp_path / "layout2.json", edit)
    code, err = run(["export", *two_runs, "--in", "layout2.json", "--hinges", "hinges2.json",
                     "--plan", "plan2.json", "--out", "out"], capsys)
    assert code == 2
    assert f"layout layout2.json malformed: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_export_rejects_a_cluster_key_in_other_digits(two_runs, capsys, tmp_path):
    edit_clusters(tmp_path / "layout2.json", lambda c: {("0" + k if k == min(c, key=int) else k): v for k, v in c.items()})
    code, err = run(["export", *two_runs, "--in", "layout2.json", "--hinges", "hinges2.json",
                     "--plan", "plan2.json", "--out", "out"], capsys)
    assert code == 2
    assert f"layout layout2.json malformed: clusters.0 is None, {PACKED} 1" in err
    assert "Traceback" not in err


def test_export_rejects_a_volume_of_another_spacing(two_runs, capsys, tmp_path):
    header = tmp_path / "vol.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "spacing_mm": [0.5, 0.5, 0.5]}))
    code, err = run(["export", *two_runs, "--in", "layout2.json", "--hinges", "hinges2.json",
                     "--plan", "plan2.json", "--out", "out"], capsys)
    assert code == 2
    assert "volume spacing (0.5, 0.5, 0.5) does not match the artifact grid (1.0, 1.0, 1.0)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("hinges,plan", [("hinges2.json", "plan3.json"), ("hinges3.json", "plan2.json")])
def test_pack_rejects_a_plan_of_another_run(two_runs, hinges, plan, capsys, tmp_path):
    code, err = run(["pack", "--in", hinges, "--plan", plan, "--out", "layout.json"], capsys)
    assert code == 2
    assert f"plan {plan} malformed: hinge_order[0] is " in err and f", but the hinges of {hinges} give " in err
    assert "Traceback" not in err
    assert not (tmp_path / "layout.json").exists()


def test_export_rejects_a_volume_of_another_origin(two_runs, capsys, tmp_path):
    header = tmp_path / "vol.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "origin_mm": [100.0, -5.0, 7.0]}))
    code, err = run(["export", *two_runs, "--in", "layout2.json", "--hinges", "hinges2.json",
                     "--plan", "plan2.json", "--out", "out"], capsys)
    assert code == 2
    assert "volume origin (100.0, -5.0, 7.0) does not match the artifact grid (0.0, 0.0, 0.0)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


# a plan that `order` does not derive from its hinges artifact: each case
# edits one key of the level 2 plan, which is exact, with hinge order
# [4, 0, 2, 6, 8, 1, 3, 5, 7] and slice order [1, 4, 0, 3, 5, 2], and gives the
# message that edit draws; a plan whose slice order does not hold each slice
# once is one such plan
GIVE = "but the hinges of hinges2.json give"
BROKEN_PLANS = {
    "drops-a-slice": ("slice_order", lambda order: order[:-1], f"slice_order[5] is None, {GIVE} 2"),
    "repeats-a-slice-in-place-of-another": ("slice_order", lambda order: order[:-1] + order[:1],
                                            f"slice_order[5] is 1, {GIVE} 2"),
    "repeats-a-slice-beside-all": ("slice_order", lambda order: order + order[:1], f"slice_order[6] is 1, {GIVE} None"),
    "adds-an-unknown-slice": ("slice_order", lambda order: order + [99999], f"slice_order[6] is 99999, {GIVE} None"),
    "rotates-the-slices": ("slice_order", lambda order: order[1:] + order[:1], f"slice_order[0] is 4, {GIVE} 1"),
    "reverses-the-hinges": ("hinge_order", lambda order: order[::-1], f"hinge_order[0] is 7, {GIVE} 4"),
    "swaps-two-hinges": ("hinge_order", lambda order: [order[0], order[2], order[1], *order[3:]],
                         f"hinge_order[1] is 2, {GIVE} 0"),
    "negative-objective": ("objective", lambda _: -5, f"objective is -5, {GIVE} 20.071067811865476"),
    "flips-exact": ("exact", lambda exact: not exact, f"exact is False, {GIVE} True"),
    # no position differs, as a missing one reads as None: the whole list does
    "appends-a-null": ("slice_order", lambda order: order + [None],
                       f"slice_order is [1, 4, 0, 3, 5, 2, None], {GIVE} [1, 4, 0, 3, 5, 2]"),
}


@pytest.mark.parametrize("command", ["pack", "export"])
@pytest.mark.parametrize("case", BROKEN_PLANS)
def test_plan_that_does_not_order_each_slice_once_exits_2(case, command, two_runs, capsys, tmp_path):
    plan = json.loads((tmp_path / "plan2.json").read_text())
    key, edit, message = BROKEN_PLANS[case]
    (tmp_path / "broken.json").write_text(json.dumps({**plan, key: edit(plan[key])}))
    code, err = run(_with_input(command, two_runs, "--plan", "broken.json"), capsys)
    assert code == 2
    assert f"plan broken.json malformed: {message}" in err
    assert "hint: rewrite it from hinges2.json with `sliceforge order`" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def level2_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("level2")
    return tmp, write_runs(tmp, ("2",))


def _changed(data, value):
    """Another value of the JSON kind of `value`, one of a plan's four: a
    list of ids with one id changed or moved to another position, another
    number, or the other bool."""
    if type(value) is bool:
        return not value
    if type(value) is float:
        return data.draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != value))
    i = data.draw(st.integers(0, len(value) - 1))
    value = list(value)
    if data.draw(st.booleans()):  # an id
        value[i] = data.draw(st.integers().filter(lambda v: v != value[i]))
    else:  # a position: the ids are distinct, so any other one changes the list
        value.insert(data.draw(st.integers(0, len(value) - 1).filter(lambda j: j != i)), value.pop(i))
    return value


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(("hinge_order", "slice_order", "objective", "exact")), data=st.data())
def test_plan_with_one_value_changed_exits_2(level2_run, key, data):
    # whatever one value of the plan artifact changes, `pack` and `export`
    # refuse it, with no output and no traceback
    tmp, inputs = level2_run
    plan = json.loads((tmp / "plan2.json").read_text())
    broken, hinges = tmp / "broken-plan.json", str(tmp / "hinges2.json")
    broken.write_text(json.dumps({**plan, key: _changed(data, plan[key])}))
    for argv in (["pack", "--in", hinges, "--plan", str(broken), "--out", str(tmp / "layout.json")],
                 ["export", *inputs, "--in", str(tmp / "layout2.json"), "--hinges", hinges,
                  "--plan", str(broken), "--out", str(tmp / "out")]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        event(f"{key} {code}")
        assert code == 2, err.getvalue()
        assert f"plan {broken} malformed: " in err.getvalue()
        assert "Traceback" not in err.getvalue()
    assert not (tmp / "layout.json").exists() and not (tmp / "out").exists()


def _swap_slices(art: dict) -> None:
    first, second = art["placements"][:2]
    first["slice"], second["slice"] = second["slice"], first["slice"]


# a layout that is not the packing of its slices at its own options and scale,
# or whose options leave their ranges: each case is an edit of the level 2
# layout, whose six square slices lie on one page in three clusters, and the
# message it draws
PACKED = "but the slices of hinges2.json packed at its scale give"
BROKEN_LAYOUTS = {
    "placement-off-the-pages": (lambda art: art["placements"][0].update(page=99),
                                f"layout broken.json malformed: placements[0].page is 99, {PACKED} 0"),
    "placement-on-a-negative-page": (lambda art: art["placements"][-1].update(page=-1),
                                     f"layout broken.json malformed: placements[5].page is -1, {PACKED} 0"),
    "partition-off-the-pages": (lambda art: art["partitions"][0].update(page=1),
                                f"layout broken.json malformed: partitions[0].page is 1, {PACKED} 0"),
    "no-sheets": (lambda art: art.update(sheets=0), "layout broken.json: sheets must be an integer >= 1, got 0"),
    "zero-page": (lambda art: art.update(page_size_mm=[0, 297]),
                  "layout broken.json: page_size_mm must be two positive numbers, got (0.0, 297.0)"),
    "zero-scale": (lambda art: art.update(scale=0), "layout broken.json: scale must be a positive number, got 0.0"),
    "negative-scale": (lambda art: art.update(scale=-1),
                       "layout broken.json: scale must be a positive number, got -1.0"),
    "negative-margin": (lambda art: art.update(margin_mm=-1),
                        "layout broken.json: margin_mm must be a finite number >= 0"),
    "negative-gutter": (lambda art: art.update(gutter_mm=-1),
                        "layout broken.json: gutter_mm must be a finite number >= 0"),
    "zero-slot-width": (lambda art: art.update(slot_width_mm=0),
                        "layout broken.json: slot_width_mm must be a positive number, got 0.0"),
    "negative-slot-width": (lambda art: art.update(slot_width_mm=-1),
                            "layout broken.json: slot_width_mm must be a positive number, got -1.0"),
    "negative-width": (lambda art: art["placements"][0].update(w=-5),
                       f"layout broken.json malformed: placements[0].w is -5, {PACKED} 66.5"),
    "placement-far-off-the-page": (lambda art: art["placements"][0].update(x=1e300),
                                   f"layout broken.json malformed: placements[0].x is 1e+300, {PACKED} 5.0"),
    "partition-of-no-slice": (lambda art: art["partitions"][0].update(cluster=9),
                              f"layout broken.json malformed: partitions[0].cluster is 9, {PACKED} 1"),
    # each of these makes a broken print, yet holds every rule a layout once had
    "placement-onto-another": (lambda art: art["placements"][1].update(x=art["placements"][0]["x"],
                                                                       y=art["placements"][0]["y"]),
                               f"layout broken.json malformed: placements[1].y is 5.0, {PACKED} 75.5"),
    "placement-at-half-width": (lambda art: art["placements"][0].update(w=art["placements"][0]["w"] / 2),
                                f"layout broken.json malformed: placements[0].w is 33.25, {PACKED} 66.5"),
    "two-slices-swapped": (_swap_slices, f"layout broken.json malformed: placements[0].slice is 4, {PACKED} 1"),
    "rotation-flipped": (lambda art: art["placements"][0].update(rotated=not art["placements"][0]["rotated"]),
                         f"layout broken.json malformed: placements[0].rotated is True, {PACKED} False"),
    "slice-in-another-cluster": (lambda art: art["clusters"].update({"0": 2}),
                                 f"layout broken.json malformed: clusters.0 is 2, {PACKED} 1"),
    # an error raised while the layout is derived names its file
    "margins-leave-no-area": (lambda art: art.update(margin_mm=150),
                              "layout broken.json: margins leave no usable page area"),
    "no-clusters": (lambda art: art.update(clusters={}), f"layout broken.json malformed: clusters.0 is None, {PACKED} 1"),
    # the options are decoded, each to the JSON type that `pack` writes it as
    "sheets-true": (lambda art: art.update(sheets=True),
                    "layout artifact broken.json malformed: TypeError: expected a JSON integer, got bool"),
    "sheets-fraction": (lambda art: art.update(sheets=1.5),
                        "layout artifact broken.json malformed: TypeError: expected a JSON integer, got float"),
    "scale-string": (lambda art: art.update(scale="0.7"),
                     "layout artifact broken.json malformed: TypeError: expected a JSON number, got str"),
    "one-page-side": (lambda art: art.update(page_size_mm=[210]),
                      "layout artifact broken.json malformed: ValueError: expected 2 items, got 1"),
    "no-scale": (lambda art: art.pop("scale"), "layout artifact broken.json malformed: KeyError: 'scale'"),
    # a slot width at which `pack` never searches the artifact's scale
    "slot-width-too-narrow": (lambda art: art.update(slot_width_mm=1e-300),
                              "layout broken.json malformed: scale 8.3125 is outside [5e+299, inf), "
                              "the scales `pack` searches at slot_width_mm 1e-300"),
    "slot-width-too-wide": (lambda art: art.update(slot_width_mm=1e308),
                            "layout broken.json malformed: scale 8.3125 is outside [5e-309, 9.22337e-290), "
                            "the scales `pack` searches at slot_width_mm 1e+308"),
}


@pytest.mark.parametrize("case", BROKEN_LAYOUTS)
def test_layout_that_breaks_its_own_rules_exits_2(case, two_runs, capsys, tmp_path):
    edit, message = BROKEN_LAYOUTS[case]
    art = json.loads((tmp_path / "layout2.json").read_text())
    edit(art)
    (tmp_path / "broken.json").write_text(json.dumps(art))
    code, err = run(_with_input("export", two_runs, "--in", "broken.json"), capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a value that == takes for the one a command derives, but of another JSON
# type: each case is the artifact of the level 2 run, its edit, the commands
# that read it with the flag that names it, and the message
OTHER_JSON_TYPE = {
    "plan-id-true": ("plan2.json", lambda art: art["slice_order"].__setitem__(0, True), "--plan", ("pack", "export"),
                     f"plan broken.json malformed: slice_order[0] is True, {GIVE} 1"),
    "plan-id-float": ("plan2.json", lambda art: art["hinge_order"].__setitem__(0, 4.0), "--plan", ("pack", "export"),
                      f"plan broken.json malformed: hinge_order[0] is 4.0, {GIVE} 4"),
    "plan-exact-one": ("plan2.json", lambda art: art.update(exact=1), "--plan", ("pack", "export"),
                       f"plan broken.json malformed: exact is 1, {GIVE} True"),
    "layout-rotated-zero": ("layout2.json", lambda art: art["placements"][0].update(rotated=0), "--in", ("export",),
                            f"layout broken.json malformed: placements[0].rotated is 0, {PACKED} False"),
    "layout-x-integer": ("layout2.json", lambda art: art["placements"][0].update(x=5), "--in", ("export",),
                         f"layout broken.json malformed: placements[0].x is 5, {PACKED} 5.0"),
    "hinges-u-float": ("hinges2.json", lambda art: art["hinges"][4].update(u_a=4.0), "--in", ("order", "pack"),
                       "hinges broken.json malformed: hinges[4].u_a is 4.0, but its slices give 4"),
}


@pytest.mark.parametrize("case", OTHER_JSON_TYPE)
def test_value_of_another_json_type_exits_2(case, two_runs, capsys, tmp_path):
    # Python's == takes true and 1.0 for 1, but no file the commands write holds them so
    source, edit, flag, commands, message = OTHER_JSON_TYPE[case]
    art = json.loads((tmp_path / source).read_text())
    edit(art)
    (tmp_path / "broken.json").write_text(json.dumps(art))
    for command in commands:
        code, err = run(_with_input(command, two_runs, flag, "broken.json"), capsys)
        assert code == 2, command
        assert message in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.json").exists()


# every numeric option of `build` and the two it parses from a string, by config key
KEYS = ("resolution", "level", "sheets", "slot_width", "dpi", "k_max", "margin", "gutter",
        "page", "orientations")
POOL = (-1, 0, math.nan, math.inf, 1e308, "x", "nanxnan", "x,x")


@pytest.fixture(scope="module")
def volume16(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("volume16")
    raw, header, tf = write_volume_files(tmp, *checkerboard_volume(16))
    return tmp, ["build", "--input", str(raw), "--header", str(header), "--tf", str(tf)]


@settings(max_examples=60, deadline=None)
@given(
    options=st.dictionaries(
        st.sampled_from(KEYS), st.tuples(st.sampled_from(("flag", "config")), st.sampled_from(POOL))
    ),
    config_path=st.one_of(st.none(), st.sampled_from(POOL)),
)
def test_any_bad_option_value_exits_with_a_code(volume16, options, config_path):
    # values from the pool go in as flags or as --config keys, and the pool
    # also names the config file itself; main returns a code and never raises
    tmp, argv = volume16
    work = Path(tempfile.mkdtemp(dir=tmp))
    argv = argv + ["--out", str(work / "out")]
    config = {}
    for key, (channel, value) in options.items():
        if channel == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            config[key] = value
    if config_path is None:
        (work / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(work / "cfg.json")]
    else:
        argv += ["--config", str(work / str(config_path))]  # no such file
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("key", ["slot_width", "dpi", "margin", "gutter"])
def test_integer_too_large_for_a_float_rejected(key, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: 10**400}))
    code, err = run(COMMANDS["build"] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert f"--{key.replace('_', '-')} must be a" in err


def test_flag_equal_to_its_default_beats_the_config_key(volume_build, capsys, tmp_path):
    # --level 3 and --sheets 1 are the defaults; the config file asks for 2 and 2
    (tmp_path / "cfg.json").write_text(json.dumps({"level": 2, "sheets": 2}))
    argv = volume_build[:-2]
    assert run([*argv, "--out", "config"], capsys)[0] == 0
    assert run([*argv, "--level", "3", "--sheets", "1", "--out", "flags"], capsys)[0] == 0
    (tmp_path / "cfg.json").write_text("{}")
    assert run([*argv, "--level", "3", "--sheets", "1", "--out", "plain"], capsys)[0] == 0
    flags, plain = ((tmp_path / d / "manifest.json").read_bytes() for d in ("flags", "plain"))
    assert flags == plain
    assert (tmp_path / "config" / "manifest.json").read_bytes() != flags


@pytest.mark.parametrize("command", ["build", "pack"])
@pytest.mark.parametrize("page", ["nanxnan", "infx300", "0x300", "300x-1", "1e400x300", "A5", "300"])
def test_page_that_is_no_finite_positive_size_rejected(command, page, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS[command] + ["--page", page], capsys)
    assert code == 2
    assert f"argument --page: page must be A4, A3, or WxH in mm, both finite and > 0, got {page!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("page", "nanxnan"), ("orientations", "x,x")])
def test_config_string_goes_through_the_flag_converter(key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flag_code, flag_err = run(COMMANDS["build"] + [f"--{key}", value], capsys)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    code, err = run(COMMANDS["build"] + ["--config", "cfg.json"], capsys)
    assert code == flag_code == 2
    assert f"argument --{key}: " in err
    assert err.splitlines()[-1] == flag_err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "export"])
@pytest.mark.parametrize("channel", ["flag", "config"])
def test_dpi_above_its_bound_rejected(command, channel, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"dpi": 1e300}))
    options = ["--dpi", "1e300"] if channel == "flag" else ["--config", "cfg.json"]
    code, err = run(COMMANDS[command] + options, capsys)
    assert code == 2
    assert f"--dpi must be a positive number of pixels per mm, at most {cli.MAX_PX_PER_MM:g}" in err
    assert "Traceback" not in err


def test_dpi_at_its_bound_passes_validation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS["build"] + ["--dpi", str(cli.MAX_PX_PER_MM)], capsys)
    assert code == 4
    assert "must be" not in err


def test_gutter_that_fits_no_page_exits_3(volume_build, capsys):
    code, err = run(volume_build + ["--gutter", "1e308"], capsys)
    assert code == 3
    assert "hint: try a larger page or a wider --slot-width" in err
    assert "Traceback" not in err


def subparsers(only: str | None = None) -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser(only)
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_options_shared_by_commands_agree():
    # --in and --out name each command's own artifacts, so their help differs
    seen = {}
    for command, parser in subparsers().items():
        for action in parser._actions:
            if action.dest in ("help", "inp", "out"):
                continue
            spec = (tuple(action.option_strings), action.default, action.type, action.help, action.nargs, action.required)
            seen.setdefault(action.dest, {})[command] = spec
    shared = {dest: specs for dest, specs in seen.items() if len(specs) > 1}
    assert {"page", "slot_width", "dpi", "level", "orientations", "config"} <= shared.keys()
    for dest, specs in shared.items():
        assert len(set(specs.values())) == 1, (dest, specs)


@pytest.mark.parametrize("command", ["build", "slice", "hinge", "order", "pack", "export"])
def test_one_command_parser_takes_the_options_of_the_full_parser(command):
    # `main` builds only the parser of the command it runs
    def options(parser):
        return [(a.option_strings, a.dest, a.default, a.type, a.nargs, a.required, a.help) for a in parser._actions]

    one = subparsers(command)
    assert list(one) == [command]
    assert options(one[command]) == options(subparsers()[command])
    assert cli.build_parser(command).format_usage() == cli.build_parser().format_usage()


def args_read(command: str) -> set[str]:
    """The `args.<name>` reads in cli.py that `main` and `cmd_<command>` make,
    themselves or through the functions of cli.py that they name."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo, seen, read = ["main", f"cmd_{command}"], set(), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                read.add(node.attr)
            elif isinstance(node, ast.Name):
                todo.append(node.id)
    return read


def test_each_command_takes_only_the_options_it_reads():
    # an option a command accepts but never reads is ignored without a word
    parsers = subparsers()
    dests = {command: {a.dest for a in p._actions} - {"help"} for command, p in parsers.items()}
    every = set().union(*dests.values())
    for command in parsers:
        assert dests[command] == args_read(command) & every, command


# the flags of each command but --help: adding or removing an option edits this
COMMAND_FLAGS = {
    "build": {"--config", "--dpi", "--gutter", "--header", "--input", "--level", "--margin", "--meshes",
              "--orientations", "--out", "--page", "--perforate", "--resolution", "--sheets", "--slot-width", "--tf"},
    "slice": {"--config", "--header", "--input", "--level", "--meshes", "--orientations", "--out", "--resolution",
              "--tf"},
    "hinge": {"--config", "--in", "--out"},
    "order": {"--config", "--in", "--out"},
    "pack": {"--config", "--gutter", "--in", "--margin", "--out", "--page", "--plan", "--sheets", "--slot-width"},
    "export": {"--config", "--dpi", "--header", "--hinges", "--in", "--input", "--meshes", "--out", "--perforate",
               "--plan", "--resolution", "--tf"},
}


def test_each_command_takes_these_flags():
    flags = {command: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
             for command, parser in subparsers().items()}
    assert flags == COMMAND_FLAGS


@pytest.mark.parametrize("command", ["build", "slice", "hinge", "order", "pack", "export"])
def test_help_exits_0(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: sliceforge {command}")


def test_config_integer_of_too_many_digits_rejected(capsys, tmp_path, monkeypatch):
    # json.loads raises ValueError, not JSONDecodeError, past int()'s digit limit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"sheets": ' + "1" * 5000 + "}")
    code, err = run(COMMANDS["build"] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert "config file cfg.json is not valid JSON" in err
    assert "Traceback" not in err


def test_artifact_into_a_missing_directory_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw, header, tf = write_volume_files(tmp_path, *checkerboard_volume(8))
    code, err = run(["slice", "--input", str(raw), "--header", str(header), "--tf", str(tf),
                     "--level", "2", "--out", "nodir/slices.json"], capsys)
    assert code == 4
    assert "cannot write artifact nodir/slices.json" in err
    assert "Traceback" not in err


def test_artifact_that_is_a_directory_exits_4(two_runs, capsys, tmp_path):
    (tmp_path / "adir").mkdir()
    code, err = run(["hinge", "--in", "adir", "--out", "hinges.json"], capsys)
    assert code == 4
    assert "cannot read artifact adir" in err
    assert "Traceback" not in err
    assert not (tmp_path / "hinges.json").exists()


def test_artifact_that_is_not_utf8_exits_2(two_runs, capsys, tmp_path):
    # every artifact flag of every command, also with an integer of more digits than int() takes
    for text in (b"\xff\xfe\x00{", NOT_UTF8, TOO_MANY_DIGITS.encode()):
        (tmp_path / "binary.json").write_bytes(text)
        for flag, command in ARTIFACT_CASES:
            code, err = run(_with_input(command, two_runs, flag, "binary.json"), capsys)
            assert code == 2, (flag, command, text[:20])
            assert "artifact binary.json is not valid JSON" in err
            assert "Traceback" not in err


def test_malformed_artifact_field_exits_2_naming_the_file(two_runs, capsys, tmp_path):
    # every artifact flag of every command, each top-level field broken in turn
    for flag, command in ARTIFACT_CASES:
        source = {"--plan": "plan2.json", "--hinges": "hinges2.json"}.get(flag) or {
            "hinge": "slices2.json", "export": "layout2.json"}.get(command, "hinges2.json")
        good = json.loads((tmp_path / source).read_text())
        argv = _with_input(command, two_runs, flag, "broken.json")
        for key in good:
            (tmp_path / "broken.json").write_text(json.dumps({**good, key: "x"}))
            code, err = run(argv, capsys)
            assert code == 2, (flag, command, key)
            assert "broken.json malformed: " in err, (flag, command, key)
            assert "Traceback" not in err


# an artifact whose parts do not refer to each other as one run writes them,
# or whose grid no volume has: each case is an edit and the message it draws
MALFORMED = "hinges broken.json malformed:"
BROKEN_ARTIFACTS = {
    "unknown-slice-a": (lambda art: art["hinges"][0].update(slice_a=99999),
                        f"{MALFORMED} hinges[0].slice_a is 99999, but its slices give 0"),
    "unknown-slice-b": (lambda art: art["hinges"][-1].update(slice_b=99999),
                        f"{MALFORMED} hinges[8].slice_b is 99999, but its slices give 5"),
    "repeated-slice-id": (lambda art: art["slices"][1].update(id=art["slices"][0]["id"]),
                          "broken.json hold the ids [0] more than once"),
    "zero-dims": (lambda art: art["grid"].update(dims=[0, 0, 0]),
                  "broken.json: dims must be three integers >= 1, got (0, 0, 0)"),
    "dims-too-large-for-a-float": (lambda art: art["grid"].update(dims=[8, 10**400, 8]),
                                   "broken.json: dims must each be at most 1.79769e+308, got (8, 1000"),
    "negative-spacing": (lambda art: art["grid"].update(spacing_mm=[-1.0, 1.0, 1.0]),
                         "broken.json: spacing must be three finite numbers > 0, got (-1.0, 1.0, 1.0)"),
    # each hinge is the one its slices give, which joins an x slice (slice_a) to a
    # y slice (slice_b): not a slice to itself, not two of one family, not the two
    # families swapped, and holds its id once
    "hinge-joins-itself": (lambda art: art["hinges"][0].update(slice_b=art["hinges"][0]["slice_a"]),
                           f"{MALFORMED} hinges[0].slice_b is 0, but its slices give 3"),
    "hinge-joins-one-family": (lambda art: art["hinges"][1].update(slice_b=1),
                               f"{MALFORMED} hinges[1].slice_b is 1, but its slices give 4"),
    "hinge-swaps-families": (lambda art: art["hinges"][-1].update(slice_a=art["hinges"][-1]["slice_b"],
                                                                  slice_b=art["hinges"][-1]["slice_a"]),
                             f"{MALFORMED} hinges[8].slice_a is 5, but its slices give 2"),
    "repeated-hinge-id": (lambda art: art["hinges"][1].update(id=art["hinges"][0]["id"]),
                          f"{MALFORMED} hinges[1].id is 0, but its slices give 1"),
    # a grid slices along two distinct axes of x, y and z, and its slices lie
    # inside it; so do the hinges its slices give
    "grid-repeats-an-axis": (lambda art: art["grid"].update(orientations=["x", "x"]),
                             "grid broken.json: orientations must be two distinct axes, got ('x', 'x')"),
    "grid-unknown-axis": (lambda art: art["grid"].update(orientations=["x", "q"]),
                          "grid broken.json: orientations must be two distinct axes, got ('x', 'q')"),
    "slice-unknown-orientation": (lambda art: art["slices"].append({**art["slices"][0], "id": 6, "orientation": "q"}),
                                  "slices broken.json: slice 6 has orientation 'q', not one of the grid's ('x', 'y')"),
    "slice-plane-outside": (lambda art: art["slices"][0].update(plane_coord=10**400),
                            f"slice 0 on plane {10**400} with extent (0, 0, 8, 8) is empty or leaves the (8, 8, 8) grid"),
    "slice-extent-empty": (lambda art: art["slices"][1].update(extent=[3, 0, 3, 8]),
                           "slice 1 on plane 4 with extent (3, 0, 3, 8) is empty or leaves the (8, 8, 8) grid"),
    "slice-extent-outside": (lambda art: art["slices"][2].update(extent=[0, 0, 8, 9]),
                             "slice 2 on plane 6 with extent (0, 0, 8, 9) is empty or leaves the (8, 8, 8) grid"),
    "hinge-interval-reversed": (lambda art: art["hinges"][0].update(v0=8, v1=0),
                                f"{MALFORMED} hinges[0].v0 is 8, but its slices give 0"),
    "hinge-interval-outside": (lambda art: art["hinges"][1].update(v1=10**400),
                               f"{MALFORMED} hinges[1].v1 is {str(10**400)[:80]}, but its slices give 8"),
}
# every command that reads a hinges artifact, and `hinge`, which reads the slices
BROKEN_CASES = [
    *[(case, command) for case in BROKEN_ARTIFACTS for command in ("order", "pack", "export")],
    ("repeated-slice-id", "hinge"), ("zero-dims", "hinge"), ("dims-too-large-for-a-float", "hinge"),
    ("grid-repeats-an-axis", "hinge"), ("grid-unknown-axis", "hinge"), ("slice-unknown-orientation", "hinge"),
    ("slice-plane-outside", "hinge"), ("slice-extent-empty", "hinge"), ("slice-extent-outside", "hinge"),
]


@pytest.mark.parametrize("case,command", BROKEN_CASES, ids=[f"{case}-{command}" for case, command in BROKEN_CASES])
def test_artifact_with_broken_references_exits_2(case, command, two_runs, capsys, tmp_path):
    edit, message = BROKEN_ARTIFACTS[case]
    art = json.loads((tmp_path / ("slices2.json" if command == "hinge" else "hinges2.json")).read_text())
    edit(art)
    (tmp_path / "broken.json").write_text(json.dumps(art))
    flag = "--hinges" if command == "export" else "--in"
    code, err = run(_with_input(command, two_runs, flag, "broken.json"), capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()


# hinge 4 of the level 2 run is up-down, from x slice 1 to y slice 4 at u 4 on
# both, over [0, 8) with no stopper: each edit gives one of its keys another
# value of the same JSON kind, and each other case edits the list
HINGE_EDITS = {"id": 9, "slice_a": 2, "slice_b": 5, "u_a": 5, "u_b": 5, "v0": 1, "v1": 7,
               "kind": "cut_through", "slot_a": "window", "slot_b": "none", "stopper_on": 1}


def _tampered(hinges: list[dict], case: str) -> None:
    if case in HINGE_EDITS:
        hinges[4][case] = HINGE_EDITS[case]
    elif case == "dropped":
        del hinges[4]
    elif case == "duplicated":
        hinges.append(dict(hinges[4]))
    else:  # swapped
        hinges[3], hinges[4] = hinges[4], hinges[3]


@pytest.mark.parametrize("command", ["order", "pack", "export"])
@pytest.mark.parametrize("case", [*HINGE_EDITS, "dropped", "duplicated", "swapped"])
def test_hinges_that_its_slices_do_not_give_exit_2(case, command, two_runs, capsys, tmp_path):
    # a hinges artifact holds exactly the hinges of its slices, in their order
    art = json.loads((tmp_path / "hinges2.json").read_text())
    _tampered(art["hinges"], case)
    (tmp_path / "broken.json").write_text(json.dumps(art))
    code, err = run(_with_input(command, two_runs, "--hinges" if command == "export" else "--in", "broken.json"), capsys)
    assert code == 2
    assert "hinges broken.json malformed:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()


# slice 0 of the level 2 run lies on x plane 2 with extent (0, 0, 8, 8); each
# case gives it that extent and adds slice 6 on its plane, and says whether
# the two meet: overlap, or share an edge of positive length
COPLANAR = {
    "copy-one-voxel-narrower": ((0, 0, 8, 8), (0, 0, 7, 8), True),
    "shared-u-edge": ((0, 0, 4, 8), (4, 0, 8, 8), True),
    "shared-v-edge": ((0, 0, 8, 4), (0, 4, 8, 8), True),
    "partly-shared-edge": ((0, 0, 4, 5), (4, 3, 8, 8), True),
    "corner-only": ((0, 0, 4, 4), (4, 4, 8, 8), False),
    "apart": ((0, 0, 3, 8), (5, 0, 8, 8), False),
}


def _with_coplanar_slice(art: dict, case: str) -> dict:
    extent, added, _meet = COPLANAR[case]
    art["slices"][0]["extent"] = list(extent)
    art["slices"].append({**art["slices"][0], "id": 6, "extent": list(added)})
    return art


@pytest.mark.parametrize("command", ["hinge", "order", "pack", "export"])
@pytest.mark.parametrize("case", [case for case, (*_, meet) in COPLANAR.items() if meet])
def test_coplanar_slices_that_meet_exit_2(case, command, two_runs, capsys, tmp_path):
    # unified slices never meet, so an artifact whose slices do was not
    # written by `slice`; its hinges would double every crossing of the pair
    source = "slices2.json" if command == "hinge" else "hinges2.json"
    art = _with_coplanar_slice(json.loads((tmp_path / source).read_text()), case)
    (tmp_path / "broken.json").write_text(json.dumps(art))
    code, err = run(_with_input(command, two_runs, "--hinges" if command == "export" else "--in", "broken.json"), capsys)
    assert code == 2
    assert "slices broken.json: slices 0 and 6 on x plane 2 overlap or share an edge" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", [case for case, (*_, meet) in COPLANAR.items() if not meet])
def test_coplanar_slices_that_only_touch_at_a_corner_or_not_at_all_pass(case, two_runs, capsys, tmp_path):
    art = _with_coplanar_slice(json.loads((tmp_path / "slices2.json").read_text()), case)
    (tmp_path / "apart.json").write_text(json.dumps(art))
    assert run(["hinge", "--in", "apart.json", "--out", "out.json"], capsys)[0] == 0


def _volume_command(command: str, inputs: list[str], out: str) -> list[str]:
    """`command` on the level 2 artifacts of `two_runs` and the volume `inputs`."""
    if command == "export":
        return ["export", *inputs, "--in", "layout2.json", "--hinges", "hinges2.json", "--plan", "plan2.json",
                "--out", out]
    return [command, *inputs, "--level", "2", "--out", out]


# an integer too large for a float in a float field of each kind of JSON
# input: the file, its edit, the command that reads it and what it calls the file
HUGE = 10**400
HUGE_INPUTS = {
    "header": ("vol.json", lambda obj: obj.update(spacing_mm=[HUGE, 1, 1]), "build", "header"),
    "transfer-function": ("vol_tf.json", lambda obj: obj["bins"][-1].update(hi=-HUGE), "build", "transfer function"),
    "slices-artifact": ("slices2.json", lambda obj: obj["grid"].update(origin_mm=[0, HUGE, 0]), "hinge", "grid"),
    "hinges-artifact": ("hinges2.json", lambda obj: obj["grid"].update(spacing_mm=[1, 1, -HUGE]), "order", "grid"),
    "layout-options": ("layout2.json", lambda obj: obj.update(margin_mm=HUGE), "export", "layout artifact"),
}


@pytest.mark.parametrize("case", HUGE_INPUTS)
def test_integer_too_large_for_a_float_in_an_input_file_exits_2(case, two_runs, capsys, tmp_path):
    name, edit, command, what = HUGE_INPUTS[case]
    obj = json.loads((tmp_path / name).read_text())
    edit(obj)
    (tmp_path / name).write_text(json.dumps(obj))
    out = "out" if command in ("build", "export") else "out.json"
    code, err = run(_with_input(command, two_runs, "--out", out), capsys)
    assert code == 2
    assert re.search(rf"{what} \S*{re.escape(name)} malformed: OverflowError: int too large to convert to float", err)
    assert "Traceback" not in err
    assert not (tmp_path / out).exists()


# every file the CLI reads: what its messages call it, by flag; and the
# commands that read it, as (flag, command)
INPUT_FILES = {
    "--input": "volume", "--header": "header", "--tf": "transfer function", "--meshes": "mesh file",
    "--config": "config file", "--in": "artifact", "--plan": "artifact", "--hinges": "artifact",
}
VOLUME_COMMANDS = ("build", "slice", "export")
INPUT_CASES = [
    *[(flag, command) for flag in ("--input", "--header", "--tf", "--meshes", "--config") for command in VOLUME_COMMANDS],
    ("--config", "hinge"), ("--config", "order"), ("--config", "pack"),
]
ARTIFACT_CASES = [
    ("--in", "hinge"), ("--in", "order"), ("--in", "pack"), ("--plan", "pack"),
    ("--in", "export"), ("--hinges", "export"), ("--plan", "export"),
]


def _with_input(command: str, inputs: list[str], flag: str, value: str) -> list[str]:
    """`command` on the level 2 files of `two_runs`, with `flag` naming `value`."""
    out = "out" if command in ("build", "export") else "out.json"
    argv = {
        "hinge": ["hinge", "--in", "slices2.json", "--out", out],
        "order": ["order", "--in", "hinges2.json", "--out", out],
        "pack": ["pack", "--in", "hinges2.json", "--plan", "plan2.json", "--out", out],
    }.get(command) or _volume_command(command, inputs, out)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:  # --meshes (which take the place of the volume) and --config
        argv += [flag, value]
    if flag == "--meshes":  # a volume as well would be refused before any mesh is read
        argv = [a for a in argv if a not in inputs[:4]]
    return argv


@pytest.mark.parametrize("flag,command", INPUT_CASES + ARTIFACT_CASES,
                         ids=[f"{flag[2:]}-{command}" for flag, command in INPUT_CASES + ARTIFACT_CASES])
def test_input_file_that_is_a_directory_exits_4(flag, command, two_runs, capsys, tmp_path):
    # a missing file exits 4 too
    (tmp_path / "adir").mkdir()
    what = INPUT_FILES[flag]
    for value, message in (("adir", f"cannot read {what} adir: Is a directory"),
                           ("missing", f"{what} not found: missing")):
        code, err = run(_with_input(command, two_runs, flag, value), capsys)
        assert code == 4
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["build", "export"])
@pytest.mark.parametrize("blocker,message", [
    pytest.param("afile", "cannot make output directory afile/pages: Not a directory", id="out"),
    pytest.param("afile/manifest.json", "cannot write manifest afile/manifest.json: Is a directory", id="manifest"),
    pytest.param("afile/pages/page-1.svg", "cannot write page afile/pages/page-1.svg: Is a directory", id="page"),
])
def test_output_path_in_the_way_exits_4(command, blocker, message, two_runs, capsys, tmp_path):
    # a regular file named by --out, or a directory where an output file goes
    if blocker == "afile":
        (tmp_path / "afile").write_text("kept")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    code, err = run(_volume_command(command, two_runs, "afile"), capsys)
    assert code == 4
    assert message in err
    assert "Traceback" not in err
    if blocker == "afile":
        assert (tmp_path / "afile").read_text() == "kept"


def test_resolution_over_the_voxel_budget_exits_2(capsys, tmp_path, monkeypatch):
    # 100 000^3 voxels would need a grid of petabytes; the budget stops the
    # build before any grid is allocated
    monkeypatch.chdir(tmp_path)
    save_obj(icosphere(radius=0.7, subdivisions=1), tmp_path / "sphere0.obj")
    code, err = run(["build", "--meshes", "sphere0.obj", "--resolution", "100000", "--out", "out"], capsys)
    assert code == 2
    assert (f"a 100000x100000x100000 grid holds 1,000,000,000,000,000 voxels, more than the "
            f"{mesh.MAX_GRID_VOXELS:,} a voxelization holds") in err
    assert "hint: lower --resolution" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the budget is inclusive: a grid of exactly MAX_GRID_VOXELS voxels builds
    monkeypatch.setattr(mesh, "MAX_GRID_VOXELS", 16**3)
    assert run(["build", "--meshes", "sphere0.obj", "--resolution", "17", "--out", "out"], capsys)[0] == 2
    assert run(["build", "--meshes", "sphere0.obj", "--resolution", "16", "--level", "2", "--out", "out"], capsys)[0] == 0


@pytest.mark.parametrize("command", ["build", "export"])
def test_rasters_over_the_pixel_budget_exit_2_before_rendering(command, two_runs, capsys, tmp_path):
    # 100 px/mm passes the --dpi bound, but these layouts of the checkerboard
    # slices would need more raster pixels than one export holds
    if command == "build":
        argv = ["build", *two_runs, "--level", "2", "--page", "A3"]
    else:
        argv = ["export", *two_runs, "--in", "layout3.json", "--hinges", "hinges3.json", "--plan", "plan3.json"]
    with mock.patch.object(pipeline, "rasterize_slice", side_effect=AssertionError("rendered")) as render:
        code, err = run(argv + ["--dpi", "100", "--out", "out"], capsys)
    assert code == 2
    assert re.search(rf"would render to [\d,]+ raster pixels at 100 px/mm, more than the {MAX_RASTER_PIXELS:,}", err)
    assert "hint: lower --dpi" in err
    assert "Traceback" not in err
    render.assert_not_called()
    assert not (tmp_path / "out").exists()
    assert run(argv + ["--dpi", "12", "--out", "out"], capsys)[0] == 0


def test_meshes_with_a_volume_input_exit_2(capsys, tmp_path, monkeypatch):
    # neither named volume file exists: the two kinds of input exclude each other
    monkeypatch.chdir(tmp_path)
    save_obj(icosphere(radius=0.7, subdivisions=1), tmp_path / "sphere0.obj")
    code, err = run(["build", "--meshes", "sphere0.obj", "--resolution", "16", "--level", "2",
                     "--input", "x", "--header", "y", "--out", "out"], capsys)
    assert code == 2
    assert "--meshes excludes --input and --header" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_meshes_with_a_volume_input_exit_2_before_any_mesh_is_read(capsys, tmp_path, monkeypatch):
    # the flags alone conflict, so no mesh file is opened, let alone parsed
    monkeypatch.chdir(tmp_path)
    save_obj(icosphere(radius=0.7, subdivisions=1), tmp_path / "sphere0.obj")
    with mock.patch.object(pipeline, "load_obj", wraps=pipeline.load_obj) as load_obj:
        for mesh_file in ("missing.obj", "sphere0.obj"):
            code, err = run(["build", "--meshes", mesh_file, "--input", "v.raw", "--header", "h.json", "--out", "out"],
                            capsys)
            assert code == 2
            assert "--meshes excludes --input and --header" in err
            assert "Traceback" not in err
    load_obj.assert_not_called()
    assert not (tmp_path / "out").exists()


def test_resolution_flag_on_a_volume_build_exits_2(volume_build, capsys, tmp_path):
    # a volume keeps its own grid; the flag used to be ignored without a word
    code, err = run([*volume_build, "--resolution", "5"], capsys)
    assert code == 2
    assert "--resolution 5 voxelizes meshes; a volume keeps its own grid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_resolution_config_key_on_a_volume_build_exits_2(volume_build, capsys, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"resolution": 5}))
    code, err = run(volume_build, capsys)
    assert code == 2
    assert "--resolution 5 voxelizes meshes; a volume keeps its own grid" in err
    assert not (tmp_path / "out").exists()


def test_mesh_build_without_resolution_takes_the_default(capsys, tmp_path):
    save_obj(icosphere(radius=0.7, subdivisions=1), tmp_path / "sphere0.obj")
    volume, _tf = pipeline.load_input(None, None, None, [str(tmp_path / "sphere0.obj")], None)
    assert volume.dims == (pipeline.DEFAULT_RESOLUTION,) * 3 == (128,) * 3
    assert cli.main(["build", "--help"]) == 0
    assert re.search(r"\(default\s+128\)", capsys.readouterr().out)
