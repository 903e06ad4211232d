"""Command-line validation: bad values exit 2 with a message, never a traceback."""

import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sliceforge import cli, pipeline
from sliceforge.render import MAX_RASTER_PIXELS
from sliceforge.synth import checkerboard_volume

from helpers import write_volume_files

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
    return ["build", "--input", str(raw), "--header", str(header), "--tf", str(tf),
            "--level", "2", "--config", "cfg.json", "--out", "out"]


def test_volume_build_succeeds(volume_build, capsys):
    assert run(volume_build, capsys)[0] == 0


BAD_BIN = {"bins": [{"lo": "abc", "hi": 1.0, "rgb": [1, 0, 0], "opacity": 0.5}]}


@pytest.mark.parametrize("name,text,message", [
    ("vol_tf.json", json.dumps(BAD_BIN), "transfer function malformed"),
    ("vol_tf.json", "{bins: ", "transfer function is not valid JSON"),
    ("cfg.json", json.dumps({"sheets": "2"}), "--sheets must be an integer"),
])
def test_malformed_input_exits_2_with_a_message(volume_build, name, text, message, capsys, tmp_path):
    (tmp_path / name).write_text(text)
    code, err = run(volume_build, capsys)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    ("spacing_mm", [math.nan, 1, 1], "spacing must be three finite numbers > 0"),
    ("spacing_mm", [math.inf, 1, 1], "spacing must be three finite numbers > 0"),
    ("spacing_mm", [1, 1], "header malformed: ValueError: expected 3 items"),
    ("dtype", ["f32"], "header malformed: TypeError: expected a JSON string"),
    ("dims", "888", "header malformed: TypeError: expected a JSON array"),
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


# --margin and --gutter measure paper, --seed starts a random generator
RANGE_CASES = [
    ("build", "margin"), ("build", "gutter"), ("build", "seed"),
    ("pack", "margin"), ("pack", "gutter"), ("pack", "seed"), ("export", "seed"),
]
RANGE_MESSAGES = {"margin": "a finite number >= 0", "gutter": "a finite number >= 0", "seed": "an integer >= 0"}


@pytest.mark.parametrize("command,key", RANGE_CASES)
@pytest.mark.parametrize("value", ["-20", "-1", "nan", "inf"])
def test_out_of_range_flag_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS[command] + [f"--{key}", value], capsys)
    assert code == 2
    assert "Traceback" not in err
    if not (key == "seed" and value in ("nan", "inf")):  # argparse itself refuses a non-integer seed
        assert f"--{key} must be {RANGE_MESSAGES[key]}" in err


@pytest.mark.parametrize("command,key", RANGE_CASES)
@pytest.mark.parametrize("value", [-1, -0.5, float("nan"), float("inf"), "1", None, True])
def test_out_of_range_config_value_rejected(command, key, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    code, err = run(COMMANDS[command] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert f"--{key} must be {RANGE_MESSAGES[key]}" in err


def test_zero_margin_gutter_and_seed_pass_validation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(COMMANDS["build"] + ["--margin", "0", "--gutter", "0", "--seed", "0"], capsys)
    assert code == 4
    assert "must be" not in err


@pytest.fixture
def two_runs(tmp_path, monkeypatch):
    """The staged artifacts of a level 2 and a level 3 run of one volume,
    which slice it differently; returns the volume's input flags."""
    monkeypatch.chdir(tmp_path)
    raw, header, tf = write_volume_files(tmp_path, *checkerboard_volume(8))
    inputs = ["--input", str(raw), "--header", str(header), "--tf", str(tf)]
    for level in ("2", "3"):
        for argv in (
            ["slice", *inputs, "--level", level, "--out", f"slices{level}.json"],
            ["hinge", "--in", f"slices{level}.json", "--out", f"hinges{level}.json"],
            ["order", "--in", f"hinges{level}.json", "--out", f"plan{level}.json"],
            ["pack", "--in", f"hinges{level}.json", "--plan", f"plan{level}.json", "--out", f"layout{level}.json"],
        ):
            assert cli.main(argv) == 0
    return inputs


def test_export_rejects_artifacts_of_another_slice_set(two_runs, capsys):
    inputs = two_runs

    def export(layout, hinges, plan):
        return run(["export", *inputs, "--in", layout, "--hinges", hinges, "--plan", plan, "--out", "out"], capsys)

    code, err = export("layout3.json", "hinges2.json", "plan2.json")
    assert code == 2
    assert "layout layout3.json does not place exactly the slices of hinges2.json" in err
    code, err = export("layout2.json", "hinges2.json", "plan3.json")
    assert code == 2
    assert "plan plan3.json does not order exactly the hinges of hinges2.json" in err
    assert "Traceback" not in err
    assert export("layout2.json", "hinges2.json", "plan2.json")[0] == 0


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
    assert f"plan {plan} does not order exactly the hinges of {hinges}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "layout.json").exists()


# every numeric option of `build` and the two it parses from a string, by config key
KEYS = ("resolution", "seed", "level", "sheets", "slot_width", "dpi", "k_max", "margin", "gutter",
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


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
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
    assert {"page", "slot_width", "dpi", "level", "orientations", "seed", "config"} <= shared.keys()
    for dest, specs in shared.items():
        assert len(set(specs.values())) == 1, (dest, specs)


@pytest.mark.parametrize("command", ["build", "slice", "hinge", "order", "pack", "export"])
def test_help_exits_0(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: sliceforge {command}")


def test_config_integer_of_too_many_digits_rejected(capsys, tmp_path, monkeypatch):
    # json.loads raises ValueError, not JSONDecodeError, past int()'s digit limit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"seed": ' + "1" * 5000 + "}")
    code, err = run(COMMANDS["build"] + ["--config", "cfg.json"], capsys)
    assert code == 2
    assert "config file is not valid JSON" in err
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
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00{")
    code, err = run(["hinge", "--in", "binary.json", "--out", "hinges.json"], capsys)
    assert code == 2
    assert "artifact binary.json is not valid JSON" in err
    assert "Traceback" not in err


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
