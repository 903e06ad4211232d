"""Command-line validation: bad values exit 2 with a message, never a traceback."""

import json

import pytest

from sliceforge import cli
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
