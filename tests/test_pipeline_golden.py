"""Byte-level guards on the output of the whole pipeline.

`build` must write exactly the files that slice -> hinge -> order -> pack ->
export write with the same options, and every file it writes must match
its committed golden file. A rerun into the same directory leaves only the
pages its manifest lists. The fixture is the nested spheres (two icosphere
subdivisions) voxelized at 32^3, octree level 3, on two A4 sheets.

After an intended change of the output, rewrite the golden files with
`PYTHONPATH=src python tests/test_pipeline_golden.py`.
"""

from __future__ import annotations

import base64
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sliceforge import cli, pipeline
from sliceforge.codec import decode, json_text
from sliceforge.mesh import save_obj
from sliceforge.octree import Slice
from sliceforge.synth import nested_spheres
from sliceforge.volume import quantize

from helpers import decode_png, rasterize_slice_reference

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "spheres32_manifest.json"
# build output file -> golden file, besides the manifest
GOLDEN_FILES = {
    "pages/page-1.svg": "spheres32_page-1.svg",
    "pages/page-2.svg": "spheres32_page-2.svg",
    "instructions.svg": "spheres32_instructions.svg",
    "stability.json": "spheres32_stability.json",
}
GRID = ["--resolution", "32"]


def write_meshes(dest: Path) -> list[str]:
    paths = []
    for i, mesh in enumerate(nested_spheres(subdivisions=2).meshes):
        path = dest / f"sphere{i}.obj"
        save_obj(mesh, path)
        paths.append(str(path))
    return paths


def run(argv: list[str]) -> None:
    assert cli.main(argv) == 0, argv


def build(meshes: list[str], out: Path, *options: str) -> None:
    options = options or ("--sheets", "2")
    run(["build", "--meshes", *meshes, *GRID, "--level", "3", *options, "--out", str(out)])


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def meshes(tmp_path_factory):
    return write_meshes(tmp_path_factory.mktemp("meshes"))


@pytest.fixture(scope="module")
def built(meshes, tmp_path_factory):
    out = tmp_path_factory.mktemp("build")
    build(meshes, out)
    return out


def test_build_equals_staged_commands(meshes, built, tmp_path):
    a = {name: tmp_path / f"{name}.json" for name in ("slices", "hinges", "plan", "layout")}
    staged = tmp_path / "print"
    run(["slice", "--meshes", *meshes, *GRID, "--level", "3", "--out", str(a["slices"])])
    run(["hinge", "--in", str(a["slices"]), "--out", str(a["hinges"])])
    run(["order", "--in", str(a["hinges"]), "--out", str(a["plan"])])
    run(["pack", "--in", str(a["hinges"]), "--plan", str(a["plan"]), "--sheets", "2",
         "--out", str(a["layout"])])
    run(["export", "--in", str(a["layout"]), "--hinges", str(a["hinges"]), "--plan", str(a["plan"]),
         "--meshes", *meshes, *GRID, "--out", str(staged)])
    expected = files_under(built)
    assert sorted(expected) == [
        "instructions.svg", "manifest.json", "pages/page-1.svg", "pages/page-2.svg", "stability.json",
    ]
    assert files_under(staged) == expected


# a value other than its default for each option that `slice`, `pack` or
# `export` reads besides the paths, by the command that takes it
SLICE_OPTIONS = ["--orientations", "z,x"]
PACK_OPTIONS = ["--page", "A3", "--sheets", "2", "--slot-width", "1.5", "--margin", "7", "--gutter", "2.5",
                "--k-max", "2"]
EXPORT_OPTIONS = ["--dpi", "5", "--perforate"]


def test_build_equals_staged_commands_at_other_options(meshes, tmp_path):
    # the slot width reaches export only through the layout artifact
    build(meshes, tmp_path / "build", *SLICE_OPTIONS, *PACK_OPTIONS, *EXPORT_OPTIONS)
    a = {name: str(tmp_path / f"{name}.json") for name in ("slices", "hinges", "plan", "layout")}
    run(["slice", "--meshes", *meshes, *GRID, "--level", "3", *SLICE_OPTIONS, "--out", a["slices"]])
    run(["hinge", "--in", a["slices"], "--out", a["hinges"]])
    run(["order", "--in", a["hinges"], "--out", a["plan"]])
    run(["pack", "--in", a["hinges"], "--plan", a["plan"], *PACK_OPTIONS, "--out", a["layout"]])
    run(["export", "--in", a["layout"], "--hinges", a["hinges"], "--plan", a["plan"],
         "--meshes", *meshes, *GRID, *EXPORT_OPTIONS, "--out", str(tmp_path / "print")])
    expected = files_under(tmp_path / "build")
    manifest = json.loads(expected["manifest.json"])
    assert (manifest["summary"]["clusters"], manifest["summary"]["pages"]) == (2, 2)
    assert manifest["options"] == {
        "orientations": ["z", "x"], "page_size_mm": [297.0, 420.0], "sheets": 2, "margin_mm": 7.0,
        "gutter_mm": 2.5, "slot_width_mm": 1.5, "px_per_mm": 5.0, "perforate": True,
    }
    assert files_under(tmp_path / "print") == expected


def test_every_json_file_is_written_by_json_text(meshes, built, tmp_path):
    # the goldens pin only the manifest and the stability report; this also
    # holds the four stage artifacts to the one compact layout
    a = {name: tmp_path / f"{name}.json" for name in ("slices", "hinges", "plan", "layout")}
    run(["slice", "--meshes", *meshes, *GRID, "--level", "3", "--out", str(a["slices"])])
    run(["hinge", "--in", str(a["slices"]), "--out", str(a["hinges"])])
    run(["order", "--in", str(a["hinges"]), "--out", str(a["plan"])])
    run(["pack", "--in", str(a["hinges"]), "--plan", str(a["plan"]), "--sheets", "2",
         "--out", str(a["layout"])])
    run(["export", "--in", str(a["layout"]), "--hinges", str(a["hinges"]), "--plan", str(a["plan"]),
         "--meshes", *meshes, *GRID, "--out", str(tmp_path / "print")])
    written = sorted(built.rglob("*.json")) + sorted(tmp_path.rglob("*.json"))
    assert len(written) == 8
    for path in written:
        text = path.read_text()
        assert text == json_text(json.loads(text)), path


def test_manifest_matches_golden(built):
    assert (built / "manifest.json").read_bytes() == GOLDEN.read_bytes()


def test_output_files_match_goldens(built):
    for name, golden in GOLDEN_FILES.items():
        assert (built / name).read_bytes() == (GOLDEN_DIR / golden).read_bytes(), name


def test_page_images_are_the_reference_rasters(meshes, built):
    # every image embedded in the pages decodes to the per-pixel reference
    # raster of the slice placed there, at the manifest's scale and density
    manifest = json.loads((built / "manifest.json").read_text())
    slices = {s.id: s for s in decode(list[Slice], manifest["slices"], "slices")}
    volume, tf = pipeline.load_input(None, None, None, meshes, int(GRID[1]))
    labels = quantize(volume, tf)
    scale, px_per_mm = manifest["layout"]["scale"], manifest["options"]["px_per_mm"]
    orientations = tuple(manifest["grid"]["orientations"])
    images = 0
    for page, name in enumerate(manifest["pages"]):
        hrefs = re.findall(r'xlink:href="data:image/png;base64,([^"]*)"', (built / name).read_text())
        placed = [p["slice"] for p in manifest["layout"]["placements"] if p["page"] == page]
        assert len(hrefs) == len(placed)
        for sid, data in zip(placed, hrefs):
            want = rasterize_slice_reference(labels, tf, slices[sid], scale, px_per_mm, orientations)
            assert np.array_equal(decode_png(base64.b64decode(data)), want), (name, sid)
        images += len(hrefs)
    assert images == len(slices)


def test_rerun_with_fewer_pages_removes_stale_pages(meshes, tmp_path):
    build(meshes, tmp_path)
    assert (tmp_path / "pages" / "page-2.svg").exists()
    build(meshes, tmp_path, "--page", "A3", "--sheets", "1")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["pages"] == ["pages/page-1.svg"]
    assert sorted(p.name for p in (tmp_path / "pages").iterdir()) == ["page-1.svg"]


def test_staged_options_from_a_config_file_equal_flags(meshes, tmp_path):
    def staged(dest: Path, pack_options: list[str], export_options: list[str]) -> dict[str, bytes]:
        dest.mkdir()
        a = {name: str(dest / f"{name}.json") for name in ("slices", "hinges", "plan", "layout")}
        run(["slice", "--meshes", *meshes, *GRID, "--level", "3", "--out", a["slices"]])
        run(["hinge", "--in", a["slices"], "--out", a["hinges"]])
        run(["order", "--in", a["hinges"], "--out", a["plan"]])
        run(["pack", "--in", a["hinges"], "--plan", a["plan"], *pack_options, "--out", a["layout"]])
        run(["export", "--in", a["layout"], "--hinges", a["hinges"], "--plan", a["plan"],
             "--meshes", *meshes, *GRID, *export_options, "--out", str(dest / "print")])
        return files_under(dest)

    (tmp_path / "pack.json").write_text(json.dumps({"page": "A3", "sheets": 2}))
    (tmp_path / "export.json").write_text(json.dumps({"dpi": 6}))
    from_config = staged(tmp_path / "config", ["--config", str(tmp_path / "pack.json")],
                         ["--config", str(tmp_path / "export.json")])
    from_flags = staged(tmp_path / "flags", ["--page", "A3", "--sheets", "2"], ["--dpi", "6"])
    assert "print/pages/page-2.svg" in from_flags
    assert from_config == from_flags


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "build"
        build(write_meshes(Path(tmp)), out)
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN.write_bytes((out / "manifest.json").read_bytes())
        for name, golden in GOLDEN_FILES.items():
            (GOLDEN_DIR / golden).write_bytes((out / name).read_bytes())
