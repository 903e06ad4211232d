"""Self-test of the benchmark harness at tiny sizes (16^3 grids, octree level 2).

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# every metric the benchmark promises, by layer
NAMED = {
    "end_to_end": ["build_rel", "setup_s", "peak_rss_mb"],
    "mesh": ["mesh.load_obj_s", "mesh.voxelize_s", "mesh.triangles", "mesh.voxels", "mesh.label_mismatch_frac"],
    "volume": ["volume.load_s", "volume.quantize_s", "volume.bytes_read", "volume.foreground_frac",
               "volume.quantize_gbps"],
    "octree": ["octree.build_s", "octree.extract_s", "octree.unify_s", "octree.nodes", "octree.raw_slices",
               "octree.slices", "octree.unify_ratio"],
    "hinges": ["hinges.compute_s", "hinges.triples_s", "hinges.pairs_tested", "hinges.count", "hinges.hit_ratio",
               "hinges.cut_through", "hinges.stoppers", "hinges.triples"],
    "ordering": ["ordering.solve_s", "ordering.verify_s", "ordering.exact", "ordering.objective",
                 "ordering.lower_bound", "ordering.gap"],
    "layout": ["layout.cluster_s", "layout.pack_s", "layout.k", "layout.pages", "layout.scale",
               "layout.insert_calls", "layout.insert_hit_ratio", "layout.fill"],
    "render": ["render.rasterize_s", "render.pixels", "render.stability_s"],
    "export": ["export.geometry_s", "export.pages_s", "export.png_s", "export.instructions_s",
               "export.png_bytes", "export.svg_bytes"],
    "pipeline": ["pipeline.write_artifact_s", "pipeline.read_artifact_s", "pipeline.decode_s",
                 "pipeline.artifact_bytes", "pipeline.manifest_bytes"],
    "cli": ["cli.slice_s", "cli.hinge_s", "cli.order_s", "cli.pack_s", "cli.export_s"],
    "harness": ["build_s", "ref_s", "setup_raw_s", "failed_frac", "trace.overhead_s", "trace.overhead_frac",
                "trace.wrapped_calls", "trace.call_cost_s", "trace.overhead_computed_s",
                "trace.overhead_computed_frac"],
}


@pytest.fixture(autouse=True, scope="module")
def one_setup_sample():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_SAMPLES_PER_BUILD", 1)
        yield


def tiny_run(tmp: Path, name: str, trace: bool) -> dict:
    return run.run_workload(name, 0, 0.0, trace, ROOT, tmp / name, tiny=True)


@pytest.fixture(scope="module")
def traced(tmp_path_factory, one_setup_sample):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: tiny_run(tmp, name, True) for name in workloads.NAMES}


def test_benchmark_json_lists_every_named_metric_with_unit_and_direction():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    for layer, names in NAMED.items():
        table = END_TO_END if layer == "end_to_end" else PER_LAYER
        for name in names:
            assert name in table, name
            assert table[name]["unit"] and table[name]["better"] in ("lower", "higher"), name


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    record = tiny_run(tmp_path, "staged-print", False)
    assert record["failed"] == 0, record["problems"]
    assert set(record["metrics"]) == set(END_TO_END)
    for name, metric in record["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"] and metric["value"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_passes_checks_and_emits_every_layer_metric(traced, name):
    record = traced[name]
    assert record["failed"] == 0 and record["failed_frac"] == 0.0, record["problems"]
    assert set(record["metrics"]) == set(PER_LAYER)
    for metric, item in record["metrics"].items():
        assert item["unit"] == PER_LAYER[metric]["unit"], metric
    for layer in ("volume", "octree", "hinges", "ordering", "layout", "render", "export", "cli"):
        assert record["metrics"][f"{layer}.self_s"]["value"] > 0, (name, layer)
    assert (record["metrics"]["mesh.voxelize_s"]["value"] > 0) == (name == "mesh-spheres")
    assert (record["metrics"]["pipeline.decode_s"]["value"] > 0) == (name == "staged-print")


def test_failing_build_is_counted_not_fatal(tmp_path, monkeypatch):
    config = tmp_path / "bad.json"
    # the CLI rejects a repeated slicing axis with exit 2 before any stage runs
    config.write_text(json.dumps({"orientations": "x,x"}))
    prepare = workloads.prepare

    def prepare_bad(*args, **kwargs):
        spec = prepare(*args, **kwargs)
        spec["argvs"][0] += ["--config", str(config)]
        return spec

    monkeypatch.setattr(workloads, "prepare", prepare_bad)
    record = tiny_run(tmp_path, "volume-deep", False)
    assert record["attempted"] == record["failed"] >= 1
    assert record["failed_frac"] == 1.0
    assert any("exited 2" in p for p in record["problems"])
    assert record["metrics"]["build_rel"]["value"] > 0


def test_failing_setup_is_counted_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_CODE", "import sliceforge.no_such_module")
    record = tiny_run(tmp_path, "staged-print", False)
    assert record["attempted"] == record["failed"] >= 1
    assert any("set-up child exited 1" in p for p in record["problems"])
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_seed0_mesh_spheres_order_bound(tmp_path):
    record = run.run_workload("mesh-spheres", 0, 0.0, True, ROOT, tmp_path / "w")
    m = {k: v["value"] for k, v in record["metrics"].items()}
    assert record["failed"] == 0, record["problems"]
    assert m["ordering.lower_bound"] == pytest.approx(647.66, abs=0.01)
    assert m["ordering.objective"] == pytest.approx(944.50, abs=0.01)
    assert m["ordering.gap"] == pytest.approx(0.458, abs=0.001)
    assert m["mesh.label_mismatch_frac"] == 0.0


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.prepare("volume-deep", 7, tmp_path / "a", tiny=True)
    b = workloads.prepare("volume-deep", 7, tmp_path / "b", tiny=True)
    c = workloads.prepare("volume-deep", 8, tmp_path / "c", tiny=True)
    assert a["inputs"] == b["inputs"] != c["inputs"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mesh-spheres", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_records_on_different_inputs_are_not_comparable(tmp_path):
    import compare

    a = {"workload": "volume-deep", "seed": 7, "seconds": 30.0, "tiny": True,
         "inputs": workloads.prepare("volume-deep", 7, tmp_path / "a", tiny=True)["inputs"]}
    assert compare.not_comparable(a, dict(a)) == []
    b = dict(a, inputs=workloads.prepare("volume-deep", 8, tmp_path / "b", tiny=True)["inputs"])
    assert compare.not_comparable(a, b) == ["input files differ (sha256)"]
