"""Spans and counts around the public functions each `sliceforge` module
exposes, installed from outside the package.

A wrapper replaces a function under the name its caller looks it up by
(`pipeline.compute_hinges`, `cli.quantize`, ...), records a span with a
name, start, end and parent, and keeps a reference to what the count
functions need. Counting happens in `layer_metrics`, after the build, so
it costs no span any time.

The tracing overhead of a build is computed, not measured: the number of
wrapped calls times the cost of one wrapped call, timed on a no-op after the
build. One traced build is too noisy to show it: on a shared host a single
build's `build_rel` can range over 0.6-1.5x its run's median.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
import types
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import sliceforge.cli as cli
import sliceforge.export as export
import sliceforge.layout as layout
import sliceforge.pipeline as pipeline
from sliceforge.octree import iter_nodes

import checks

LAYERS = ("mesh", "volume", "octree", "hinges", "ordering", "layout", "render", "export", "pipeline", "cli")
CLI_COMMANDS = ("build", "slice", "hinge", "order", "pack", "export")


def _result(args, kwargs, result):
    return result


def _first_arg(args, kwargs, result):
    return args[0]


def _length(args, kwargs, result):
    return len(result)


# (owner, attribute, span name, what to keep for counting or None)
WRAPPED = (
    (pipeline, "load_input", "pipeline.load_input", None),
    (pipeline, "load_obj", "mesh.load_obj", lambda a, k, r: len(r.triangles)),
    (pipeline, "voxelize_meshes", "mesh.voxelize", lambda a, k, r: r[0].voxel_count),
    (pipeline, "load_volume", "volume.load", lambda a, k, r: os.path.getsize(a[0])),
    (pipeline, "load_transfer_function", "volume.load_tf", None),
    (cli, "quantize", "volume.quantize", _result),
    (pipeline, "stage_slice", "pipeline.stage_slice", None),
    (pipeline, "build_octree", "octree.build", _result),
    (pipeline, "extract_slices", "octree.extract", _length),
    (pipeline, "unify_slices", "octree.unify", _length),
    (pipeline, "stage_hinges", "pipeline.stage_hinges", None),
    (pipeline, "compute_hinges", "hinges.compute", lambda a, k, r: (a[0], a[1], r)),
    (pipeline, "stage_order", "pipeline.stage_order", None),
    (pipeline, "find_backbone", "hinges.backbone", None),
    (pipeline, "collect_triples", "hinges.triples", _length),
    (pipeline, "build_order_problem", "ordering.problem", _result),
    (pipeline, "solve_order", "ordering.solve", _result),
    (pipeline, "derive_slice_order", "ordering.slice_order", None),
    (pipeline, "verify_plan", "ordering.verify", None),
    (pipeline, "stage_pack", "pipeline.stage_pack", None),
    (pipeline, "cluster_slices", "layout.cluster", lambda a, k, r: r.k),
    (pipeline, "pack", "layout.pack", _result),
    (pipeline, "stage_export", "pipeline.stage_export", _first_arg),
    (pipeline, "slice_cut_geometry", "export.geometry", None),
    (pipeline, "rasterize_slice", "render.rasterize", lambda a, k, r: r.pixels.shape[0] * r.pixels.shape[1]),
    (pipeline, "emit_pages", "export.pages", lambda a, k, r: r[0]),
    (export, "encode_png", "export.png", _length),
    (pipeline, "emit_instructions", "export.instructions", None),
    (pipeline, "stability_check", "render.stability", None),
    (pipeline, "write_artifact", "pipeline.write_artifact", _first_arg),
    (pipeline, "read_artifact", "pipeline.read_artifact", None),
    (pipeline.GridInfo, "from_json", "pipeline.decode", None),
    (cli, "slices_from_json", "pipeline.decode", None),
    (cli, "hinges_from_json", "pipeline.decode", None),
    (pipeline, "plan_from_json", "pipeline.decode", None),
    (pipeline, "layout_from_json", "pipeline.decode", None),
)


class Tracer:
    """Spans of one build, kept in memory: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {}
        self.insert_calls = 0
        self.insert_hits = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        for owner, attr, name, keep in WRAPPED:
            self._wrap(owner, attr, name, keep)
        original = layout.MaxRects.insert

        def insert(packer, *args, **kwargs):
            pos = original(packer, *args, **kwargs)
            self.insert_calls += 1
            self.insert_hits += pos is not None
            return pos

        self._undo.append((layout.MaxRects, "insert", inspect.getattr_static(layout.MaxRects, "insert")))
        layout.MaxRects.insert = insert

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr, name, keep) -> None:
        static = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)
        kept = self.kept.setdefault(name, [])

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if keep is not None:
                kept.append(keep(args, kwargs, result))
            return result

        self._undo.append((owner, attr, static))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(static, staticmethod) else wrapper)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name] = out.get(name, 0.0) + (end - start - inner) / 1e9
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def layer_metrics(self, label_mismatch: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; a layer the workload
        never calls reports 0 time and 0 work."""
        own = self.self_times()
        total = self.inclusive_times()
        kept = self.kept
        m: dict[str, tuple[float, str]] = {}

        def sec(metric, span):
            m[metric] = (own.get(span, 0.0), "s")

        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(t for n, t in own.items() if n.split(".")[0] == layer), "s")

        sec("mesh.load_obj_s", "mesh.load_obj")
        sec("mesh.voxelize_s", "mesh.voxelize")
        m["mesh.triangles"] = (sum(kept["mesh.load_obj"]), "count")
        m["mesh.voxels"] = (sum(kept["mesh.voxelize"]), "count")
        m["mesh.label_mismatch_frac"] = (label_mismatch, "frac")

        sec("volume.load_s", "volume.load")
        sec("volume.quantize_s", "volume.quantize")
        labels = kept["volume.quantize"]
        m["volume.bytes_read"] = (sum(kept["volume.load"]), "B")
        m["volume.foreground_frac"] = (
            float(np.count_nonzero(labels[-1].labels)) / labels[-1].labels.size if labels else 0.0, "frac")
        q_s = own.get("volume.quantize", 0.0)
        # computed, not measured traffic: 4 B float32 read + 2 B uint16 label written per voxel
        m["volume.quantize_gbps"] = (
            sum(6 * lv.labels.size for lv in labels) / q_s / 1e9 if q_s > 0 else 0.0, "GB/s")

        sec("octree.build_s", "octree.build")
        sec("octree.extract_s", "octree.extract")
        sec("octree.unify_s", "octree.unify")
        m["octree.nodes"] = (sum(sum(1 for _ in iter_nodes(root)) for root in kept["octree.build"]), "count")
        raw, unified = sum(kept["octree.extract"]), sum(kept["octree.unify"])
        m["octree.raw_slices"] = (raw, "count")
        m["octree.slices"] = (unified, "count")
        m["octree.unify_ratio"] = (unified / raw if raw else 0.0, "ratio")

        sec("hinges.compute_s", "hinges.compute")
        sec("hinges.triples_s", "hinges.triples")
        pairs = count = cut = stoppers = 0
        for slices, orientations, hinges in kept["hinges.compute"]:
            pairs += (sum(s.orientation == orientations[0] for s in slices)
                      * sum(s.orientation == orientations[1] for s in slices))
            count += len(hinges)
            cut += sum(h.kind.value == "cut_through" for h in hinges)
            stoppers += sum(h.stopper_on is not None for h in hinges)
        m["hinges.pairs_tested"] = (pairs, "count")
        m["hinges.count"] = (count, "count")
        m["hinges.hit_ratio"] = (count / pairs if pairs else 0.0, "ratio")
        m["hinges.cut_through"] = (cut, "count")
        m["hinges.stoppers"] = (stoppers, "count")
        m["hinges.triples"] = (sum(kept["hinges.triples"]), "count")

        sec("ordering.solve_s", "ordering.solve")
        sec("ordering.verify_s", "ordering.verify")
        plans, problems = kept["ordering.solve"], kept["ordering.problem"]
        objective = plans[-1].objective if plans else 0.0
        bound = checks.order_lower_bound(problems[-1]) if problems else 0.0
        m["ordering.exact"] = (float(plans[-1].exact) if plans else 0.0, "bool")
        m["ordering.objective"] = (objective, "w_pos")
        m["ordering.lower_bound"] = (bound, "w_pos")
        m["ordering.gap"] = ((objective - bound) / bound if bound > 0 else 0.0, "frac")

        sec("layout.cluster_s", "layout.cluster")
        sec("layout.pack_s", "layout.pack")
        layouts = kept["layout.pack"]
        m["layout.k"] = (sum(kept["layout.cluster"]), "count")
        m["layout.pages"] = (sum(lay.sheets for lay in layouts), "count")
        m["layout.scale"] = (layouts[-1].scale if layouts else 0.0, "ratio")
        m["layout.insert_calls"] = (self.insert_calls, "count")
        m["layout.insert_hit_ratio"] = (
            self.insert_hits / self.insert_calls if self.insert_calls else 0.0, "ratio")
        fill = 0.0
        if layouts:
            lay = layouts[-1]
            usable = (lay.page_size[0] - 2 * lay.margin) * (lay.page_size[1] - 2 * lay.margin)
            fill = sum(p.w * p.h for p in lay.placements) / (lay.sheets * usable)
        m["layout.fill"] = (fill, "frac")

        sec("render.rasterize_s", "render.rasterize")
        sec("render.stability_s", "render.stability")
        m["render.pixels"] = (sum(kept["render.rasterize"]), "count")

        sec("export.geometry_s", "export.geometry")
        sec("export.pages_s", "export.pages")
        sec("export.png_s", "export.png")
        sec("export.instructions_s", "export.instructions")
        m["export.png_bytes"] = (sum(kept["export.png"]), "B")
        m["export.svg_bytes"] = (sum(len(d.encode()) for docs in kept["export.pages"] for d in docs), "B")

        sec("pipeline.write_artifact_s", "pipeline.write_artifact")
        sec("pipeline.read_artifact_s", "pipeline.read_artifact")
        sec("pipeline.decode_s", "pipeline.decode")
        m["pipeline.artifact_bytes"] = (sum(os.path.getsize(p) for p in kept["pipeline.write_artifact"]), "B")
        m["pipeline.manifest_bytes"] = (
            sum(os.path.getsize(Path(d) / "manifest.json") for d in kept["pipeline.stage_export"]), "B")

        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = (total.get(f"cli.{command}", 0.0), "s")
        calls, cost = len(self.spans) + self.insert_calls, wrapped_call_cost_s()
        m["trace.wrapped_calls"] = (calls, "count")
        m["trace.call_cost_s"] = (cost, "s")
        m["trace.overhead_computed_s"] = (calls * cost, "s")  # computed, not measured
        return m


def wrapped_call_cost_s() -> float:
    """Seconds a Tracer wrapper adds to one call: a no-op called 20 000 times
    through a wrapper that keeps its result, less the bare calls; the median
    of 5 rounds."""
    probe = types.SimpleNamespace(f=lambda: None)
    bare = probe.f
    Tracer()._wrap(probe, "f", "probe", _result)
    wrapped = probe.f
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20_000):
            bare()
        t1 = time.perf_counter()
        for _ in range(20_000):
            wrapped()
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / 20_000)
    return statistics.median(costs)
