"""End-to-end orchestration shared by `build` and the per-stage commands.

Each stage is a pure function over JSON-serializable artifacts so that a
full build equals the composition of single-stage runs on the same inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .codec import decode, encode
from .errors import IOFailure, ValidationError
from .export import emit_instructions, emit_pages, slice_cut_geometry
from .hinges import Hinge, collect_triples, compute_hinges, find_backbone, hinges_by_slice
from .layout import PageLayout, cluster_slices, pack
from .mesh import MeshSet, load_obj, voxelize_meshes
from .octree import (
    AXES,
    Slice,
    build_octree,
    extract_slices,
    unify_slices,
    up_axis,
)
from .ordering import (
    AssemblyPlan,
    VerificationReport,
    build_order_problem,
    derive_slice_order,
    solve_order,
    verify_plan,
)
from .render import MAX_RASTER_PIXELS, raster_size, rasterize_slice, stability_check
from .volume import (
    LabelVolume,
    ScalarVolume,
    TransferFunction,
    load_transfer_function,
    load_volume,
)


@dataclass
class GridInfo:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = field(metadata={"json": "spacing_mm"})
    origin: tuple[float, float, float] = field(metadata={"json": "origin_mm"})
    orientations: tuple[str, str]

    @staticmethod
    def from_json(obj: dict) -> "GridInfo":
        return decode(GridInfo, obj, "grid")

    @property
    def axes(self) -> tuple[int, int, int]:
        return (
            AXES.index(self.orientations[0]),
            AXES.index(self.orientations[1]),
            AXES.index(up_axis(self.orientations)),
        )


def load_input(
    input_path: str | None,
    header: str | None,
    tf_path: str | None,
    meshes: list[str] | None,
    resolution: int = 128,
) -> tuple[ScalarVolume, TransferFunction]:
    """Either a raw volume + header + explicit transfer function, or OBJ
    meshes, voxelized, with the automatic transfer function unless
    `tf_path` names a file."""
    if meshes:
        mesh_set = MeshSet(meshes=tuple(load_obj(p) for p in meshes))
        volume, tf = voxelize_meshes(mesh_set, (resolution,) * 3)
        if tf_path and tf_path != "auto":
            tf = load_transfer_function(tf_path)
        return volume, tf
    if not input_path or not header:
        raise ValidationError("volume input requires --input and --header")
    if not tf_path or tf_path == "auto":
        raise ValidationError("volume input requires an explicit --tf (auto is meshes-only)")
    return load_volume(input_path, header), load_transfer_function(tf_path)


def stage_slice(labels: LabelVolume, level: int, orientations: tuple[str, str]) -> list[Slice]:
    root = build_octree(labels, level)
    if not root.distinct_labels:
        raise ValidationError(
            "volume is entirely background", hint="nothing to slice: every voxel has opacity 0"
        )
    return unify_slices(extract_slices(root, orientations))


def stage_hinges(slices: list[Slice], orientations: tuple[str, str]) -> list[Hinge]:
    return compute_hinges(slices, orientations)


def stage_order(
    hinges: list[Hinge], slices: list[Slice], grid: GridInfo
) -> tuple[AssemblyPlan, VerificationReport]:
    backbone = find_backbone(hinges, slices)
    triples = collect_triples(hinges, slices)
    problem = build_order_problem(hinges, slices, backbone, triples, grid.dims, grid.axes)
    plan = solve_order(problem)
    plan = dataclasses.replace(plan, slice_order=derive_slice_order(plan, hinges, slices))
    return plan, verify_plan(plan, problem)


def stage_pack(
    slices: list[Slice],
    plan: AssemblyPlan,
    grid: GridInfo,
    page_size: tuple[float, float],
    sheets: int,
    slot_width_mm: float,
    margin: float,
    gutter: float,
    k_max: int,
    seed: int,
) -> PageLayout:
    clusters = cluster_slices(slices, plan, grid.dims, grid.orientations, k_max=k_max, seed=seed)
    return pack(
        slices,
        plan,
        clusters,
        grid.spacing,
        orientations=grid.orientations,
        page_size=page_size,
        sheets=sheets,
        slot_width_mm=slot_width_mm,
        margin=margin,
        gutter=gutter,
    )


def stage_export(
    outdir: str | Path,
    labels: LabelVolume,
    tf: TransferFunction,
    slices: list[Slice],
    hinges: list[Hinge],
    plan: AssemblyPlan,
    layout: PageLayout,
    grid: GridInfo,
    slot_width_mm: float,
    seed: int,
    px_per_mm: float = 4.0,
    perforate: bool = False,
) -> dict:
    """Write pages, instructions, manifest, and the stability report."""
    pixels = sum(math.prod(raster_size(s, labels.spacing, layout.scale, px_per_mm, grid.orientations)) for s in slices)
    if pixels > MAX_RASTER_PIXELS:
        raise ValidationError(
            f"the slices would render to {pixels:,} raster pixels at {px_per_mm:g} px/mm, "
            f"more than the {MAX_RASTER_PIXELS:,} an export holds",
            hint="lower --dpi",
        )
    outdir = Path(outdir)
    (outdir / "pages").mkdir(parents=True, exist_ok=True)
    by_slice = hinges_by_slice(hinges)
    geometries = {
        s.id: slice_cut_geometry(
            s, by_slice.get(s.id, []), grid.spacing, layout.scale, slot_width_mm, grid.orientations
        )
        for s in slices
    }
    rasters = {
        s.id: rasterize_slice(labels, tf, s, layout.scale, px_per_mm, grid.orientations)
        for s in slices
    }
    pages, warnings_out = emit_pages(layout, rasters, geometries, plan, perforate=perforate)
    page_names = []
    for i, svg in enumerate(pages, start=1):
        name = f"page-{i}.svg"
        (outdir / "pages" / name).write_text(svg)
        page_names.append(f"pages/{name}")
    for old in (outdir / "pages").glob("page-*.svg"):
        if f"pages/{old.name}" not in page_names:
            old.unlink()  # left by an earlier run with more pages
    instructions = emit_instructions(
        plan, hinges, slices, grid.dims, grid.orientations, page_size=layout.page_size
    )
    (outdir / "instructions.svg").write_text(instructions)

    stopper_count = sum(1 for h in hinges if h.stopper_on is not None)
    stability = stability_check(
        slices,
        layout,
        grid.dims,
        grid.spacing,
        stopper_count,
        slot_width_mm=slot_width_mm,
        orientations=grid.orientations,
    )
    (outdir / "stability.json").write_text(_dump(encode(stability)))

    manifest = encode({
        "version": __version__,
        "seed": seed,
        "options": {
            "orientations": grid.orientations,
            "page_size_mm": layout.page_size,
            "sheets": layout.sheets,
            "margin_mm": layout.margin,
            "gutter_mm": layout.gutter,
            "slot_width_mm": slot_width_mm,
            "px_per_mm": px_per_mm,
            "perforate": perforate,
        },
        "grid": grid,
        "slices": slices,
        "hinges": hinges,
        "plan": plan,
        "layout": layout,
        "stability": stability,
        "pages": page_names,
        "warnings": warnings_out,
        "summary": {
            "slice_count": len(slices),
            "hinge_count": len(hinges),
            "clusters": len({c for c in layout.cluster_of.values()}),
            "scale": layout.scale,
            "pages": layout.sheets,
            "balanced": stability.balanced,
        },
    })
    (outdir / "manifest.json").write_text(_dump(manifest))
    return manifest


def plan_from_json(obj: dict) -> AssemblyPlan:
    return decode(AssemblyPlan, obj, "plan artifact")


def layout_from_json(obj: dict) -> tuple[PageLayout, float, int]:
    """Returns (layout, slot_width_mm, seed) from a pack artifact."""
    record = (obj, obj.get("slot_width_mm"), obj.get("seed"))
    return decode(tuple[PageLayout, float, int], record, "layout artifact")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_artifact(path: str | Path, obj: dict) -> None:
    p = Path(path)
    try:
        p.write_text(_dump(obj))
    except OSError as exc:  # a missing directory, a directory in the way, no permission
        raise IOFailure(f"cannot write artifact {p}: {exc.strerror}") from exc


def read_artifact(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise IOFailure(f"artifact not found: {p}")
    try:
        data = p.read_bytes()
    except OSError as exc:  # a directory, no permission
        raise IOFailure(f"cannot read artifact {p}: {exc.strerror}") from exc
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"artifact {p} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"artifact {p} is not a JSON object")
    return obj
