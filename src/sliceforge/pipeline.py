"""End-to-end orchestration shared by `build` and the per-stage commands.

Each stage is a pure function over JSON-serializable artifacts so that a
full build equals the composition of single-stage runs on the same inputs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ValidationError
from .export import emit_instructions, emit_pages, slice_cut_geometry
from .hinges import (
    Hinge,
    collect_triples,
    compute_hinges,
    find_backbone,
    hinges_to_json,
)
from .layout import PageLayout, Partition, Placement, cluster_slices, pack
from .mesh import MeshSet, load_obj, voxelize_meshes
from .octree import (
    AXES,
    OctreeNode,
    Slice,
    build_octree,
    extract_slices,
    slices_to_json,
    unify_slices,
    up_axis,
)
from .ordering import (
    AssemblyPlan,
    build_order_problem,
    derive_slice_order,
    solve_order,
    verify_plan,
)
from .render import rasterize_slice, stability_check
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
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    orientations: tuple[str, str]

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "spacing_mm": list(self.spacing),
            "origin_mm": list(self.origin),
            "orientations": list(self.orientations),
        }

    @staticmethod
    def from_json(obj: dict) -> "GridInfo":
        try:
            return GridInfo(
                dims=tuple(int(v) for v in obj["dims"]),
                spacing=tuple(float(v) for v in obj["spacing_mm"]),
                origin=tuple(float(v) for v in obj["origin_mm"]),
                orientations=tuple(str(v) for v in obj["orientations"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"grid section malformed or missing: {exc}") from exc

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
    meshes with an automatic one."""
    if meshes:
        mesh_set = MeshSet(meshes=tuple(load_obj(p) for p in meshes))
        if tf_path and tf_path != "auto":
            volume, _ = voxelize_meshes(mesh_set, (resolution,) * 3)
            return volume, load_transfer_function(tf_path)
        return voxelize_meshes(mesh_set, (resolution,) * 3)
    if not input_path or not header:
        raise ValidationError("volume input requires --input and --header")
    if not tf_path or tf_path == "auto":
        raise ValidationError("volume input requires an explicit --tf (auto is meshes-only)")
    return load_volume(input_path, header), load_transfer_function(tf_path)


def stage_slice(
    labels: LabelVolume, level: int, orientations: tuple[str, str]
) -> tuple[OctreeNode, list[Slice]]:
    root = build_octree(labels, level)
    if not root.distinct_labels:
        raise ValidationError(
            "volume is entirely background", hint="nothing to slice: every voxel has opacity 0"
        )
    return root, unify_slices(extract_slices(root, orientations))


def stage_hinges(slices: list[Slice], orientations: tuple[str, str]) -> list[Hinge]:
    return compute_hinges(slices, orientations)


def stage_order(
    hinges: list[Hinge],
    slices: list[Slice],
    grid: GridInfo,
    exact_threshold: int = 16,
):
    backbone = find_backbone(hinges, slices)
    triples = collect_triples(hinges, slices)
    problem = build_order_problem(hinges, slices, backbone, triples, grid.dims, grid.axes)
    plan = solve_order(problem, exact_threshold)
    plan = dataclasses.replace(plan, slice_order=derive_slice_order(plan, hinges, slices))
    report = verify_plan(plan, problem)
    return plan, report.to_json(), problem


def stage_pack(
    slices: list[Slice],
    plan: AssemblyPlan,
    grid: GridInfo,
    page: str | tuple[float, float],
    sheets: int,
    slot_width_mm: float,
    margin: float,
    gutter: float,
    k_max: int,
    seed: int,
):
    clusters = cluster_slices(slices, plan, grid.dims, grid.orientations, k_max=k_max, seed=seed)
    layout = pack(
        slices,
        plan,
        clusters,
        grid.spacing,
        orientations=grid.orientations,
        page=page,
        sheets=sheets,
        slot_width_mm=slot_width_mm,
        margin=margin,
        gutter=gutter,
    )
    return clusters, layout


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
    outdir = Path(outdir)
    (outdir / "pages").mkdir(parents=True, exist_ok=True)
    slices_by_id = {s.id: s for s in slices}
    geometries = {
        s.id: slice_cut_geometry(
            s, hinges, slices_by_id, grid.spacing, layout.scale, slot_width_mm, grid.orientations
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
    (outdir / "stability.json").write_text(_dump(stability.to_json()))

    manifest = {
        "version": __version__,
        "seed": seed,
        "options": {
            "orientations": list(grid.orientations),
            "page_size_mm": list(layout.page_size),
            "sheets": layout.sheets,
            "margin_mm": layout.margin,
            "gutter_mm": layout.gutter,
            "slot_width_mm": slot_width_mm,
            "px_per_mm": px_per_mm,
            "perforate": perforate,
        },
        "grid": grid.to_json(),
        "slices": slices_to_json(slices),
        "hinges": hinges_to_json(hinges),
        "plan": plan_to_json(plan),
        "layout": layout.to_json(),
        "stability": stability.to_json(),
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
    }
    (outdir / "manifest.json").write_text(_dump(manifest))
    return manifest


def plan_to_json(plan: AssemblyPlan) -> dict:
    return {
        "hinge_order": list(plan.hinge_order),
        "slice_order": list(plan.slice_order),
        "objective": plan.objective,
        "exact": plan.exact,
    }


def plan_from_json(obj: dict) -> AssemblyPlan:
    try:
        return AssemblyPlan(
            hinge_order=tuple(int(v) for v in obj["hinge_order"]),
            slice_order=tuple(int(v) for v in obj["slice_order"]),
            objective=float(obj["objective"]),
            exact=bool(obj["exact"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"plan artifact malformed: {exc}") from exc


def layout_from_json(obj: dict) -> tuple[PageLayout, float, int]:
    """Returns (layout, slot_width_mm, seed) from a pack artifact."""
    try:
        layout = PageLayout(
            page_size=tuple(float(v) for v in obj["page_size_mm"]),
            margin=float(obj["margin_mm"]),
            gutter=float(obj["gutter_mm"]),
            sheets=int(obj["sheets"]),
            scale=float(obj["scale"]),
            partitions=tuple(
                Partition(page=int(p["page"]), cluster=int(p["cluster"]), rect=tuple(float(v) for v in p["rect"]))
                for p in obj["partitions"]
            ),
            placements=tuple(
                Placement(
                    slice_id=int(p["slice"]),
                    page=int(p["page"]),
                    x=float(p["x"]),
                    y=float(p["y"]),
                    rotated=bool(p["rotated"]),
                    w=float(p["w"]),
                    h=float(p["h"]),
                )
                for p in obj["placements"]
            ),
            cluster_of={int(k): int(v) for k, v in obj["clusters"].items()},
        )
        return layout, float(obj["slot_width_mm"]), int(obj["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"layout artifact malformed: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_artifact(path: str | Path, obj: dict) -> None:
    Path(path).write_text(_dump(obj))


def read_artifact(path: str | Path, required: tuple[str, ...]) -> dict:
    p = Path(path)
    if not p.exists():
        from .errors import IOFailure

        raise IOFailure(f"artifact not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"artifact {p} is not valid JSON: {exc}") from exc
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"artifact {p} missing fields: {missing}")
    return obj
