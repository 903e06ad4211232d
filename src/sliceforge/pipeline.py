"""The pipeline's stages, which `build` and the staged commands both run.

Each `stage_*` takes and returns the values that the stage artifacts hold,
so a build equals its staged commands run on the same inputs. All but
`stage_export` only compute; it writes the pages, instructions, stability
report and manifest.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .codec import decode, encode, json_text, read_json, require_encoding
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
    check_grid,
    load_transfer_function,
    load_volume,
)


DEFAULT_RESOLUTION = 128  # voxels per axis of a mesh build given no resolution


@dataclass
class GridInfo:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = field(metadata={"json": "spacing_mm"})
    origin: tuple[float, float, float] = field(metadata={"json": "origin_mm"})
    orientations: tuple[str, str]

    def __post_init__(self):
        """A volume's grid rules, and two distinct axes of x, y and z."""
        check_grid(self.dims, self.spacing, self.origin)
        up_axis(self.orientations)

    @staticmethod
    def from_json(obj: dict, path: str) -> "GridInfo":
        """The grid of the artifact read from `path`."""
        return decode(GridInfo, obj, f"grid {path}")

    @property
    def axes(self) -> tuple[int, int, int]:
        return (
            AXES.index(self.orientations[0]),
            AXES.index(self.orientations[1]),
            AXES.index(up_axis(self.orientations)),
        )

    def check_inside(self, path: str, slices: list[Slice]) -> None:
        """Every slice of the artifact read from `path` lies in one of the
        grid's orientations, with a non-empty extent, and on a plane, inside
        the grid."""
        a, b, up = (self.dims[i] for i in self.axes)
        limits = {self.orientations[0]: (a, b, up), self.orientations[1]: (b, a, up)}
        for s in slices:
            if s.orientation not in limits:
                raise ValidationError(f"slices {path}: slice {s.id} has orientation {s.orientation!r}, "
                                      f"not one of the grid's {self.orientations}")
            (u0, v0, u1, v1), (n, nu, nv) = s.extent, limits[s.orientation]
            if not (0 <= s.plane_coord <= n and 0 <= u0 < u1 <= nu and 0 <= v0 < v1 <= nv):
                raise ValidationError(f"slices {path}: slice {s.id} on plane {s.plane_coord} with extent "
                                      f"{s.extent} is empty or leaves the {self.dims} grid")


def load_input(
    input_path: str | None,
    header: str | None,
    tf_path: str | None,
    meshes: list[str] | None,
    resolution: int | None,
) -> tuple[ScalarVolume, TransferFunction]:
    """Either a raw volume + header + explicit transfer function, or OBJ
    meshes, voxelized at `resolution` (None: DEFAULT_RESOLUTION) per axis,
    with the automatic transfer function unless `tf_path` names a file.
    Meshes exclude `--input` and `--header`; a volume excludes a resolution."""
    if meshes:
        if input_path or header:
            raise ValidationError("--meshes excludes --input and --header: give meshes or a volume, not both")
        mesh_set = MeshSet(meshes=tuple(load_obj(p) for p in meshes))
        resolution = DEFAULT_RESOLUTION if resolution is None else resolution
        volume, tf = voxelize_meshes(mesh_set, (resolution,) * 3)
        if tf_path and tf_path != "auto":
            tf = load_transfer_function(tf_path)
        return volume, tf
    if not input_path or not header:
        raise ValidationError("volume input requires --input and --header")
    if not tf_path or tf_path == "auto":
        raise ValidationError("volume input requires an explicit --tf (auto is meshes-only)")
    if resolution is not None:
        raise ValidationError(f"--resolution {resolution} voxelizes meshes; a volume keeps its own grid")
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


def stage_pack(slices: list[Slice], plan: AssemblyPlan, grid: GridInfo, page_size: tuple[float, float], sheets: int,
               slot_width_mm: float, margin: float, gutter: float) -> PageLayout:
    clusters = cluster_slices(slices, plan, grid.dims, grid.orientations)
    return pack(slices, plan, clusters, grid.spacing, orientations=grid.orientations, page_size=page_size,
                sheets=sheets, slot_width_mm=slot_width_mm, margin=margin, gutter=gutter)


def stage_export(outdir: str | Path, labels: LabelVolume, tf: TransferFunction, slices: list[Slice],
                 hinges: list[Hinge], plan: AssemblyPlan, layout: PageLayout, grid: GridInfo,
                 slot_width_mm: float, px_per_mm: float, perforate: bool) -> dict:
    """Write pages, instructions, manifest, and the stability report."""
    pixels = sum(math.prod(raster_size(s, labels.spacing, layout.scale, px_per_mm, grid.orientations)) for s in slices)
    if pixels > MAX_RASTER_PIXELS:
        raise ValidationError(
            f"the slices would render to {pixels:,} raster pixels at {px_per_mm:g} px/mm, "
            f"more than the {MAX_RASTER_PIXELS:,} an export holds",
            hint="lower --dpi",
        )
    outdir = Path(outdir)
    try:
        (outdir / "pages").mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        raise IOFailure(f"cannot make output directory {outdir / 'pages'}: {exc.strerror}") from exc
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
        _write(outdir / "pages" / name, svg, "page")
        page_names.append(f"pages/{name}")
    for old in (outdir / "pages").glob("page-*.svg"):
        if f"pages/{old.name}" not in page_names:
            old.unlink()  # left by an earlier run with more pages
    instructions = emit_instructions(
        plan, hinges, slices, grid.dims, grid.orientations, page_size=layout.page_size
    )
    _write(outdir / "instructions.svg", instructions, "instructions")

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
    _write(outdir / "stability.json", json_text(encode(stability)), "stability report")

    manifest = encode({
        "version": __version__,
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
    _write(outdir / "manifest.json", json_text(manifest), "manifest")
    return manifest


def plan_from_json(obj: dict, path: str, plan: AssemblyPlan, hinges_path: str) -> AssemblyPlan:
    """`plan`, which `order` derives from `hinges_path`, if the artifact read from `path` holds it as `obj`."""
    return require_encoding(obj, plan, f"plan {path}", f"the hinges of {hinges_path}",
                            f"rewrite it from {hinges_path} with `sliceforge order`")


@dataclass(frozen=True)
class LayoutOptions:
    """The options that a layout artifact holds beside its packing, by their JSON keys."""

    page_size_mm: tuple[float, float]
    margin_mm: float
    gutter_mm: float
    sheets: int
    scale: float
    slot_width_mm: float


def layout_from_json(obj: dict, path: str) -> LayoutOptions:
    """The options of the pack artifact read from `path`; its packing is derived from them and compared."""
    return decode(LayoutOptions, obj, f"layout artifact {path}")


def _write(path: Path, text: str, what: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:  # a missing directory, a directory in the way, no permission
        raise IOFailure(f"cannot write {what} {path}: {exc.strerror}") from exc


def write_artifact(path: str | Path, obj: dict) -> None:
    _write(Path(path), json_text(obj), "artifact")


def read_artifact(path: str | Path) -> dict:
    obj = read_json(path, "artifact")
    if not isinstance(obj, dict):
        raise ValidationError(f"artifact {path} is not a JSON object")
    return obj
