"""Command-line interface.

`sliceforge build` runs the whole pipeline; `slice`, `hinge`, `order`,
`pack`, and `export` run single stages on JSON artifacts so intermediate
results can be inspected or golden-tested. Each option takes the value of
its flag, else of its key in the `--config` JSON file, else its default.
Exit codes: 0 ok; 2 validation, which includes an input file that is no
UTF-8 or JSON text; 3 infeasible; 4 I/O: any input file (OBJ, raw volume,
header, transfer function, `--config` or stage artifact) missing or
unreadable, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import pipeline
from .codec import encode, read_json
from .errors import SliceforgeError, ValidationError
from .hinges import hinges_from_json
from .layout import DEFAULT_GUTTER_MM, DEFAULT_MARGIN_MM, PAGE_SIZES_MM
from .octree import slices_from_json
from .pipeline import GridInfo
from .volume import quantize

# the densest raster, in pixels per mm (2540 dpi); more only makes rasters too big to allocate
MAX_PX_PER_MM = 100.0


def _finite(value) -> bool:
    """A float can hold it: not nan, not infinite, and no integer too large
    to convert (Python compares an int with a float exactly)."""
    return abs(value) <= sys.float_info.max


def _positive(value) -> bool:
    return _finite(value) and value > 0


def _finite_non_negative(value) -> bool:
    return _finite(value) and value >= 0


def _parse_page(text: str) -> tuple[float, float]:
    """A4, A3, or WxH, as a (width, height) in mm, both finite and > 0."""
    try:
        size = PAGE_SIZES_MM.get(text) or tuple(float(v) for v in text.lower().split("x"))
    except ValueError:
        size = ()
    if len(size) != 2 or not all(_positive(v) for v in size):
        raise argparse.ArgumentTypeError(f"page must be A4, A3, or WxH in mm, both finite and > 0, got {text!r}")
    return size


def _parse_orientations(text: str) -> tuple[str, str]:
    parts = tuple(p.strip() for p in text.replace(",", " ").split())
    if len(parts) == 1 and len(parts[0]) == 2:
        parts = (parts[0][0], parts[0][1])
    if len(parts) != 2 or any(p not in ("x", "y", "z") for p in parts) or parts[0] == parts[1]:
        raise argparse.ArgumentTypeError(f"orientations must be two distinct axes from x,y,z, got {text!r}")
    return parts


@contextmanager
def _stage(name: str):
    """Tag pipeline errors with the stage they came from."""
    try:
        yield
    except SliceforgeError as exc:
        exc.stage = name
        raise


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="raw volume file")
    p.add_argument("--header", help="JSON sidecar header for --input")
    p.add_argument("--tf", help="transfer-function JSON, or 'auto' with meshes")
    p.add_argument("--meshes", nargs="+", help="OBJ files (one intensity per mesh)")
    p.add_argument("--resolution", type=int, default=128, help="voxelization grid per axis for meshes")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="picks the first k-means centre when packing; the same seed gives the same layout")
    p.add_argument("--config", help="JSON object of option values by name, e.g. {\"sheets\": 2}; "
                   "an option takes its flag, else its config key, else its default")


def _add_slice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", type=int, default=3, help="highest octree level L")
    p.add_argument("--orientations", type=_parse_orientations, default="x,y",
                   help="two slicing plane normals, e.g. x,y")


def _add_pack_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--page", type=_parse_page, default="A4", help="A4, A3, or WxH in mm")
    p.add_argument("--sheets", type=int, default=1)
    p.add_argument("--slot-width", dest="slot_width", type=float, default=1.0, help="slot width in model mm")
    p.add_argument("--k-max", dest="k_max", type=int, default=6)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN_MM)
    p.add_argument("--gutter", type=float, default=DEFAULT_GUTTER_MM)


def _add_export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dpi", type=float, default=4.0, help=f"raster density in pixels per mm, <= {MAX_PX_PER_MM:g}")
    p.add_argument("--perforate", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sliceforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="run the full pipeline")
    _add_input_args(b)
    _add_common_args(b)
    _add_slice_args(b)
    _add_pack_args(b)
    _add_export_args(b)
    b.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("slice", help="octree partition + slice unification")
    _add_input_args(s)
    _add_common_args(s)
    _add_slice_args(s)
    s.add_argument("--out", required=True, help="slices artifact path")

    h = sub.add_parser("hinge", help="classify slice intersections")
    h.add_argument("--in", dest="inp", required=True, help="slices artifact")
    h.add_argument("--out", required=True, help="hinges artifact path")
    _add_common_args(h)

    o = sub.add_parser("order", help="solve the assembly order")
    o.add_argument("--in", dest="inp", required=True, help="hinges artifact")
    o.add_argument("--out", required=True, help="plan artifact path")
    _add_common_args(o)

    k = sub.add_parser("pack", help="cluster, partition pages, and pack slices")
    k.add_argument("--in", dest="inp", required=True, help="hinges artifact")
    k.add_argument("--plan", required=True, help="plan artifact")
    k.add_argument("--out", required=True, help="layout artifact path")
    _add_pack_args(k)
    _add_common_args(k)

    e = sub.add_parser("export", help="emit print pages, instructions, manifest")
    e.add_argument("--in", dest="inp", required=True, help="layout artifact")
    e.add_argument("--hinges", required=True, help="hinges artifact")
    e.add_argument("--plan", required=True, help="plan artifact")
    _add_input_args(e)
    _add_common_args(e)
    _add_export_args(e)
    e.add_argument("--out", required=True, help="output directory")
    return parser


# options held to a range as well as a kind: the test and how a message names it.
# Slot width and raster density scale the print; only positive values make one.
# Margins and gutters measure paper; the seed picks the first k-means centre.
_RANGES = {
    "slot_width": (_positive, "a positive number"),
    "dpi": (lambda value: _positive(value) and value <= MAX_PX_PER_MM,
            f"a positive number of pixels per mm, at most {MAX_PX_PER_MM:g}"),
    "margin": (_finite_non_negative, "a finite number >= 0"),
    "gutter": (_finite_non_negative, "a finite number >= 0"),
    "seed": (lambda value: value >= 0, "an integer >= 0"),
}


def _resolve_options(parser: argparse.ArgumentParser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Make the --config keys, each of its option's JSON kind, the defaults
    and parse argv again, so a flag beats a config key and a config value
    meets a flag's converter; then hold every value in `_RANGES` to its range."""
    if args.config:
        cfg = read_json(args.config, "config file")
        if not isinstance(cfg, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
        actions = {a.dest: a for a in sub._actions if a.dest != "help"}
        for key, value in cfg.items():
            if key not in actions:
                raise ValidationError(f"unknown config key {key!r} for command {args.command!r}")
            action = actions[key]
            if action.type is int:
                ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
            elif action.type is float:
                ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
            elif isinstance(action, argparse._StoreTrueAction):
                ok, kind = isinstance(value, bool), "true or false"
            elif action.nargs == "+":
                ok = isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)
                kind = "a list of strings"
            else:
                ok, kind = isinstance(value, str), "a string"
            if key in _RANGES:
                kind = _RANGES[key][1]
            if not ok and not (value is None and action.default is None):
                raise ValidationError(f"{action.option_strings[0]} must be {kind}, got {value!r}")
            if action.type in (int, float):
                cfg[key] = str(value)  # argparse converts a string default with type=
        sub.set_defaults(**cfg)
        args = parser.parse_args(argv)
    for key, (in_range, kind) in _RANGES.items():
        if hasattr(args, key) and not in_range(getattr(args, key)):
            raise ValidationError(f"--{key.replace('_', '-')} must be {kind}, got {getattr(args, key)!r}")
    return args


def _load_labels(args):
    with _stage("ingest"):
        volume, tf = pipeline.load_input(
            args.input, args.header, args.tf, args.meshes, args.resolution
        )
        return quantize(volume, tf), tf


def cmd_build(args) -> int:
    labels, tf = _load_labels(args)
    grid = GridInfo(labels.dims, labels.spacing, labels.origin, args.orientations)

    with _stage("octree"):
        slices = pipeline.stage_slice(labels, args.level, args.orientations)
    with _stage("hinge"):
        hinges = pipeline.stage_hinges(slices, args.orientations)
    with _stage("order"):
        plan, _report = pipeline.stage_order(hinges, slices, grid)
    with _stage("pack"):
        layout = pipeline.stage_pack(
            slices, plan, grid, args.page, args.sheets, args.slot_width,
            args.margin, args.gutter, args.k_max, args.seed,
        )
    with _stage("export"):
        manifest = pipeline.stage_export(
            args.out, labels, tf, slices, hinges, plan, layout, grid,
            slot_width_mm=args.slot_width, seed=args.seed,
            px_per_mm=args.dpi, perforate=args.perforate,
        )
    s = manifest["summary"]
    print(
        f"{s['slice_count']} slices, {s['hinge_count']} hinges, k={s['clusters']}, "
        f"scale={s['scale']:.3f}, pages={s['pages']}, balanced={s['balanced']}"
    )
    print(f"wrote {Path(args.out) / 'manifest.json'}")
    return 0


def cmd_slice(args) -> int:
    labels, _tf = _load_labels(args)
    grid = GridInfo(labels.dims, labels.spacing, labels.origin, args.orientations)
    with _stage("octree"):
        slices = pipeline.stage_slice(labels, args.level, args.orientations)
    pipeline.write_artifact(args.out, encode({"grid": grid, "slices": slices}))
    print(f"{len(slices)} slices -> {args.out}")
    return 0


def cmd_hinge(args) -> int:
    art = pipeline.read_artifact(args.inp)
    grid, slices = _read_slices(art, args.inp)
    with _stage("hinge"):
        hinges = pipeline.stage_hinges(slices, grid.orientations)
    pipeline.write_artifact(
        args.out, {"grid": art["grid"], "slices": art["slices"], "hinges": encode(hinges)}
    )
    print(f"{len(hinges)} hinges -> {args.out}")
    return 0


def _check_unique_ids(what: str, path: str, ids) -> None:
    ids = sorted(ids)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise ValidationError(f"{what} {path} hold the ids {repeated} more than once")


def _read_slices(art: dict, path: str):
    """The grid and slices of the artifact `art` read from `path`; no two
    slices share an id."""
    grid = GridInfo.from_json(art.get("grid"), path)
    slices = slices_from_json(art.get("slices"), path)
    _check_unique_ids("slices", path, (s.id for s in slices))
    return grid, slices


def _read_hinges(path: str):
    """The grid, slices and hinges of a hinges artifact; no two hinges share
    an id, and every hinge joins a slice of the first orientation (slice_a)
    to one of the second (slice_b)."""
    art = pipeline.read_artifact(path)
    grid, slices = _read_slices(art, path)
    hinges = hinges_from_json(art.get("hinges"), path)
    _check_unique_ids("hinges", path, (h.id for h in hinges))
    unknown = sorted(({h.slice_a for h in hinges} | {h.slice_b for h in hinges}) - {s.id for s in slices})
    if unknown:
        raise ValidationError(f"hinges {path} join slices {unknown} that the artifact does not hold")
    family = {s.id: s.orientation for s in slices}
    for h in hinges:
        if (family[h.slice_a], family[h.slice_b]) != tuple(grid.orientations):
            raise ValidationError(f"hinges {path}: hinge {h.id} joins slices {h.slice_a} and {h.slice_b}; slice_a must "
                                  f"be of orientation {grid.orientations[0]} and slice_b of {grid.orientations[1]}")
    return grid, slices, hinges


def cmd_order(args) -> int:
    grid, slices, hinges = _read_hinges(args.inp)
    with _stage("order"):
        plan, _report = pipeline.stage_order(hinges, slices, grid)
    pipeline.write_artifact(args.out, encode(plan))
    print(f"plan ({'exact' if plan.exact else 'heuristic'}) -> {args.out}")
    return 0


def _check_same_run(hinges_path, slices, hinges, plan_path, plan, layout_path=None, layout=None) -> None:
    """The plan, and the layout if given, come from the run that wrote the
    hinges artifact: they hold exactly its hinges and slices."""
    hint = "use the hinges, plan and layout artifacts of one run"
    if layout is not None and sorted(p.slice_id for p in layout.placements) != sorted(s.id for s in slices):
        raise ValidationError(f"layout {layout_path} does not place exactly the slices of {hinges_path}", hint=hint)
    if sorted(plan.hinge_order) != sorted(h.id for h in hinges):
        raise ValidationError(f"plan {plan_path} does not order exactly the hinges of {hinges_path}", hint=hint)


def cmd_pack(args) -> int:
    grid, slices, hinges = _read_hinges(args.inp)
    plan = pipeline.plan_from_json(pipeline.read_artifact(args.plan), args.plan)
    _check_same_run(args.inp, slices, hinges, args.plan, plan)
    with _stage("pack"):
        layout = pipeline.stage_pack(
            slices, plan, grid, args.page, args.sheets, args.slot_width,
            args.margin, args.gutter, args.k_max, args.seed,
        )
    pipeline.write_artifact(
        args.out, encode(layout) | {"slot_width_mm": args.slot_width, "seed": args.seed}
    )
    print(f"scale {layout.scale:.3f} on {layout.sheets} page(s) -> {args.out}")
    return 0


def cmd_export(args) -> int:
    layout, slot_width, seed = pipeline.layout_from_json(pipeline.read_artifact(args.inp), args.inp)
    grid, slices, hinges = _read_hinges(args.hinges)
    plan = pipeline.plan_from_json(pipeline.read_artifact(args.plan), args.plan)
    _check_same_run(args.hinges, slices, hinges, args.plan, plan, args.inp, layout)
    labels, tf = _load_labels(args)
    if labels.dims != grid.dims:
        raise ValidationError(
            f"volume dims {labels.dims} do not match the artifact grid {grid.dims}"
        )
    if labels.spacing != grid.spacing:
        raise ValidationError(
            f"volume spacing {labels.spacing} does not match the artifact grid {grid.spacing}"
        )
    with _stage("export"):
        manifest = pipeline.stage_export(
            args.out, labels, tf, slices, hinges, plan, layout, grid,
            slot_width_mm=slot_width, seed=seed,
            px_per_mm=args.dpi, perforate=args.perforate,
        )
    print(f"wrote {len(manifest['pages'])} page(s) -> {args.out}")
    return 0


_COMMANDS = {
    "build": cmd_build,
    "slice": cmd_slice,
    "hinge": cmd_hinge,
    "order": cmd_order,
    "pack": cmd_pack,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _resolve_options(parser, args, argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse has printed the usage and why (or the help)
        return exc.code
    except SliceforgeError as exc:  # args is bound: only argparse raises before it is
        stage = getattr(exc, "stage", args.command)
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        if exc.hint:
            print(f"hint: {exc.hint}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
