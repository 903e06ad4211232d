"""Command-line interface.

`sliceforge build` runs the whole pipeline in memory; the staged commands
run one stage each through JSON artifacts, so intermediate results can be
inspected or golden-tested, and together write what `build` writes. `slice`
reads the volume or meshes and writes the slices artifact (grid and slices);
`hinge` reads it and writes the hinges artifact (grid, slices and hinges);
`order` reads that and writes the plan artifact; `pack` reads the hinges and
plan artifacts and writes the layout artifact, with its slot width;
`export` reads the layout, hinges and plan artifacts and the volume or
meshes, and writes the print. One reader per artifact kind decodes it and
checks it: against itself, against the hinges artifact of its run, and, for
the volume, against the artifact grid. Hinges are where slices cross, so a
command that reads a hinges artifact derives them again from its slices and
takes the artifact only if it holds exactly those. Each JSON file is written
on one line; `python -m json.tool FILE` prints it indented. A command takes
only the options it reads: any other flag, or any other key in its
`--config` JSON file, exits 2. Each option takes the value of its flag, else
of its config key, else its default; an artifact path (--in, --hinges,
--plan, --out) has no default, and without flag or key the command exits 2.
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
from typing import NamedTuple

from . import pipeline
from .codec import encode, read_json
from .errors import SliceforgeError, ValidationError
from .hinges import hinges_from_json
from .layout import DEFAULT_GUTTER_MM, DEFAULT_MARGIN_MM, PAGE_SIZES_MM
from .octree import slices_from_json, up_axis
from .pipeline import GridInfo
from .render import DEFAULT_PX_PER_MM
from .volume import quantize

# the densest raster, in pixels per mm (2540 dpi); more only makes rasters too big to allocate
MAX_PX_PER_MM = 100.0
# how far, in mm, a placement of a layout artifact may overhang its page's
# usable area: the slack of perfbench's layout check
_SLACK_MM = 1e-6


def _finite(value) -> bool:
    """A float can hold it: not nan, not infinite, and no integer too large
    to convert (Python compares an int with a float exactly)."""
    return abs(value) <= sys.float_info.max


def _positive(value) -> bool:
    return _finite(value) and value > 0


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
    """x,y, x y or xy, held to `up_axis`'s rule."""
    parts = tuple(text.replace(",", " ").split())
    parts = tuple(parts[0]) if len(parts) == 1 and len(parts[0]) == 2 else parts
    try:
        up_axis(parts)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return parts


@contextmanager
def _stage(name: str):
    """Tag pipeline errors with the stage they came from."""
    try:
        yield
    except SliceforgeError as exc:
        exc.stage = name
        raise


_VOLUME = ("build", "slice", "export")  # the commands that read a volume or meshes
_PACK = ("build", "pack")
_EXPORT = ("build", "export")
_PAPER = (lambda value: _finite(value) and value >= 0, "a finite number >= 0")


class _Option(NamedTuple):
    flag: str
    commands: tuple[str, ...] | dict[str, str]  # a dict gives each command its own help
    kwargs: dict  # argparse keywords
    range: tuple | None = None  # (test, what a message says the value must be)


# Every option once, by the name it sets, on only the commands that read it.
# Slot width and raster density scale the print; only positive values make one.
# Margins and gutters measure paper. k-means starts from one fixed centre, so
# no option picks it: the clustering follows from the slices alone.
_OPTIONS = {
    "inp": _Option("--in", {"hinge": "slices artifact", "order": "hinges artifact", "pack": "hinges artifact",
                            "export": "layout artifact"}, dict(required=True)),
    "hinges": _Option("--hinges", ("export",), dict(required=True, help="hinges artifact")),
    "plan": _Option("--plan", ("pack", "export"), dict(required=True, help="plan artifact")),
    "input": _Option("--input", _VOLUME, dict(help="raw volume file")),
    "header": _Option("--header", _VOLUME, dict(help="JSON sidecar header for --input")),
    "tf": _Option("--tf", _VOLUME, dict(help="transfer-function JSON, or 'auto' with meshes")),
    "meshes": _Option("--meshes", _VOLUME, dict(nargs="+", help="OBJ files (one intensity per mesh)")),
    "resolution": _Option("--resolution", _VOLUME, dict(
        type=int, help=f"voxelization grid per axis for meshes (default {pipeline.DEFAULT_RESOLUTION})")),
    "level": _Option("--level", ("build", "slice"), dict(type=int, default=3, help="highest octree level L")),
    "orientations": _Option("--orientations", ("build", "slice"),
                            dict(type=_parse_orientations, default="x,y", help="two slicing plane normals, e.g. x,y")),
    "page": _Option("--page", _PACK, dict(type=_parse_page, default="A4", help="A4, A3, or WxH in mm")),
    "sheets": _Option("--sheets", _PACK, dict(type=int, default=1)),
    "slot_width": _Option("--slot-width", _PACK, dict(type=float, default=1.0, help="slot width in model mm"),
                          (_positive, "a positive number")),
    "k_max": _Option("--k-max", _PACK, dict(type=int, default=6)),
    "margin": _Option("--margin", _PACK, dict(type=float, default=DEFAULT_MARGIN_MM), _PAPER),
    "gutter": _Option("--gutter", _PACK, dict(type=float, default=DEFAULT_GUTTER_MM), _PAPER),
    "dpi": _Option("--dpi", _EXPORT,
                   dict(type=float, default=DEFAULT_PX_PER_MM, help=f"raster density in pixels per mm, <= {MAX_PX_PER_MM:g}"),
                   (lambda value: _positive(value) and value <= MAX_PX_PER_MM,
                    f"a positive number of pixels per mm, at most {MAX_PX_PER_MM:g}")),
    "perforate": _Option("--perforate", _EXPORT, dict(action="store_true")),
    "config": _Option("--config", ("build", "slice", "hinge", "order", "pack", "export"), dict(
        help="JSON object of option values by name, e.g. {\"sheets\": 2}; "
        "an option takes its flag, else its config key, else its default")),
    "out": _Option("--out", {"build": "output directory", "slice": "slices artifact path",
                             "hinge": "hinges artifact path", "order": "plan artifact path",
                             "pack": "layout artifact path", "export": "output directory"}, dict(required=True)),
}

# the JSON kind of a config value, by its option's argparse type, action or
# nargs, and what a message calls it; any other option takes a string
_KINDS = {
    int: (lambda value: type(value) is int, "an integer"),
    float: (lambda value: type(value) in (int, float), "a number"),
    "store_true": (lambda value: type(value) is bool, "true or false"),
    "+": (lambda value: type(value) is list and value and all(type(v) is str for v in value), "a list of strings"),
    None: (lambda value: type(value) is str, "a string"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sliceforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_run, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.set_defaults(parser=p)  # where _resolve_options puts the config values
        for dest, (flag, commands, kwargs, _range) in _OPTIONS.items():
            if command in commands:
                if isinstance(commands, dict):
                    kwargs = {**kwargs, "help": commands[command]}
                p.add_argument(flag, dest=dest, **{**kwargs, "required": False})  # a config key may give it
    return parser


def _resolve_options(parser: argparse.ArgumentParser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Make each --config key, once it has its option's JSON kind, the
    option's default and parse argv again, so a flag beats a config key and
    a config value meets a flag's converter; then require every required
    option and hold every option that has a range to it."""
    options = {dest: option for dest, option in _OPTIONS.items() if args.command in option.commands}
    if args.config:
        cfg = read_json(args.config, "config file")
        if not isinstance(cfg, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        for key, value in cfg.items():
            if key not in options or key == "config":
                raise ValidationError(f"unknown config key {key!r} for command {args.command!r}")
            flag, _commands, kwargs, limit = options[key]
            is_kind, kind = _KINDS.get(kwargs.get("type") or kwargs.get("action") or kwargs.get("nargs"), _KINDS[None])
            if not is_kind(value) and not (value is None and kwargs.get("default") is None):
                raise ValidationError(f"{flag} must be {limit[1] if limit else kind}, got {value!r}")
            if kwargs.get("type") in (int, float):
                cfg[key] = str(value)  # argparse converts a string default with type=
        args.parser.set_defaults(**cfg)
        args = parser.parse_args(argv)
    for dest, (flag, _commands, kwargs, limit) in options.items():
        if kwargs.get("required") and getattr(args, dest) is None:
            raise ValidationError(f"{flag} is required: give the flag or the config key {dest!r}")
        if limit and not limit[0](getattr(args, dest)):
            raise ValidationError(f"{flag} must be {limit[1]}, got {getattr(args, dest)!r}")
    return args


def _load_labels(args, grid: GridInfo | None = None):
    """The labels and transfer function of the volume or meshes the flags
    name; with `grid`, the volume must lie on that artifact grid."""
    with _stage("ingest"):
        volume, tf = pipeline.load_input(args.input, args.header, args.tf, args.meshes, args.resolution)
    for what, verb in (("dims", "do"), ("spacing", "does"), ("origin", "does")) if grid is not None else ():
        if getattr(volume, what) != getattr(grid, what):  # before quantize: a volume of another run is not labelled
            raise ValidationError(f"volume {what} {getattr(volume, what)} {verb} not match "
                                  f"the artifact grid {getattr(grid, what)}")
    with _stage("ingest"):
        return quantize(volume, tf), tf


def _read_slices(art: dict, path: str):
    """The grid and slices of the artifact `art` read from `path`; no two
    slices share an id, and no two coplanar slices meet (overlap or share
    an edge of positive length), as `octree.unify_slices` leaves them."""
    grid = GridInfo.from_json(art.get("grid"), path)
    slices = slices_from_json(art.get("slices"), path)
    ids = sorted(s.id for s in slices)
    repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if repeated:
        raise ValidationError(f"slices {path} hold the ids {repeated} more than once")
    grid.check_inside(path, slices)
    # sorted by plane and u0, a slice can only meet the ones after it on its
    # plane up to the first that starts beyond its u1
    ordered = sorted(slices, key=lambda s: (s.orientation, s.plane_coord, s.extent[0]))
    for i, a in enumerate(ordered):
        _, av0, au1, av1 = a.extent
        for b in ordered[i + 1:]:
            bu0, bv0, bu1, bv1 = b.extent
            if (b.orientation, b.plane_coord) != (a.orientation, a.plane_coord) or bu0 > au1:
                break
            du, dv = min(au1, bu1) - bu0, min(av1, bv1) - max(av0, bv0)
            if min(du, dv) >= 0 < max(du, dv):  # the predicate unify_slices merges on
                raise ValidationError(f"slices {path}: slices {a.id} and {b.id} on {a.orientation} plane "
                                      f"{a.plane_coord} overlap or share an edge, which unified slices never do")
    return grid, slices


def _read_hinges(path: str):
    """The grid, slices and hinges of a hinges artifact, whose hinges must
    be exactly those its slices cross in (`hinges_from_json`)."""
    art = pipeline.read_artifact(path)
    grid, slices = _read_slices(art, path)
    return grid, slices, hinges_from_json(art.get("hinges"), path, slices, grid.orientations)


_SAME_RUN = "use the hinges, plan and layout artifacts of one run"


def _read_plan(path: str, hinges_path: str, slices, hinges):
    """The plan artifact at `path`, of the run that wrote the hinges artifact
    at `hinges_path`: it orders exactly that run's hinges, and each of its
    slices once."""
    plan = pipeline.plan_from_json(pipeline.read_artifact(path), path)
    if sorted(plan.hinge_order) != sorted(h.id for h in hinges):
        raise ValidationError(f"plan {path} does not order exactly the hinges of {hinges_path}", hint=_SAME_RUN)
    if sorted(plan.slice_order) != sorted(s.id for s in slices):
        raise ValidationError(f"plan {path} does not order each slice of {hinges_path} exactly once", hint=_SAME_RUN)
    return plan


def _read_layout(path: str, hinges_path: str, slices):
    """The layout and slot width of the layout artifact at `path`, of the
    run that wrote the hinges artifact at `hinges_path`: it places and
    clusters exactly that run's slices, each inside the usable area of one
    of its pages, has a partition only for a cluster that holds a slice, and
    holds only values that `pack` can write."""
    layout, slot_width = pipeline.layout_from_json(pipeline.read_artifact(path), path)
    for name, value, (in_range, what) in (
        ("sheets", layout.sheets, (lambda n: n >= 1, "an integer >= 1")),
        ("page_size_mm", layout.page_size, (lambda size: all(_positive(v) for v in size), "two positive numbers")),
        ("scale", layout.scale, (_positive, "a positive number")),
        ("margin_mm", layout.margin, _PAPER),
        ("gutter_mm", layout.gutter, _PAPER),
        ("slot_width_mm", slot_width, _OPTIONS["slot_width"].range),
    ):
        if not in_range(value):
            raise ValidationError(f"layout {path}: {name} must be {what}, got {value!r}")
    if not all(0 <= p.page < layout.sheets for p in (*layout.placements, *layout.partitions)):
        raise ValidationError(f"layout {path} places a slice or a cluster off its {layout.sheets} page(s)")
    (page_w, page_h), m = layout.page_size, layout.margin
    for p in layout.placements:
        if not (_positive(p.w) and _positive(p.h) and m - _SLACK_MM <= p.x and p.x + p.w <= page_w - m + _SLACK_MM
                and m - _SLACK_MM <= p.y and p.y + p.h <= page_h - m + _SLACK_MM):
            raise ValidationError(f"layout {path}: slice {p.slice_id} at ({p.x!r}, {p.y!r}) of size "
                                  f"{p.w!r} x {p.h!r} mm leaves the usable area of its page")
    placed = sorted(p.slice_id for p in layout.placements)
    if placed != sorted(s.id for s in slices):
        raise ValidationError(f"layout {path} does not place exactly the slices of {hinges_path}", hint=_SAME_RUN)
    if sorted(layout.cluster_of) != placed:  # the manifest counts the clusters of this map
        raise ValidationError(f"layout {path} does not cluster exactly the slices it places", hint=_SAME_RUN)
    empty = sorted({p.cluster for p in layout.partitions} - set(layout.cluster_of.values()))
    if empty:
        raise ValidationError(f"layout {path} has partitions for clusters {empty}, which hold no slice")
    return layout, slot_width


# Each stage runs in one function, which `build` and the staged command share.
@_stage("octree")
def _slice(args, labels):
    grid = GridInfo(labels.dims, labels.spacing, labels.origin, args.orientations)
    return grid, pipeline.stage_slice(labels, args.level, args.orientations)


@_stage("hinge")
def _hinge(grid, slices):
    return pipeline.stage_hinges(slices, grid.orientations)


@_stage("order")
def _order(grid, slices, hinges):
    return pipeline.stage_order(hinges, slices, grid)[0]  # the plan; no output records the verification report


@_stage("pack")
def _pack(args, grid, slices, plan):
    return pipeline.stage_pack(
        slices, plan, grid, args.page, args.sheets, args.slot_width,
        args.margin, args.gutter, args.k_max,
    )


@_stage("export")
def _export(args, labels, tf, grid, slices, hinges, plan, layout, slot_width):
    return pipeline.stage_export(
        args.out, labels, tf, slices, hinges, plan, layout, grid,
        slot_width_mm=slot_width, px_per_mm=args.dpi, perforate=args.perforate,
    )


def cmd_build(args) -> int:
    labels, tf = _load_labels(args)
    grid, slices = _slice(args, labels)
    hinges = _hinge(grid, slices)
    plan = _order(grid, slices, hinges)
    layout = _pack(args, grid, slices, plan)
    manifest = _export(args, labels, tf, grid, slices, hinges, plan, layout, args.slot_width)
    s = manifest["summary"]
    print(
        f"{s['slice_count']} slices, {s['hinge_count']} hinges, k={s['clusters']}, "
        f"scale={s['scale']:.3f}, pages={s['pages']}, balanced={s['balanced']}"
    )
    print(f"wrote {Path(args.out) / 'manifest.json'}")
    return 0


def cmd_slice(args) -> int:
    grid, slices = _slice(args, _load_labels(args)[0])
    pipeline.write_artifact(args.out, encode({"grid": grid, "slices": slices}))
    print(f"{len(slices)} slices -> {args.out}")
    return 0


def cmd_hinge(args) -> int:
    art = pipeline.read_artifact(args.inp)
    hinges = _hinge(*_read_slices(art, args.inp))
    pipeline.write_artifact(args.out, {"grid": art["grid"], "slices": art["slices"], "hinges": encode(hinges)})
    print(f"{len(hinges)} hinges -> {args.out}")
    return 0


def cmd_order(args) -> int:
    plan = _order(*_read_hinges(args.inp))
    pipeline.write_artifact(args.out, encode(plan))
    print(f"plan ({'exact' if plan.exact else 'heuristic'}) -> {args.out}")
    return 0


def cmd_pack(args) -> int:
    grid, slices, hinges = _read_hinges(args.inp)
    layout = _pack(args, grid, slices, _read_plan(args.plan, args.inp, slices, hinges))
    pipeline.write_artifact(args.out, encode(layout) | {"slot_width_mm": args.slot_width})
    print(f"scale {layout.scale:.3f} on {layout.sheets} page(s) -> {args.out}")
    return 0


def cmd_export(args) -> int:
    # the other inputs are held to the hinges artifact, so it is read first
    grid, slices, hinges = _read_hinges(args.hinges)
    layout, slot_width = _read_layout(args.inp, args.hinges, slices)
    plan = _read_plan(args.plan, args.hinges, slices, hinges)
    labels, tf = _load_labels(args, grid)
    manifest = _export(args, labels, tf, grid, slices, hinges, plan, layout, slot_width)
    print(f"wrote {len(manifest['pages'])} page(s) -> {args.out}")
    return 0


# each command: the function that runs it, and its help
_COMMANDS = {
    "build": (cmd_build, "run the full pipeline"),
    "slice": (cmd_slice, "octree partition + slice unification"),
    "hinge": (cmd_hinge, "classify slice intersections"),
    "order": (cmd_order, "solve the assembly order"),
    "pack": (cmd_pack, "cluster, partition pages, and pack slices"),
    "export": (cmd_export, "emit print pages, instructions, manifest"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _resolve_options(parser, args, argv)
        return _COMMANDS[args.command][0](args)
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
