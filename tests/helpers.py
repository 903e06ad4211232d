"""Shared test utilities: file fixtures and independent oracles.

The oracles here deliberately re-derive behavior with different mechanics
than the package (mask painting instead of rectangle merging, explicit
permutation enumeration instead of branch and bound) so they stay
independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import warnings
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from sliceforge.codec import encode
from sliceforge.errors import ValidationError
from sliceforge.export import CutGeometry, SlotCut
from sliceforge.hinges import Hinge, SlotKind
from sliceforge.layout import slice_print_size
from sliceforge.mesh import REFERENCE_EXTENT_MM, Mesh, MeshSet, _PAD_FRACTION, _inside_by_parity, golden_palette
from sliceforge.octree import Bounds, Slice, iter_nodes, slice_axes
from sliceforge.render import SliceRaster
from sliceforge.volume import LabelVolume, ScalarVolume, TransferBin, TransferFunction, save_volume


def write_volume_files(tmp: Path, volume: ScalarVolume, tf: TransferFunction, stem: str = "vol", dtype: str = "f32"):
    raw = tmp / f"{stem}.raw"
    header = tmp / f"{stem}.json"
    tf_path = tmp / f"{stem}_tf.json"
    save_volume(volume, raw, header, dtype=dtype)
    tf_path.write_text(json.dumps(encode(tf)))
    return raw, header, tf_path


# --- independent slice-count oracle ----------------------------------------


def oracle_slice_count(labels: np.ndarray, max_level: int, orientations=("x", "y")) -> int:
    """Brute-force reimplementation of the subdivision predicate and slice
    counting: recursion over octants collecting raw plane rectangles, then
    mask-based connected-component unification per plane."""
    axis_of = {"x": 0, "y": 1, "z": 2}
    normals = [axis_of[o] for o in orientations]
    up = next(a for a in range(3) if a not in normals)
    planes: dict[tuple[int, int], list[tuple]] = {}

    def distinct(b):
        sub = labels[b[0][0]:b[0][1], b[1][0]:b[1][1], b[2][0]:b[2][1]]
        return {int(v) for v in np.unique(sub)} - {0}

    def visit(b, level):
        for normal in normals:
            lo, hi = b[normal]
            p = (lo + hi) // 2
            if p != lo and p != hi:
                u_ax = normals[1] if normal == normals[0] else normals[0]
                planes.setdefault((normal, p), []).append(
                    (b[u_ax][0], b[up][0], b[u_ax][1], b[up][1])
                )
        if (
            len(distinct(b)) >= 2
            and level < max_level
            and all(hi - lo >= 2 for lo, hi in b)
        ):
            mids = [(lo + hi) // 2 for lo, hi in b]
            for picks in itertools.product((0, 1), repeat=3):
                child = tuple(
                    (b[a][0], mids[a]) if picks[a] == 0 else (mids[a], b[a][1])
                    for a in range(3)
                )
                visit(child, level + 1)

    bounds = tuple((0, int(d)) for d in labels.shape)
    visit(bounds, 1)

    count = 0
    for (normal, _p), rects in planes.items():
        u_ax = normals[1] if normal == normals[0] else normals[0]
        mask_dims = (labels.shape[u_ax], labels.shape[up])
        current = list(rects)
        while True:
            mask = np.zeros(mask_dims, dtype=bool)
            for u0, v0, u1, v1 in current:
                mask[u0:u1, v0:v1] = True
            comps = _components(mask)
            boxes = []
            for comp in comps:
                us, vs = zip(*comp)
                boxes.append((min(us), min(vs), max(us) + 1, max(vs) + 1))
            if sorted(boxes) == sorted(set(current)):
                break
            current = boxes
        count += len(current)
    return count


def _components(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """4-connected components by BFS (edge adjacency, not corners)."""
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for u in range(mask.shape[0]):
        for v in range(mask.shape[1]):
            if not mask[u, v] or seen[u, v]:
                continue
            queue = [(u, v)]
            seen[u, v] = True
            comp = []
            while queue:
                cu, cv = queue.pop()
                comp.append((cu, cv))
                for du, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nu, nv = cu + du, cv + dv
                    if 0 <= nu < mask.shape[0] and 0 <= nv < mask.shape[1]:
                        if mask[nu, nv] and not seen[nu, nv]:
                            seen[nu, nv] = True
                            queue.append((nu, nv))
            comps.append(comp)
    return comps


# --- per-triangle parity oracle -------------------------------------------


def inside_by_parity_reference(mesh: Mesh, centers: tuple[np.ndarray, np.ndarray, np.ndarray], axis: int) -> np.ndarray:
    """Per-triangle parity voxelizer: the loop `sliceforge.mesh._inside_by_parity`
    replaced, kept verbatim as the oracle for the batched version.

    Boolean inside-grid for one mesh using rays along one axis.

    Rays pass through voxel centers; a voxel is inside when an odd number
    of triangle crossings lie below its center along the ray axis. Query
    points are jittered by a sub-nanovoxel irrational offset so rays cannot
    hit shared triangle edges exactly (grid-aligned meshes otherwise double
    count crossings on face diagonals).
    """
    u_axis, v_axis = [a for a in range(3) if a != axis]
    cu, cv, cr = centers[u_axis], centers[v_axis], centers[axis]
    n_u, n_v = len(cu), len(cv)
    cu = cu + (cu[1] - cu[0]) * 2.718281828e-7
    cv = cv + (cv[1] - cv[0]) * 3.141592653e-7

    tri = mesh.vertices[mesh.triangles]  # (m, 3, 3)
    crossings: dict[tuple[int, int], list[float]] = {}
    for a, b, c in tri:
        pu = np.array([a[u_axis], b[u_axis], c[u_axis]])
        pv = np.array([a[v_axis], b[v_axis], c[v_axis]])
        pr = np.array([a[axis], b[axis], c[axis]])
        area2 = (pu[1] - pu[0]) * (pv[2] - pv[0]) - (pu[2] - pu[0]) * (pv[1] - pv[0])
        if area2 == 0.0:
            continue  # parallel to the ray axis: no interior crossing possible
        iu0, iu1 = np.searchsorted(cu, pu.min()), np.searchsorted(cu, pu.max(), side="right")
        iv0, iv1 = np.searchsorted(cv, pv.min()), np.searchsorted(cv, pv.max(), side="right")
        if iu0 >= iu1 or iv0 >= iv1:
            continue
        gu, gv = np.meshgrid(cu[iu0:iu1], cv[iv0:iv1], indexing="ij")
        # barycentric coordinates in the projection plane
        w0 = ((pu[1] - gu) * (pv[2] - gv) - (pu[2] - gu) * (pv[1] - gv)) / area2
        w1 = ((pu[2] - gu) * (pv[0] - gv) - (pu[0] - gu) * (pv[2] - gv)) / area2
        w2 = 1.0 - w0 - w1
        hit = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)
        if not hit.any():
            continue
        r_hit = w0 * pr[0] + w1 * pr[1] + w2 * pr[2]
        for du, dv in zip(*np.nonzero(hit)):
            crossings.setdefault((iu0 + int(du), iv0 + int(dv)), []).append(float(r_hit[du, dv]))

    inside_uv = np.zeros((n_u, n_v, len(cr)), dtype=bool)
    for (iu, iv), xs in crossings.items():
        xs.sort()
        below = np.searchsorted(xs, cr)
        inside_uv[iu, iv] = (below % 2) == 1

    shape = [0, 0, 0]
    shape[u_axis], shape[v_axis], shape[axis] = n_u, n_v, len(cr)
    return np.moveaxis(inside_uv, (0, 1, 2), (u_axis, v_axis, axis))


# --- per-mesh voxelizer oracle --------------------------------------------


def mesh_inside_grid_reference(mesh: Mesh, centers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Majority vote of the three single-axis parity tests: the function
    `voxelize_meshes_reference` called per mesh, kept verbatim."""
    votes = sum(
        _inside_by_parity(mesh, centers, axis).view(np.uint8) for axis in range(3)
    )
    return votes >= 2


def voxelize_meshes_reference(meshes: MeshSet, resolution: tuple[int, int, int]) -> tuple[ScalarVolume, TransferFunction]:
    """Per-mesh voxelizer: the code `sliceforge.mesh.voxelize_meshes`
    replaced, kept verbatim as the oracle for the bit-packed version.

    Convert a mesh set to a labeled volume plus an automatic transfer function.

    Voxel intensity is 1 + the index of the innermost containing mesh
    (0 where no mesh contains the voxel center). The transfer function gets
    one bin per mesh; deeper-nested meshes receive higher opacity so inner
    structures stay visible through the assembled film stack. Coordinates
    are normalized so the longest padded side measures REFERENCE_EXTENT_MM.
    """
    if any(int(r) < 8 for r in resolution):
        raise ValidationError(f"resolution must be >= 8 per axis, got {resolution}")
    resolution = tuple(int(r) for r in resolution)
    for m in meshes.meshes:
        tri = m.vertices[m.triangles]
        areas = np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
        flat = int((areas == 0.0).sum())
        if flat:
            warnings.warn(f"mesh {m.name!r}: skipped {flat} degenerate (zero-area) triangles")
    lo, hi = meshes.bounds()
    extent = hi - lo
    extent[extent == 0] = 1.0
    lo = lo - _PAD_FRACTION * extent
    hi = hi + _PAD_FRACTION * extent
    spacing = (hi - lo) / np.asarray(resolution, dtype=np.float64)
    centers = tuple(
        lo[a] + (np.arange(resolution[a]) + 0.5) * spacing[a] for a in range(3)
    )

    inside = [mesh_inside_grid_reference(m, centers) for m in meshes.meshes]
    counts = [int(g.sum()) for g in inside]
    for m, c in zip(meshes.meshes, counts):
        if c == 0:
            warnings.warn(f"mesh {m.name!r} contains no voxel centers at this resolution")

    n = len(meshes.meshes)
    # nesting depth: how many other meshes (almost) completely contain this one
    depth = np.zeros(n, dtype=int)
    for i in range(n):
        if counts[i] == 0:
            continue
        for j in range(n):
            if i == j or counts[j] == 0:
                continue
            if int((inside[i] & inside[j]).sum()) >= 0.995 * counts[i] and counts[j] > counts[i]:
                depth[i] += 1

    volume_center = (lo + hi) / 2.0
    center_dist = np.array([np.linalg.norm(m.centroid - volume_center) for m in meshes.meshes])
    # innermost = deepest nesting, ties broken toward the volume center
    rank_order = sorted(range(n), key=lambda i: (depth[i], -center_dist[i], i))
    depth_rank = np.empty(n, dtype=int)
    for r, i in enumerate(rank_order):
        depth_rank[i] = r

    scalars = np.zeros(resolution, dtype=np.float32)
    best_rank = np.full(resolution, -1, dtype=np.int32)
    for i in range(n):
        take = inside[i] & (depth_rank[i] > best_rank)
        scalars[take] = np.float32(i + 1)
        best_rank[take] = depth_rank[i]

    palette = golden_palette(n)
    bins = tuple(
        TransferBin(
            lo=float(i + 1),
            hi=float(i + 2),
            rgb=palette[i],
            opacity=1.0 if n == 1 else 0.35 + 0.65 * depth_rank[i] / (n - 1),
        )
        for i in range(n)
    )
    norm = REFERENCE_EXTENT_MM / float(np.max(hi - lo))
    volume = ScalarVolume(
        dims=resolution,
        spacing=tuple(float(s) * norm for s in spacing),
        origin=tuple(float(c[0]) * norm for c in centers),
        scalars=scalars,
    )
    return volume, TransferFunction(bins)


# --- whole-grid quantizer and per-node octree -----------------------------


def quantize_reference(volume: ScalarVolume, tf: TransferFunction) -> LabelVolume:
    """Whole-grid quantizer: the code `sliceforge.volume.quantize` replaced
    (with the `TransferFunction.bin_index` it called), kept as the oracle for
    the chunked version."""
    values = np.asarray(volume.scalars, dtype=np.float64)
    los = np.array([b.lo for b in tf.bins])
    his = np.array([b.hi for b in tf.bins])
    idx = np.searchsorted(los, values, side="right") - 1
    bin_idx = np.where((idx >= 0) & (values < his[np.clip(idx, 0, None)]), idx, -1)
    # bin index -> label: visible bins count 1..K in bin order, opacity-0 bins are 0
    lut = np.zeros(len(tf.bins) + 1, dtype=np.uint16)
    k = 0
    for i, b in enumerate(tf.bins):
        if b.opacity > 0.0:
            k += 1
            lut[i + 1] = k
    labels = lut[bin_idx + 1]
    return LabelVolume(
        dims=volume.dims,
        spacing=volume.spacing,
        origin=volume.origin,
        labels=labels,
        n_labels=k,
    )


@dataclass(frozen=True, eq=False)
class ReferenceNode:
    """A node of `build_octree_reference`, with the attributes of
    `sliceforge.octree.OctreeNode`."""

    id: int
    bounds: Bounds  # inclusive lo, exclusive hi per axis, voxel units
    level: int
    distinct_labels: frozenset[int]
    children: tuple["ReferenceNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


def should_subdivide_reference(distinct: frozenset[int], level: int, bounds: Bounds, max_level: int) -> bool:
    """The per-node split test the array build vectorises."""
    if len(distinct) < 2 or level >= max_level:
        return False
    return all(hi - lo >= 2 for lo, hi in bounds)


def build_octree_reference(labels: LabelVolume, max_level: int) -> ReferenceNode:
    """Per-node `np.unique` octree, built by recursion: the oracle for the
    depth-by-depth array build of `sliceforge.octree.build_octree`."""
    if max_level < 1:
        raise ValidationError(f"octree level must be >= 1, got {max_level}")
    grid = labels.labels
    counter = [0]

    def distinct_in(bounds: Bounds) -> frozenset[int]:
        (x0, x1), (y0, y1), (z0, z1) = bounds
        vals = np.unique(grid[x0:x1, y0:y1, z0:z1])
        return frozenset(int(v) for v in vals if v != 0)

    def build(bounds: Bounds, level: int) -> ReferenceNode:
        node_id = counter[0]
        counter[0] += 1
        distinct = distinct_in(bounds)
        children: tuple[ReferenceNode, ...] = ()
        if should_subdivide_reference(distinct, level, bounds, max_level):
            mids = tuple((lo + hi) // 2 for lo, hi in bounds)
            kids = []
            for ix in range(2):
                for iy in range(2):
                    for iz in range(2):
                        halves = []
                        for axis, pick in enumerate((ix, iy, iz)):
                            lo, hi = bounds[axis]
                            halves.append((lo, mids[axis]) if pick == 0 else (mids[axis], hi))
                        kids.append(build(tuple(halves), level + 1))
            children = tuple(kids)
        return ReferenceNode(id=node_id, bounds=bounds, level=level, distinct_labels=distinct, children=children)

    root_bounds = tuple((0, int(d)) for d in labels.dims)
    root = build(root_bounds, 1)
    if not root.distinct_labels:
        warnings.warn("volume is entirely background: nothing to slice")
    return root


def extract_slices_reference(root, orientations: tuple[str, str] = ("x", "y")) -> list[Slice]:
    """One center slice per node and plane family, node by node in preorder:
    the loop the array `sliceforge.octree.extract_slices` replaced."""
    raw = []
    for node in iter_nodes(root):
        for orientation in orientations:
            normal, u_ax, v_ax = slice_axes(orientation, orientations)
            lo, hi = node.bounds[normal]
            plane = (lo + hi) // 2
            if plane == lo or plane == hi:
                continue  # center fell on the node's own bounding plane
            (u0, u1), (v0, v1) = node.bounds[u_ax], node.bounds[v_ax]
            raw.append(Slice(-1, orientation, plane, (u0, v0, u1, v1), (node.id,)))
    return raw


def octree_records(root) -> list[tuple]:
    """Every node as (id, bounds, level, distinct labels, child ids), in id order."""
    return [
        (n.id, n.bounds, n.level, n.distinct_labels, tuple(c.id for c in n.children))
        for n in iter_nodes(root)
    ]


# --- rescanning unification and per-slice hinge lists -----------------------


def rects_meet_reference(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """True when rectangles overlap or share an edge of positive length."""
    du = min(a[2], b[2]) - max(a[0], b[0])
    dv = min(a[3], b[3]) - max(a[1], b[1])
    return (du > 0 and dv >= 0) or (du >= 0 and dv > 0)


def merge_group_one_pass_reference(rects: list[tuple[tuple[int, int, int, int], tuple[int, ...]]]):
    """Least fixpoint of uniting touching rectangles, in one pass: the kept
    rectangles never meet one another, and each incoming one absorbs every
    kept one it meets and grows until it meets none. The per-plane merge
    that the array `sliceforge.octree.unify_slices` replaced."""
    kept: list[tuple[tuple[int, int, int, int], set[int]]] = []
    for rect, nodes in rects:
        nodes = set(nodes)
        while hits := [k for k in kept if rects_meet_reference(rect, k[0])]:
            kept = [k for k in kept if not rects_meet_reference(rect, k[0])]
            u0, v0, u1, v1 = zip(rect, *(other for other, _ in hits))
            rect = (min(u0), min(v0), max(u1), max(v1))
            for _, more in hits:
                nodes |= more
        kept.append((rect, nodes))
    return [(rect, tuple(sorted(nodes))) for rect, nodes in kept]


def _merge_group_reference(rects: list[tuple[tuple[int, int, int, int], tuple[int, ...]]]):
    """Fixpoint union of touching rectangles into bounding rectangles."""
    changed = True
    while changed:
        changed = False
        merged: list[tuple[tuple[int, int, int, int], tuple[int, ...]]] = []
        for rect, nodes in rects:
            hit = None
            for i, (mrect, _) in enumerate(merged):
                if rects_meet_reference(rect, mrect):
                    hit = i
                    break
            if hit is None:
                merged.append((rect, nodes))
            else:
                mrect, mnodes = merged[hit]
                merged[hit] = (
                    (
                        min(rect[0], mrect[0]),
                        min(rect[1], mrect[1]),
                        max(rect[2], mrect[2]),
                        max(rect[3], mrect[3]),
                    ),
                    tuple(sorted(set(nodes) | set(mnodes))),
                )
                changed = True
        rects = merged
    return rects


def unify_slices_reference(raw: list[Slice], merge_group=_merge_group_reference) -> list[Slice]:
    """Coalesce coplanar touching slices into their bounding rectangles by
    rerunning a full pass until nothing changes (or with `merge_group` per
    plane). This and its helper are the code the one-pass merge replaced,
    kept as the oracle of `sliceforge.octree.unify_slices`."""
    groups: dict[tuple[str, int], list] = {}
    for s in raw:
        groups.setdefault((s.orientation, s.plane_coord), []).append((s.extent, s.source_nodes))

    unified: list[Slice] = []
    for (orientation, plane), rects in sorted(groups.items()):
        for extent, nodes in merge_group(rects):
            unified.append(
                Slice(
                    id=-1,
                    orientation=orientation,
                    plane_coord=plane,
                    extent=extent,
                    source_nodes=nodes,
                )
            )
    unified.sort(key=lambda s: (s.orientation, s.plane_coord, s.extent))
    return [
        Slice(
            id=i,
            orientation=s.orientation,
            plane_coord=s.plane_coord,
            extent=s.extent,
            source_nodes=s.source_nodes,
        )
        for i, s in enumerate(unified)
    ]


def hinges_on_slice_reference(hinges: list[Hinge], slice_id: int) -> list[Hinge]:
    """Hinges touching a slice, sorted by in-plane position, found by a scan
    of every hinge: what `sliceforge.hinges.hinges_by_slice` replaced."""
    mine = [h for h in hinges if slice_id in (h.slice_a, h.slice_b)]
    mine.sort(key=lambda h: (h.u_on(slice_id), h.v0, h.id))
    return mine


# --- per-pixel rasterizer and row-joined PNG scanlines ---------------------


def rasterize_slice_reference(
    labels: LabelVolume,
    tf: TransferFunction,
    s: Slice,
    scale: float,
    px_per_mm: float = 4.0,
    orientations: tuple[str, str] = ("x", "y"),
) -> SliceRaster:
    """Per-pixel gather of labels and then of colors: the code
    `sliceforge.render.rasterize_slice` replaced, kept as the oracle for the
    per-voxel version."""
    normal, u_ax, v_ax = slice_axes(s.orientation, orientations)
    dims = labels.dims
    if not (0 <= s.plane_coord <= dims[normal]):
        raise ValidationError(f"slice plane {s.plane_coord} outside volume axis {normal}")
    # integer plane p is the face between voxel layers p-1 and p; sample the
    # layer on the + side, clamped at the top face
    layer = min(s.plane_coord, dims[normal] - 1)

    w_mm, h_mm = slice_print_size(s, labels.spacing, orientations)
    cols = max(1, math.ceil(w_mm * scale * px_per_mm))
    rows = max(1, math.ceil(h_mm * scale * px_per_mm))

    u0, u1 = s.u_range
    v0, v1 = s.v_range
    us = np.clip((u0 + (np.arange(cols) + 0.5) * (u1 - u0) / cols).astype(int), 0, dims[u_ax] - 1)
    # row 0 is the top of the printed slice = highest v
    vs = np.clip((v1 - (np.arange(rows) + 0.5) * (v1 - v0) / rows).astype(int), 0, dims[v_ax] - 1)

    index = [0, 0, 0]
    index[normal] = np.full((rows, cols), layer)
    index[u_ax] = np.broadcast_to(us[None, :], (rows, cols))
    index[v_ax] = np.broadcast_to(vs[:, None], (rows, cols))
    plane = labels.labels[tuple(index)]

    visible = tf.visible_bins
    lut = np.zeros((len(visible) + 1, 4), dtype=np.uint8)
    for k, b in enumerate(visible, start=1):
        lut[k] = [round(c * 255) for c in b.rgb] + [round(b.opacity * 255)]
    return SliceRaster(pixels=lut[plane])


def encode_png_reference(rgba: np.ndarray) -> bytes:
    """PNG whose scanlines are joined row by row in Python: the code
    `sliceforge.export.encode_png` replaced."""
    rows, cols = rgba.shape[:2]
    raw = b"".join(b"\x00" + rgba[r].tobytes() for r in range(rows))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", cols, rows, 8, 6, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


# --- exact rational cut geometry --------------------------------------------


def _frac(x: float | int) -> Fraction:
    return Fraction(x) if isinstance(x, int) else Fraction(float(x))


def slice_cut_geometry_reference(
    s: Slice,
    slice_hinges: list[Hinge],
    spacing: tuple[float, float, float],
    scale: float,
    slot_width_mm: float,
    orientations: tuple[str, str] = ("x", "y"),
) -> CutGeometry:
    """Slot rectangles and the outline polygon (with stopper flanges), in
    `Fraction`s: the code `sliceforge.export.slice_cut_geometry` replaced,
    kept as the oracle for its integers over one power of two.

    `slice_hinges` are the hinges touching `s`, in the order
    `hinges.hinges_by_slice` gives them; the slots follow that order.
    """
    _, u_ax, v_ax = slice_axes(s.orientation, orientations)
    sp_u, sp_v = _frac(spacing[u_ax]), _frac(spacing[v_ax])
    sc = _frac(scale)
    sw = _frac(slot_width_mm) * sc
    u0, v0 = s.u_range[0], s.v_range[0]
    width = (s.u_range[1] - u0) * sp_u * sc
    height = (s.v_range[1] - v0) * sp_v * sc

    def x_of(u: int) -> Fraction:
        return (u - u0) * sp_u * sc

    def y_of(v: Fraction | int) -> Fraction:
        return (Fraction(v) - v0) * sp_v * sc

    slots: list[SlotCut] = []
    flanges: dict[str, list[tuple[Fraction, Fraction]]] = {"left": [], "right": []}
    for h in slice_hinges:
        slot = h.slot_on(s.id)
        x = x_of(h.u_on(s.id))
        if slot in (SlotKind.TOP, SlotKind.BOTTOM):
            y_mid = y_of(Fraction(h.v0 + h.v1, 2))
            y_range = (y_mid, height) if slot == SlotKind.TOP else (Fraction(0), y_mid)
            slots.append(SlotCut(h.id, slot, x - sw / 2, y_range[0], x + sw / 2, y_range[1]))
        elif slot == SlotKind.WINDOW:
            # clearance of one slot width total; open to the edge when the
            # passing slice shares that end
            y_lo = Fraction(0) if h.v0 == s.v_range[0] else y_of(h.v0) - sw / 2
            y_hi = height if h.v1 == s.v_range[1] else y_of(h.v1) + sw / 2
            slots.append(SlotCut(h.id, slot, x - sw / 2, max(y_lo, Fraction(0)), x + sw / 2, min(y_hi, height)))
        else:  # NONE: nothing cut; a boundary contact grows a stopper tab
            if h.stopper_on == s.id:
                side = "left" if h.u_on(s.id) == s.u_range[0] else "right"
                flanges[side].append((y_of(h.v0) - sw, y_of(h.v1) + sw))

    outline = _outline_polygon_reference(width, height, sw, flanges)
    return CutGeometry(width=width, height=height, outline=outline, slots=tuple(slots))


def _merge_intervals_reference(spans: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    merged: list[tuple[Fraction, Fraction]] = []
    for a0, a1 in sorted(spans):
        if merged and a0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(a1, merged[-1][1]))
        else:
            merged.append((a0, a1))
    return merged


def _outline_polygon_reference(width: Fraction, height: Fraction, sw: Fraction, flanges) -> tuple:
    """Counterclockwise outline with rectangular stopper tabs protruding
    one slot width past the slice edge."""
    zero = Fraction(0)
    right = _merge_intervals_reference(flanges["right"])
    left = _merge_intervals_reference(flanges["left"])
    pts: list[tuple[Fraction, Fraction]] = [(zero, zero), (width, zero)]
    for a0, a1 in right:  # ascending along the right edge
        pts += [(width, a0), (width + sw, a0), (width + sw, a1), (width, a1)]
    pts += [(width, height), (zero, height)]
    for a0, a1 in reversed(left):  # descending along the left edge
        pts += [(zero, a1), (-sw, a1), (-sw, a0), (zero, a0)]
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    if out[-1] == out[0]:
        out.pop()
    return tuple(out)


# --- exhaustive order oracle ------------------------------------------------


def oracle_min_objective(hinge_ids, backbone, triples, w) -> tuple[float, tuple] | None:
    """Exhaustive minimum over all feasible permutations; None if infeasible."""
    others = [h for h in hinge_ids if h != backbone]
    best = None
    for perm in itertools.permutations(others):
        order = (backbone,) + perm
        pos = {h: i for i, h in enumerate(order)}
        if any(not (pos[t.j] < pos[t.i] and pos[t.j] < pos[t.k]) for t in triples):
            continue
        obj = sum(w[h] * pos[h] for h in order)
        key = (obj, order)
        if best is None or key < best:
            best = key
    return best


# --- rescanning precedence passes -------------------------------------------


def predecessors_reference(problem) -> dict[int, set[int]]:
    """Predecessor sets of the precedence triples. This and the two passes
    below are the code the one heap-driven Kahn pass of
    `sliceforge.ordering.solve_order` replaced, kept as its oracle."""
    preds: dict[int, set[int]] = {h: set() for h in problem.hinge_ids}
    for t in problem.triples:
        preds[t.i].add(t.j)
        preds[t.k].add(t.j)
    return preds


def find_cycle_reference(preds: dict[int, set[int]]) -> list[int] | None:
    """Kahn peel; returns some ids on a cycle if the precedence DAG is cyclic."""
    remaining = {h: set(p) for h, p in preds.items()}
    ready = [h for h, p in remaining.items() if not p]
    while ready:
        h = ready.pop()
        del remaining[h]
        for other, p in remaining.items():
            if h in p:
                p.discard(h)
                if not p:
                    ready.append(other)
    return sorted(remaining) if remaining else None


def greedy_order_reference(problem, preds: dict[int, set[int]]) -> list[int]:
    """Backbone first, then the ready hinge with the smallest (weight, id),
    rescanning every remaining hinge for each pick."""
    order = [problem.backbone]
    placed = {problem.backbone}
    remaining = set(problem.hinge_ids) - placed
    while remaining:
        ready = [h for h in remaining if preds[h] <= placed]
        pick = min(ready, key=lambda h: (problem.w_distance[h], h))
        order.append(pick)
        placed.add(pick)
        remaining.discard(pick)
    return order


# --- synthetic slice models --------------------------------------------------


def synthetic_slices(specs) -> list[Slice]:
    """specs: (orientation, plane, extent, source_nodes) tuples."""
    return [
        Slice(id=i, orientation=o, plane_coord=p, extent=tuple(e), source_nodes=tuple(src))
        for i, (o, p, e, src) in enumerate(specs)
    ]


def stopper_model() -> list[Slice]:
    """Two full root slices plus a short hanging slice whose contact line is
    on its own boundary: yields one cut-through with a stopper."""
    return synthetic_slices(
        [
            ("x", 32, (0, 0, 64, 64), (0,)),
            ("y", 32, (0, 0, 64, 64), (0,)),
            ("y", 16, (32, 16, 64, 48), (3,)),
        ]
    )
