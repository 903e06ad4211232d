"""Slice rasterization and the papercraft stability report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .layout import MIN_PRINT_SLOT_MM, PageLayout, slice_print_size
from .octree import Slice, slice_axes
from .volume import LabelVolume, TransferFunction

DEFAULT_PX_PER_MM = 4.0
# the raster pixels one export may hold at once, 256 MiB of one-byte palette
# indices (512 MiB above 256 colours); an export renders every slice before
# it writes a page
MAX_RASTER_PIXELS = 1 << 28
TORQUE_TOLERANCE = 0.05


@dataclass(frozen=True, eq=False)
class SliceRaster:
    """A palette image: `palette[pixels]` is the slice's RGBA art."""

    pixels: np.ndarray  # (rows, cols) palette indices, row 0 = top of the slice; uint8 up to 256 colours
    palette: np.ndarray  # (colours, 4) uint8 RGBA; entry 0 is the transparent background


def raster_size(
    s: Slice, spacing: tuple[float, float, float], scale: float, px_per_mm: float, orientations: tuple[str, str]
) -> tuple[int, int]:
    """(rows, cols) of the raster `rasterize_slice` makes of a slice."""
    w_mm, h_mm = slice_print_size(s, spacing, orientations)
    return max(1, math.ceil(h_mm * scale * px_per_mm)), max(1, math.ceil(w_mm * scale * px_per_mm))


def rasterize_slice(
    labels: LabelVolume,
    tf: TransferFunction,
    s: Slice,
    scale: float,
    px_per_mm: float = DEFAULT_PX_PER_MM,
    orientations: tuple[str, str] = ("x", "y"),
) -> SliceRaster:
    """Nearest-neighbor resampling of the label plane into a palette image.

    The palette holds one RGBA colour per visible transfer-function bin,
    after the background at index 0, so a voxel's label is its palette
    index. Nearest-neighbor sampling only repeats voxels, so the slice's
    rectangle of labels (one byte each when the palette has at most 256
    colours) is expanded to the pixel grid by repeating columns and rows.
    Alpha equals the transfer-function opacity of the sampled voxel, so
    background stays fully transparent on film.
    """
    normal, u_ax, v_ax = slice_axes(s.orientation, orientations)
    dims = labels.dims
    if not (0 <= s.plane_coord <= dims[normal]):
        raise ValidationError(f"slice plane {s.plane_coord} outside volume axis {normal}")
    # integer plane p is the face between voxel layers p-1 and p; sample the
    # layer on the + side, clamped at the top face
    layer = min(s.plane_coord, dims[normal] - 1)

    rows, cols = raster_size(s, labels.spacing, scale, px_per_mm, orientations)

    u0, u1 = s.u_range
    v0, v1 = s.v_range
    us = np.clip((u0 + (np.arange(cols) + 0.5) * (u1 - u0) / cols).astype(int), 0, dims[u_ax] - 1)
    # row 0 is the top of the printed slice = highest v
    vs = np.clip((v1 - (np.arange(rows) + 0.5) * (v1 - v0) / rows).astype(int), 0, dims[v_ax] - 1)

    # the sampled voxels of the slice: a 2-D view, (v, u) once transposed
    u_lo, v_lo = int(us.min()), int(vs.min())
    index: list = [layer, layer, layer]
    index[u_ax] = slice(u_lo, int(us.max()) + 1)
    index[v_ax] = slice(v_lo, int(vs.max()) + 1)
    plane = labels.labels[tuple(index)]
    if u_ax < v_ax:
        plane = plane.T

    visible = tf.visible_bins
    lut = np.zeros((len(visible) + 1, 4), dtype=np.uint8)
    for k, b in enumerate(visible, start=1):
        lut[k] = [round(c * 255) for c in b.rgb] + [round(b.opacity * 255)]
    # sample the columns, then repeat whole pixel rows
    plane = plane.take(us - u_lo, axis=1)
    if len(lut) <= 256:  # one byte per pixel; quantize gives uint8 labels unless there are 255
        plane = plane.astype(np.uint8, copy=False)
    pixels = plane.take(vs - v_lo, axis=0)
    return SliceRaster(pixels=pixels, palette=lut)


@dataclass(frozen=True)
class StabilityReport:
    net_torque: tuple[float, float]  # per horizontal axis, mm * mm^2 units
    torque_limit: tuple[float, float]
    min_slot_width_mm: float
    stopper_count: int
    balanced: bool
    slot_width_ok: bool


def stability_check(
    slices: list[Slice],
    layout: PageLayout,
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    stopper_count: int,
    slot_width_mm: float,
    orientations: tuple[str, str],
) -> StabilityReport:
    """Gravitational torque balance about the vertical center axis plus the
    printed slot-width check; report-only."""
    horizontal = [slice_axes(orientations[0], orientations)[0], slice_axes(orientations[1], orientations)[0]]
    torque = [0.0, 0.0]
    total_area = 0.0
    for s in slices:
        normal, u_ax, v_ax = slice_axes(s.orientation, orientations)
        w_mm, h_mm = slice_print_size(s, spacing, orientations)
        area = w_mm * h_mm
        total_area += area
        center = [0.0, 0.0, 0.0]
        center[normal] = s.plane_coord * spacing[normal]
        center[u_ax] = (s.u_range[0] + s.u_range[1]) / 2.0 * spacing[u_ax]
        center[v_ax] = (s.v_range[0] + s.v_range[1]) / 2.0 * spacing[v_ax]
        for t, axis in enumerate(horizontal):
            offset = center[axis] - dims[axis] * spacing[axis] / 2.0
            torque[t] += area * offset
    limits = tuple(
        TORQUE_TOLERANCE * total_area * dims[axis] * spacing[axis] / 2.0 for axis in horizontal
    )
    balanced = all(abs(t) <= lim for t, lim in zip(torque, limits))
    min_slot = slot_width_mm * layout.scale
    return StabilityReport(
        net_torque=(torque[0], torque[1]),
        torque_limit=limits,
        min_slot_width_mm=min_slot,
        stopper_count=stopper_count,
        balanced=balanced,
        slot_width_ok=min_slot >= MIN_PRINT_SLOT_MM,
    )
