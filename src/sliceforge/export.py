"""Vector print output: per-page SVG with cut paths, slots, stoppers,
labels, and embedded slice art, plus the instruction sheet.

Slice art is embedded as indexed-colour PNG: every pixel is one of the
transfer function's visible colours or the transparent background, so a
pixel takes 1, 2, 4 or 8 bits, not the 32 of RGBA.

Cut geometry is computed from a slice and its own hinges in its local frame
(origin bottom-left, x along the slice's horizontal axis, y up) as integers
over one power of two, rounded once: mating slot positions on the two
slices of a hinge stay aligned after inverse scaling. SVG output is
byte-stable for identical inputs.
"""

from __future__ import annotations

import base64
import struct
import zlib
from dataclasses import dataclass

from .hinges import Hinge, HingeKind, SlotKind
from .layout import PageLayout, Placement
from .octree import Slice, slice_axes
from .ordering import AssemblyPlan
from .render import SliceRaster

LABEL_FONT_MM = 3.0
FRAME_FONT_MM = 2.2


@dataclass(frozen=True)
class SlotCut:
    hinge_id: int
    kind: SlotKind
    # local-frame rect, y up; exact integers over one power of two, rounded once
    x0: float
    y0: float
    x1: float
    y1: float


@dataclass(frozen=True)
class CutGeometry:
    """Everything to cut for one slice, in its local frame (mm, y up)."""

    width: float
    height: float
    outline: tuple[tuple[float, float], ...]
    slots: tuple[SlotCut, ...]


def slice_cut_geometry(
    s: Slice,
    slice_hinges: list[Hinge],
    spacing: tuple[float, float, float],
    scale: float,
    slot_width_mm: float,
    orientations: tuple[str, str] = ("x", "y"),
) -> CutGeometry:
    """Slot rectangles and the outline polygon (with stopper flanges).

    `slice_hinges` are the hinges touching `s`, in the order
    `hinges.hinges_by_slice` gives them; the slots follow that order.
    """
    _, u_ax, v_ax = slice_axes(s.orientation, orientations)
    # an int (say a `--config` slot width) stays exact; a numpy scalar goes through float
    (nu, qu), (nv, qv), (nw, qw), (ns, qs) = (
        x.as_integer_ratio() if isinstance(x, int) else float(x).as_integer_ratio()
        for x in (spacing[u_ax], spacing[v_ax], slot_width_mm, scale)
    )
    # every q is a power of two, so over `den` each coordinate below is an
    # integer (half voxels and half slot widths too); `n / den` rounds it once
    q = max(qu, qv, qw)
    den = 2 * q * qs
    du = nu * ns * (2 * q // qu)  # one voxel along u
    dv = nv * ns * (q // qv)  # half a voxel along v
    half_sw = nw * ns * (q // qw)
    sw = 2 * half_sw
    u0, v0 = s.u_range[0], s.v_range[0]
    width = (s.u_range[1] - u0) * du
    height = 2 * (s.v_range[1] - v0) * dv

    def y_of(v: int) -> int:
        return 2 * (v - v0) * dv

    def cut(h: Hinge, kind: SlotKind, x: int, y0: int, y1: int) -> SlotCut:
        return SlotCut(h.id, kind, (x - half_sw) / den, y0 / den, (x + half_sw) / den, y1 / den)

    slots: list[SlotCut] = []
    flanges: dict[str, list[tuple[int, int]]] = {"left": [], "right": []}
    for h in slice_hinges:
        slot = h.slot_on(s.id)
        x = (h.u_on(s.id) - u0) * du
        if slot in (SlotKind.TOP, SlotKind.BOTTOM):
            y_mid = (h.v0 + h.v1 - 2 * v0) * dv
            y0, y1 = (y_mid, height) if slot == SlotKind.TOP else (0, y_mid)
            slots.append(cut(h, slot, x, y0, y1))
        elif slot == SlotKind.WINDOW:
            # clearance of one slot width total; open to the edge when the
            # passing slice shares that end
            y_lo = 0 if h.v0 == s.v_range[0] else y_of(h.v0) - half_sw
            y_hi = height if h.v1 == s.v_range[1] else y_of(h.v1) + half_sw
            slots.append(cut(h, slot, x, max(y_lo, 0), min(y_hi, height)))
        else:  # NONE: nothing cut; a boundary contact grows a stopper tab
            if h.stopper_on == s.id:
                side = "left" if h.u_on(s.id) == s.u_range[0] else "right"
                flanges[side].append((y_of(h.v0) - sw, y_of(h.v1) + sw))

    outline = tuple((a / den, b / den) for a, b in _outline_polygon(width, height, sw, flanges))
    return CutGeometry(width=width / den, height=height / den, outline=outline, slots=tuple(slots))


def _merge_intervals(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for a0, a1 in sorted(spans):
        if merged and a0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(a1, merged[-1][1]))
        else:
            merged.append((a0, a1))
    return merged


def _outline_polygon(width: int, height: int, sw: int, flanges) -> list[tuple[int, int]]:
    """Counterclockwise outline with rectangular stopper tabs protruding
    one slot width past the slice edge."""
    right = _merge_intervals(flanges["right"])
    left = _merge_intervals(flanges["left"])
    pts: list[tuple[int, int]] = [(0, 0), (width, 0)]
    for a0, a1 in right:  # ascending along the right edge
        pts += [(width, a0), (width + sw, a0), (width + sw, a1), (width, a1)]
    pts += [(width, height), (0, height)]
    for a0, a1 in reversed(left):  # descending along the left edge
        pts += [(0, a1), (-sw, a1), (-sw, a0), (0, a0)]
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    if out[-1] == out[0]:
        out.pop()
    return out


# --- minimal deterministic PNG encoding -----------------------------------


def encode_png(index: np.ndarray, palette: np.ndarray) -> bytes:
    """The image `palette[index]` as a PNG: filter 0 on every scanline and a
    fixed zlib level, so the bytes are stable across runs.

    Up to 256 colours it is an indexed-colour PNG (colour type 3) of the
    smallest bit depth of 1, 2, 4 or 8 that holds the palette, with the
    palette's RGB in PLTE and its alpha in tRNS; the unused low bits of a
    scanline's last byte are zero. A larger palette is written as RGBA8
    (colour type 6).
    """
    import numpy as np

    rows, cols = index.shape
    if len(palette) > 256:
        ihdr = struct.pack(">IIBBBBB", cols, rows, 8, 6, 0, 0, 0)
        palette_chunks = b""
        # one scanline per row: filter byte 0, then the row's RGBA bytes
        raw = np.zeros((rows, 4 * cols + 1), dtype=np.uint8)
        raw[:, 1:] = palette[index].reshape(rows, 4 * cols)
    else:
        depth = next(d for d in (1, 2, 4, 8) if len(palette) <= 1 << d)
        ihdr = struct.pack(">IIBBBBB", cols, rows, depth, 3, 0, 0, 0)
        palette_chunks = _chunk(b"PLTE", palette[:, :3].tobytes()) + _chunk(b"tRNS", palette[:, 3].tobytes())
        raw = _index_scanlines(index, depth)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + palette_chunks
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )


def _index_scanlines(index: np.ndarray, depth: int) -> np.ndarray:
    """One scanline per row: filter byte 0, then the row's indices packed
    `8 // depth` to a byte, the first in the high bits, zero bits after the
    last index. Each index must be below `1 << depth`."""
    import numpy as np

    g = 8 // depth
    rows, cols = index.shape
    width = -(-cols // g)
    group = np.zeros((rows, g * width), dtype=np.uint8)
    group[:, :cols] = index
    # Read each byte's g indices as one little-endian integer: index j at
    # bit 8j. Multiplying by the sum over j of 2^(8g - 8j - depth(j+1))
    # carries index j to bit 8g - depth(j+1), so the top byte holds the
    # indices in order from its high end. Every other product lands at bit
    # 8g or above, which the integer drops, or so low that together they
    # stay below the top byte.
    word = np.dtype(f"<u{g}")
    magic = sum(1 << (8 * g - 8 * j - depth * (j + 1)) for j in range(g))
    raw = np.zeros((rows, width + 1), dtype=np.uint8)
    raw[:, 1:] = (group.view(word) * word.type(magic)) >> word.type(8 * (g - 1))
    return raw


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


# --- SVG assembly ----------------------------------------------------------


def _fmt(v) -> str:
    s = f"{float(v):.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


class SvgDoc:
    def __init__(self, width_mm: float, height_mm: float):
        self.width = width_mm
        self.height = height_mm
        self.layers: dict[str, list[str]] = {"art": [], "cut": [], "label": []}

    def add(self, layer: str, element: str) -> None:
        self.layers[layer].append(element)

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
            f'width="{_fmt(self.width)}mm" height="{_fmt(self.height)}mm" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
        )
        body = []
        for name in ("art", "cut", "label"):
            body.append(f'<g id="{name}">\n' + "\n".join(self.layers[name]) + "\n</g>\n")
        return head + "".join(body) + "</svg>\n"


@dataclass
class _Frame:
    """Local (mm, y up) to page (mm, y down) transform for one placement."""

    placement: Placement

    def to_page(self, a: float, b: float) -> tuple[float, float]:
        p = self.placement
        if not p.rotated:
            return (p.x + a, p.y + (p.h - b))
        # 90 degrees clockwise: local up axis becomes page +x
        return (p.x + b, p.y + a)

    def image_transform(self) -> str:
        p = self.placement
        if not p.rotated:
            return f'x="{_fmt(p.x)}" y="{_fmt(p.y)}" width="{_fmt(p.w)}" height="{_fmt(p.h)}"'
        # draw unrotated (h x w content) then map via matrix(0 1 -1 0 e f)
        e, f = p.x + p.w, p.y
        return (
            f'x="0" y="0" width="{_fmt(p.h)}" height="{_fmt(p.w)}" '
            f'transform="matrix(0 1 -1 0 {_fmt(e)} {_fmt(f)})"'
        )


def _path(points: list[tuple[float, float]], dash: bool) -> str:
    return _closed_path([f"{_fmt(x)} {_fmt(y)}" for x, y in points], dash)


def _closed_path(corners: list[str], dash: bool) -> str:
    dash_attr = ' stroke-dasharray="2 1.5"' if dash else ""
    return f'<path d="M {" L ".join(corners)} Z" fill="none" stroke="#000000" stroke-width="0.2"{dash_attr}/>'


def _rect_path(frame: _Frame, x0, y0, x1, y1, dash: bool) -> str:
    """`_path` of the corners (x0, y0), (x1, y0), (x1, y1), (x0, y1). Each page
    coordinate follows one local one, so two opposite corners give all four."""
    (ax, ay), (bx, by) = ((_fmt(x), _fmt(y)) for x, y in (frame.to_page(x0, y0), frame.to_page(x1, y1)))
    # turned, local x runs along page y: (x1, y0) lands on (ax, by)
    beside = (f"{ax} {by}", f"{bx} {ay}") if frame.placement.rotated else (f"{bx} {ay}", f"{ax} {by}")
    return _closed_path([f"{ax} {ay}", beside[0], f"{bx} {by}", beside[1]], dash)


def _text(x: float, y: float, size: float, content: str, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
        f'font-family="sans-serif" text-anchor="{anchor}" fill="#000000">{content}</text>'
    )


def _label_position(geom: CutGeometry, text_w: float, text_h: float) -> tuple[float, float, bool]:
    """First collision-free corner for the on-slice order label (local frame,
    y up, returns the text's lower-left). Falls back to the first corner."""
    w, h = geom.width, geom.height
    inset = 1.5
    candidates = [
        (inset, h - inset - text_h),  # top-left
        (w - inset - text_w, h - inset - text_h),
        (inset, inset),
        (w - inset - text_w, inset),
        ((w - text_w) / 2, (h - text_h) / 2),
    ]
    for cx, cy in candidates:
        overlap = any(
            cx < c.x1 and cx + text_w > c.x0 and cy < c.y1 and cy + text_h > c.y0
            for c in geom.slots
        )
        if not overlap:
            return cx, cy, True
    return candidates[0][0], candidates[0][1], False


def emit_pages(
    layout: PageLayout,
    rasters: dict[int, SliceRaster],
    geometries: dict[int, CutGeometry],
    plan: AssemblyPlan,
    perforate: bool = False,
) -> tuple[list[str], list[str]]:
    """Render one SVG document per page; returns (documents, warnings)."""
    order_of = {sid: i + 1 for i, sid in enumerate(plan.slice_order)}
    docs: list[str] = []
    warnings_out: list[str] = []
    for page in range(layout.sheets):
        doc = SvgDoc(*layout.page_size)
        for part in layout.partitions:
            if part.page != page:
                continue
            x, y, w, h = part.rect
            doc.add(
                "label",
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
                'fill="none" stroke="#bbbbbb" stroke-width="0.1" stroke-dasharray="1 1"/>',
            )
        for pl in layout.placements:
            if pl.page != page:
                continue
            geom = geometries[pl.slice_id]
            frame = _Frame(pl)
            raster = rasters.get(pl.slice_id)
            if raster is not None:
                data = base64.b64encode(encode_png(raster.pixels, raster.palette)).decode("ascii")
                doc.add(
                    "art",
                    f'<image {frame.image_transform()} preserveAspectRatio="none" '
                    f'xlink:href="data:image/png;base64,{data}"/>',
                )
            doc.add("cut", _path([frame.to_page(a, b) for a, b in geom.outline], perforate))
            for slot in geom.slots:
                doc.add("cut", _rect_path(frame, slot.x0, slot.y0, slot.x1, slot.y1, perforate))

            label = str(order_of[pl.slice_id])
            text_w = LABEL_FONT_MM * 0.62 * len(label)
            lx, ly, ok = _label_position(geom, text_w, LABEL_FONT_MM)
            if not ok:
                warnings_out.append(
                    f"slice {pl.slice_id}: order label overlaps cut paths; kept at corner"
                )
            px, py = frame.to_page(lx, ly)
            doc.add("label", _text(px, py, LABEL_FONT_MM, label))
            fx, fy = frame.to_page(-1.0, geom.height)
            doc.add("label", _text(fx, fy - 1.0, FRAME_FONT_MM, label, anchor="end"))
        docs.append(doc.render())
    return docs, warnings_out


def emit_instructions(
    plan: AssemblyPlan,
    hinges: list[Hinge],
    slices: list[Slice],
    dims: tuple[int, int, int],
    orientations: tuple[str, str],
    page_size: tuple[float, float],
) -> str:
    """Assembly steps plus a top-view schematic of the slice planes."""
    by_id = {h.id: h for h in hinges}
    order_of = {sid: i + 1 for i, sid in enumerate(plan.slice_order)}
    doc = SvgDoc(*page_size)
    w_pg, h_pg = page_size
    doc.add("label", _text(10, 12, 5.0, "Assembly instructions"))
    doc.add(
        "label",
        _text(10, 18, 3.0, f"{len(plan.slice_order)} slices, {len(plan.hinge_order)} hinges; numbers give the assembly order"),
    )
    y = 26.0
    for step, hid in enumerate(plan.hinge_order, start=1):
        h = by_id[hid]
        kind = "up-down" if h.kind == HingeKind.UP_DOWN else "cut-through"
        note = f", stopper on slice {order_of[h.stopper_on]}" if h.stopper_on is not None else ""
        doc.add(
            "label",
            _text(
                10,
                y,
                2.8,
                f"step {step}: stitch slice {order_of[h.slice_a]} and slice {order_of[h.slice_b]} ({kind}{note})",
            ),
        )
        y += 4.2
        if y > h_pg - 110:
            doc.add("label", _text(10, y, 2.8, f"... {len(plan.hinge_order) - step} more steps in manifest"))
            break

    # top-view schematic: first family planes vertical, second horizontal
    ax_a = slice_axes(orientations[0], orientations)[0]
    ax_b = slice_axes(orientations[1], orientations)[0]
    box_w, box_h = 120.0, 90.0
    ox, oy = (w_pg - box_w) / 2, h_pg - box_h - 12
    doc.add(
        "cut",
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{_fmt(box_w)}" height="{_fmt(box_h)}" '
        'fill="none" stroke="#000000" stroke-width="0.2"/>',
    )
    doc.add("label", _text(ox, oy - 2.0, 3.0, "top view: octree cut planes with slice order"))
    for s in slices:
        if s.orientation == orientations[0]:
            fx = ox + box_w * s.plane_coord / dims[ax_a]
            u_lo = oy + box_h * s.u_range[0] / dims[ax_b]
            u_hi = oy + box_h * s.u_range[1] / dims[ax_b]
            doc.add(
                "cut",
                f'<line x1="{_fmt(fx)}" y1="{_fmt(u_lo)}" x2="{_fmt(fx)}" y2="{_fmt(u_hi)}" '
                'stroke="#cc3333" stroke-width="0.3"/>',
            )
            doc.add("label", _text(fx + 0.8, u_lo + 3.0, 2.8, str(order_of[s.id])))
        else:
            fy = oy + box_h * s.plane_coord / dims[ax_b]
            u_lo = ox + box_w * s.u_range[0] / dims[ax_a]
            u_hi = ox + box_w * s.u_range[1] / dims[ax_a]
            doc.add(
                "cut",
                f'<line x1="{_fmt(u_lo)}" y1="{_fmt(fy)}" x2="{_fmt(u_hi)}" y2="{_fmt(fy)}" '
                'stroke="#3333cc" stroke-width="0.3"/>',
            )
            doc.add("label", _text(u_lo + 0.8, fy - 0.8, 2.8, str(order_of[s.id])))
    return doc.render()
