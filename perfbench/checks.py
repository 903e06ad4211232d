"""Output checks that do not trust the code they check.

Each check returns a list of problems; an empty list is a pass. They run
after a build's timer has stopped, on the label volumes the build produced
and on the files it wrote.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

# voxelization pads the mesh bounds by this share per side before gridding
# (the same convention tests/test_mesh.py mirrors)
MESH_PAD_FRACTION = 0.08
# slack for float noise when comparing against analytic radii and page edges
EPS = 1e-6


def digitize_labels(raw: str, dtype: str, dims, edges) -> np.ndarray:
    """Labels recomputed from the raw file: bin k of the contiguous edges is label k."""
    values = np.fromfile(raw, dtype=np.dtype(dtype)).reshape(dims, order="F")
    d = np.digitize(values, np.asarray(edges, dtype=np.float64))
    return np.where((d >= 1) & (d < len(edges)), d, 0)


def check_digitize(labels, check: dict) -> list[str]:
    expected = digitize_labels(check["raw"], check["dtype"], labels.dims, check["edges"])
    bad = int(np.count_nonzero(expected != labels.labels))
    return [f"{bad} voxel labels differ from np.digitize of the raw file"] if bad else []


def sphere_label_mismatch(labels, check: dict) -> tuple[float, int]:
    """Share of unambiguous voxels whose label is not the number of analytic
    spheres containing the voxel centre, and the count of voxels checked.

    A voxel is ambiguous when its centre lies between some icosphere's
    inscribed and circumscribed radii."""
    lo, hi = np.asarray(check["lo"]), np.asarray(check["hi"])
    extent = hi - lo
    extent[extent == 0] = 1.0
    lo, hi = lo - MESH_PAD_FRACTION * extent, hi + MESH_PAD_FRACTION * extent
    dims = labels.dims
    centres = [lo[a] + (np.arange(dims[a]) + 0.5) * (hi[a] - lo[a]) / dims[a] for a in range(3)]
    gx, gy, gz = np.meshgrid(*centres, indexing="ij", sparse=True)
    expected = np.zeros(dims, dtype=np.int64)
    ambiguous = np.zeros(dims, dtype=bool)
    for s in check["spheres"]:
        cx, cy, cz = s["centre"]
        r = np.sqrt((gx - cx) ** 2 + (gy - cy) ** 2 + (gz - cz) ** 2)
        expected += r < s["r_in"] - EPS
        ambiguous |= (r >= s["r_in"] - EPS) & (r <= s["r_out"] + EPS)
    checked = int(np.count_nonzero(~ambiguous))
    wrong = int(np.count_nonzero((labels.labels != expected) & ~ambiguous))
    return wrong / checked, checked


def _overlap(a: dict, b: dict) -> bool:
    return (min(a["x"] + a["w"], b["x"] + b["w"]) - max(a["x"], b["x"]) > EPS
            and min(a["y"] + a["h"], b["y"] + b["h"]) - max(a["y"], b["y"]) > EPS)


def check_layout(manifest: dict) -> list[str]:
    """Every slice placed exactly once, inside the margins, no two overlapping."""
    problems = []
    layout = manifest["layout"]
    placements = layout["placements"]
    placed = sorted(p["slice"] for p in placements)
    if placed != sorted(s["id"] for s in manifest["slices"]):
        problems.append("placements are not exactly one per slice")
    (page_w, page_h), m = layout["page_size_mm"], layout["margin_mm"]
    for p in placements:
        if not (0 <= p["page"] < layout["sheets"]):
            problems.append(f"slice {p['slice']} on page {p['page']} of {layout['sheets']}")
        if (p["x"] < m - EPS or p["y"] < m - EPS
                or p["x"] + p["w"] > page_w - m + EPS or p["y"] + p["h"] > page_h - m + EPS):
            problems.append(f"slice {p['slice']} crosses the page margin")
    by_page: dict[int, list[dict]] = {}
    for p in placements:
        by_page.setdefault(p["page"], []).append(p)
    for page in by_page.values():
        page.sort(key=lambda p: p["x"])
        for i, a in enumerate(page):
            for b in page[i + 1:]:
                if b["x"] >= a["x"] + a["w"]:
                    break
                if _overlap(a, b):
                    problems.append(f"slices {a['slice']} and {b['slice']} overlap")
    return problems


def check_order(manifest: dict) -> list[str]:
    """The hinge order is a permutation of the hinges and starts with a
    backbone: a longest hinge joining two slices cut from the octree root."""
    hinges = {h["id"]: h for h in manifest["hinges"]}
    order = manifest["plan"]["hinge_order"]
    if sorted(order) != sorted(hinges):
        return ["hinge order is not a permutation of the hinges"]
    from_root = {s["id"] for s in manifest["slices"] if 0 in s["source_nodes"]}
    candidates = [h for h in hinges.values() if h["slice_a"] in from_root and h["slice_b"] in from_root]
    if not candidates:
        return ["no hinge joins two root slices"]
    first = hinges[order[0]]
    longest = max(h["v1"] - h["v0"] for h in candidates)
    if first not in candidates or first["v1"] - first["v0"] != longest:
        return [f"hinge {order[0]} placed first is not a backbone"]
    return []


def check_pages(outdir: Path, manifest: dict) -> list[str]:
    problems = []
    for name in [*manifest["pages"], "instructions.svg"]:
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} is listed but missing")
            continue
        try:
            ET.parse(path)
        except ET.ParseError as exc:
            problems.append(f"{name} is not XML: {exc}")
    if len(manifest["pages"]) != manifest["layout"]["sheets"]:
        problems.append("page count differs from the layout's sheet count")
    return problems


def check_outputs(outdir: Path) -> list[str]:
    path = outdir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(path.read_text())
    return check_layout(manifest) + check_order(manifest) + check_pages(outdir, manifest)


def order_lower_bound(problem) -> float:
    """Precedence-free bound on sum(w * position) for an `OrderProblem`:
    the backbone at position 0 and the rest by decreasing weight at
    positions 1..n-1 (Smith's rule for unit jobs)."""
    rest = sorted((w for h, w in problem.w_distance.items() if h != problem.backbone), reverse=True)
    return math.fsum(w * pos for pos, w in enumerate(rest, start=1))
