"""Paper placement: feature clustering, page partitioning, and packing.

Slices get a 4D feature (normalized center + assembly position), projected
to 2D by PCA and clustered by k-means with an elbow pick. Each cluster owns
one kd-tree leaf of the page area, sized by its share of slice area, and a
Maximal Rectangles / best-short-side-fit packer places the slices at the
largest global scale that still fits.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import InfeasibleError, ValidationError
from .octree import Slice, slice_axes
from .ordering import AssemblyPlan

PAGE_SIZES_MM = {"A4": (210.0, 297.0), "A3": (297.0, 420.0)}

DEFAULT_MARGIN_MM = 5.0
DEFAULT_GUTTER_MM = 4.0
ELBOW_IMPROVEMENT = 0.10
K_MAX = 6  # the most clusters the elbow picks
SCALE_TOLERANCE = 0.005
MIN_PRINT_SLOT_MM = 1.0
# packing may undershoot the recommended 1 mm printed slot (the stability
# report flags it); below half of it the print is considered unusable
LEGIBLE_SLOT_FRACTION = 0.5


def build_vectors(
    slices: list[Slice],
    plan: AssemblyPlan,
    dims: tuple[int, int, int],
    orientations: tuple[str, str] = ("x", "y"),
) -> np.ndarray:
    """(n, 4) features, one row per slice: its normalized center (x, y, z)
    and its normalized assembly position d, each in [0, 1]."""
    import numpy as np

    order = {sid: i for i, sid in enumerate(plan.slice_order)}
    count = len(plan.slice_order)
    vectors = []
    for s in slices:
        normal, u_ax, v_ax = slice_axes(s.orientation, orientations)
        center = [0.0, 0.0, 0.0]
        center[normal] = s.plane_coord
        center[u_ax] = (s.u_range[0] + s.u_range[1]) / 2.0
        center[v_ax] = (s.v_range[0] + s.v_range[1]) / 2.0
        x, y, z = (center[i] / dims[i] for i in range(3))
        d = order[s.id] / (count - 1) if count > 1 else 0.0
        vectors.append((x, y, z, d))
    return np.array(vectors, dtype=np.float64)


def pca_2d(data: np.ndarray) -> np.ndarray:
    """Project centered features onto the top-2 variance directions.

    Degenerate ranks are completed with canonical orthonormal directions so
    the basis is always usable; projections along completed directions are
    zero by construction.
    """
    import numpy as np

    centered = data - data.mean(axis=0)
    cov = (centered.T @ centered) / max(len(data), 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]

    tol = 1e-12 * max(float(eigvals[0]), 1.0)
    directions: list[np.ndarray] = []
    for i in range(2):
        if eigvals[i] > tol:
            d = eigvecs[:, i]
            # deterministic sign: biggest-magnitude component positive
            j = int(np.argmax(np.abs(d)))
            if d[j] < 0:
                d = -d
            directions.append(d)
    for e in np.eye(4):
        if len(directions) == 2:
            break
        d = e.copy()
        for u in directions:
            d -= (d @ u) * u
        norm = np.linalg.norm(d)
        if norm > 1e-9:
            directions.append(d / norm)
    return centered @ np.vstack(directions).T


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, 2)
    assignment: np.ndarray  # (n,) cluster index per point


def _lloyd(points: np.ndarray, k: int, first_idx: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Deterministic k-means: farthest-point init from first_idx, then Lloyd."""
    import numpy as np

    n = len(points)
    chosen = [first_idx]
    d2 = np.sum((points - points[first_idx]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))  # argmax takes the smallest index on ties
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    centroids = points[chosen].astype(np.float64)

    assignment = np.full(n, -1)
    for _ in range(100):
        dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assignment = np.argmin(dists, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    wcss = float(np.sum((points - centroids[assignment]) ** 2))
    return centroids, assignment, wcss


def _first_centre(n: int) -> int:
    return n * 0xD9C2825F >> 32


def kmeans_elbow(points: np.ndarray, k_max: int) -> ClusterModel:
    """Pick k by the elbow rule: smallest k whose WCSS improvement to k+1,
    relative to the total (k=1) WCSS, falls below the threshold; no k past
    the one after it is clustered, nor past `k_max` (K_MAX in a build) or
    the n >= 1 points. Every k grows farthest-point centres
    (Gonzalez 1985) from `_first_centre(n)`, `n * 0xD9C2825F >> 32` of n
    points: 0xD9C2825F is the first 32-bit word of `np.random.default_rng(0)`,
    and Lemire's (2019) bounded draw `integers(n)` maps it to that index for
    every n below 104 930. So no build imports numpy.random (~12 ms)."""
    n = len(points)
    first_idx = _first_centre(n)
    upper = min(k_max, n)
    runs = [_lloyd(points, 1, first_idx)]
    total = runs[0][2]
    best_k = upper
    for k in range(1, upper):
        runs.append(_lloyd(points, k + 1, first_idx))
        improvement = (runs[k - 1][2] - runs[k][2]) / total if total > 0 else 0.0
        if improvement < ELBOW_IMPROVEMENT:
            best_k = k
            break
    centroids, assignment, _ = runs[best_k - 1]
    return ClusterModel(k=best_k, centroids=centroids, assignment=assignment)


def cluster_slices(
    slices: list[Slice],
    plan: AssemblyPlan,
    dims: tuple[int, int, int],
    orientations: tuple[str, str] = ("x", "y"),
) -> ClusterModel:
    """The slices' clusters: their features projected to 2D, and at most K_MAX clusters by the elbow."""
    return kmeans_elbow(pca_2d(build_vectors(slices, plan, dims, orientations)), K_MAX)


Rect = tuple[float, float, float, float]  # x, y, w, h (mm)


@dataclass(frozen=True)
class Partition:
    page: int
    cluster: int
    rect: Rect


@dataclass(frozen=True)
class Placement:
    slice_id: int = field(metadata={"json": "slice"})
    page: int
    x: float
    y: float
    rotated: bool
    w: float  # placed footprint, mm, rotation applied
    h: float


@dataclass(frozen=True)
class PageLayout:
    page_size: tuple[float, float] = field(metadata={"json": "page_size_mm"})
    margin: float = field(metadata={"json": "margin_mm"})
    gutter: float = field(metadata={"json": "gutter_mm"})
    sheets: int
    scale: float
    partitions: tuple[Partition, ...]
    placements: tuple[Placement, ...]
    cluster_of: dict[int, int] = field(metadata={"json": "clusters"})  # slice id -> cluster


def partition_page(page_rect: Rect, weights: list[float]) -> list[Rect]:
    """kd-style split of a rectangle into len(weights) leaves whose areas
    are exactly proportional to the positive weights (cluster order preserved).

    Each node cuts across its longer side, which keeps small-share leaves
    as thick as a straight cut allows (strict axis alternation starves
    low-weight clusters into unpackable slivers on elongated parents).
    """

    def split(rect: Rect, ws: list[float]) -> list[Rect]:
        if len(ws) == 1:
            return [rect]
        # balanced contiguous split: prefix weight closest to half
        prefix, best_i, best_gap = 0.0, 1, math.inf
        acc = 0.0
        for i in range(1, len(ws)):
            acc += ws[i - 1]
            gap = abs(acc - (sum(ws) - acc))
            if gap < best_gap:
                best_gap, best_i, prefix = gap, i, acc
        frac = prefix / sum(ws)
        x, y, w, h = rect
        if w >= h:
            left = (x, y, w * frac, h)
            right = (x + w * frac, y, w * (1 - frac), h)
        else:
            left = (x, y, w, h * frac)
            right = (x, y + h * frac, w, h * (1 - frac))
        return split(left, ws[:best_i]) + split(right, ws[best_i:])

    return split(page_rect, list(weights))


class MaxRects:
    """Maximal Rectangles packer with best short side fit placement."""

    def __init__(self, width: float, height: float):
        self.free: list[Rect] = [(0.0, 0.0, width, height)]

    def insert(self, w: float, h: float) -> tuple[float, float, bool] | None:
        """Place a w x h item, rotated if that fits better: the free
        rectangle of least (short, long) leftover side, the first of equal
        ones, unrotated before rotated. Its corner, or None if nothing fits."""
        best, short, long_ = None, math.inf, math.inf
        options = ((False, w, h), (True, h, w)) if w != h else ((False, w, h),)
        for i, (fx, fy, fw, fh) in enumerate(self.free):
            for rotated, iw, ih in options:
                if iw <= fw and ih <= fh:
                    a, b = fw - iw, fh - ih
                    a, b = b if b < a else a, b if b > a else a  # min and max, as the builtins take them
                    if best is None or a < short or a == short and b < long_:
                        best, short, long_ = (i, rotated), a, b
        if best is None:
            return None
        idx, rotated = best
        fx, fy, _, _ = self.free[idx]
        iw, ih = (h, w) if rotated else (w, h)
        self._place((fx, fy, iw, ih))
        return fx, fy, rotated

    def _place(self, used: Rect) -> None:
        """Split each free rectangle `used` overlaps into its maximal
        leftovers, then drop every rectangle another one contains (of two
        equal ones, the later).

        Only the pieces are tested, each against the pieces on its side of
        `used` and the unsplit rectangles that touch `used`. The unsplit ones
        survived the last prune, so none lies inside another, nor so inside
        a piece, which lies inside the rectangle it was cut from. A rectangle
        that holds a piece reaches the piece's side of `used` without
        crossing it: it touches `used`, and no piece on another side does.
        This needs each piece's far edge, a float sum, to be the edge it was
        cut at; where one rounds, the whole list is pruned."""
        ux, uy, uw, uh = used
        ur, ut = ux + uw, uy + uh
        new_free: list[Rect] = []
        sides: tuple[list[int], ...] = ([], [], [], [])  # the pieces left of, right of, below and above `used`
        near: list[int] = []  # the unsplit rectangles that touch `used`
        exact = True  # every piece ends at the edge it was cut at
        for rect in self.free:
            fx, fy, fw, fh = rect
            fr, ft = fx + fw, fy + fh
            if ux >= fr or ur <= fx or uy >= ft or ut <= fy:
                if not (ux > fr or ur < fx or uy > ft or ut < fy):
                    near.append(len(new_free))
                new_free.append(rect)
                continue
            # subtract: up to four maximal leftovers
            if ux > fx:
                sides[0].append(len(new_free))
                new_free.append((fx, fy, ux - fx, fh))
                exact = exact and fx + (ux - fx) == ux
            if ur < fr:
                sides[1].append(len(new_free))
                new_free.append((ur, fy, fr - ur, fh))
                exact = exact and ur + (fr - ur) == fr
            if uy > fy:
                sides[2].append(len(new_free))
                new_free.append((fx, fy, fw, uy - fy))
                exact = exact and fy + (uy - fy) == uy
            if ut < ft:
                sides[3].append(len(new_free))
                new_free.append((fx, ut, fw, ft - ut))
                exact = exact and ut + (ft - ut) == ft
        dropped = set()
        for tested, against in [(side, near + side) for side in sides] if exact else [(range(len(new_free)),) * 2]:
            for i in tested:
                ax, ay, aw, ah = a = new_free[i]
                ar, at = ax + aw, ay + ah
                for j in against:
                    bx, by, bw, bh = b = new_free[j]
                    if ax >= bx and ay >= by and ar <= bx + bw and at <= by + bh and i != j and (i > j or a != b):
                        dropped.add(i)
                        break
        self.free = [r for i, r in enumerate(new_free) if i not in dropped] if dropped else new_free


def slice_print_size(s: Slice, spacing: tuple[float, float, float], orientations: tuple[str, str]) -> tuple[float, float]:
    """Slice content size in mm at scale 1 (u width, v height)."""
    _, u_ax, v_ax = slice_axes(s.orientation, orientations)
    w = (s.u_range[1] - s.u_range[0]) * spacing[u_ax]
    h = (s.v_range[1] - s.v_range[0]) * spacing[v_ax]
    return w, h


def _assign_clusters_to_sheets(weights: list[float], sheets: int) -> list[int]:
    """Contiguous weight-balanced grouping of clusters onto sheets."""
    k = len(weights)
    used = min(sheets, k)
    target = sum(weights) / used
    sheet_of = []
    sheet, acc = 0, 0.0
    for c in range(k):
        overflow = acc + weights[c] > target and acc > 0
        # never leave a sheet empty: once the clusters left are no more than
        # the sheets left, each remaining cluster opens the next sheet (the
        # current sheet already holds cluster c - 1)
        must_advance = c > 0 and (k - c) <= (used - 1 - sheet)
        if (overflow or must_advance) and sheet < used - 1:
            sheet += 1
            acc = 0.0
        sheet_of.append(sheet)
        acc += weights[c]
    return sheet_of


def _try_pack(
    scale: float,
    order: list[Slice],
    sizes: dict[int, tuple[float, float]],
    cluster_of: dict[int, int],
    leaves: dict[int, tuple[int, Rect]],
    gutter: float,
) -> list[Placement] | None:
    # items carry half a gutter of padding per side; the padding (never the
    # content) may overhang the partition edge, so the packer bin is the
    # leaf grown by one gutter and content lands exactly inside the leaf
    packers = {c: MaxRects(rect[2] + gutter, rect[3] + gutter) for c, (_, rect) in leaves.items()}
    placements: list[Placement] = []
    for s in order:
        w0, h0 = sizes[s.id]
        w, h = w0 * scale + gutter, h0 * scale + gutter
        c = cluster_of[s.id]
        page, rect = leaves[c]
        pos = packers[c].insert(w, h)
        if pos is None:
            return None
        x, y, rotated = pos
        pw, ph = (h, w) if rotated else (w, h)
        placements.append(
            Placement(
                slice_id=s.id,
                page=page,
                x=rect[0] + x,
                y=rect[1] + y,
                rotated=rotated,
                w=pw - gutter,
                h=ph - gutter,
            )
        )
    return placements


def page_plan(slices: list[Slice], plan: AssemblyPlan, clusters: ClusterModel, spacing: tuple[float, float, float],
              orientations: tuple[str, str], page_size: tuple[float, float], sheets: int, margin: float,
              gutter: float) -> Callable[[float], PageLayout | None]:
    """Everything of `pack` but its scale search (the slices in assembly
    order, their sizes, the clusters' sheets and partitions), as the function
    that packs the slices at a scale: their layout, or None if they do not fit."""
    page_w, page_h = (float(v) for v in page_size)
    if page_w - 2 * margin <= 0 or page_h - 2 * margin <= 0:
        raise ValidationError("margins leave no usable page area")

    position = {sid: i for i, sid in enumerate(plan.slice_order)}
    order = sorted(slices, key=lambda s: position[s.id])
    sizes = {s.id: slice_print_size(s, spacing, orientations) for s in slices}
    cluster_of = {fvid: int(c) for fvid, c in zip((s.id for s in slices), clusters.assignment)}

    cluster_area = [0.0] * clusters.k
    for s in slices:
        w, h = sizes[s.id]
        cluster_area[cluster_of[s.id]] += w * h
    # clusters ordered by centroid first principal component for page order
    cluster_rank = sorted(range(clusters.k), key=lambda c: (float(clusters.centroids[c][0]), c))
    ranked_weights = [max(cluster_area[c], 1e-9) for c in cluster_rank]

    sheet_of_ranked = _assign_clusters_to_sheets(ranked_weights, sheets)
    usable: Rect = (margin, margin, page_w - 2 * margin, page_h - 2 * margin)
    leaves: dict[int, tuple[int, Rect]] = {}
    partitions: list[Partition] = []
    n_pages = max(sheet_of_ranked) + 1
    for pg in range(n_pages):
        members = [i for i, sh in enumerate(sheet_of_ranked) if sh == pg]
        rects = partition_page(usable, [ranked_weights[i] for i in members])
        for i, rect in zip(members, rects):
            cluster = cluster_rank[i]
            leaves[cluster] = (pg, rect)
            partitions.append(Partition(page=pg, cluster=cluster, rect=rect))

    def place(scale: float) -> PageLayout | None:
        placements = _try_pack(scale, order, sizes, cluster_of, leaves, gutter)
        return None if placements is None else PageLayout(
            (page_w, page_h), margin, gutter, n_pages, scale, tuple(partitions), tuple(placements), cluster_of)

    return place


def scale_range(slot_width_mm: float) -> tuple[float, float]:
    """The scales `pack` searches at a slot width, [low, high): low prints
    the slot at LEGIBLE_SLOT_FRACTION of MIN_PRINT_SLOT_MM, and the search
    doubles from low at most 64 times."""
    low = LEGIBLE_SLOT_FRACTION * MIN_PRINT_SLOT_MM / slot_width_mm
    return low, low * 2.0**64


def pack(
    slices: list[Slice],
    plan: AssemblyPlan,
    clusters: ClusterModel,
    spacing: tuple[float, float, float],
    orientations: tuple[str, str] = ("x", "y"),
    page_size: tuple[float, float] = PAGE_SIZES_MM["A4"],
    sheets: int = 1,
    margin: float = DEFAULT_MARGIN_MM,
    gutter: float = DEFAULT_GUTTER_MM,
    slot_width_mm: float = 1.0,
) -> PageLayout:
    """Pack every slice at one global scale: the returned scale packs, and a
    probe within SCALE_TOLERANCE above it did not. It need not be the
    largest scale that packs, since feasibility is not monotone in scale.

    The smallest scale searched, the low end of `scale_range`, prints the
    slot LEGIBLE_SLOT_FRACTION of MIN_PRINT_SLOT_MM wide; if even that does
    not fit, packing is infeasible. Each cluster lands on
    one page, so more sheets help only while there are fewer than clusters;
    past that, a bigger page or a wider slot (a smaller minimum scale) does.
    """
    place = page_plan(slices, plan, clusters, spacing, orientations, page_size, sheets, margin, gutter)
    scale_min, scale_max = scale_range(slot_width_mm)
    lo, layout = scale_min, place(scale_min)  # always the packing at `lo`, the largest feasible scale probed
    if layout is None:
        total_area = sum((w * scale_min + gutter) * (h * scale_min + gutter)
                         for w, h in (slice_print_size(s, spacing, orientations) for s in slices))
        pages_of_area = total_area / ((page_size[0] - 2 * margin) * (page_size[1] - 2 * margin))
        # each cluster lands on one page, so sheets past k stay empty; an
        # area no float holds (a huge gutter) names no sheet count either
        if sheets >= clusters.k or not math.isfinite(pages_of_area):
            hint = "try a larger page or a wider --slot-width"
        else:
            hint = f"try --sheets {min(max(math.ceil(pages_of_area), sheets + 1), clusters.k)} or a larger page"
        raise InfeasibleError(
            "slices do not fit even at the minimum legible scale "
            f"(printed slot width below {scale_min * slot_width_mm:g} mm)",
            hint=hint,
        )
    hi = scale_min * 2
    while hi <= scale_max:
        probe = place(hi)
        if probe is None:
            break
        lo, layout = hi, probe
        hi *= 2
    else:
        raise ValidationError("packing feasibility did not bound; check slice sizes")
    while hi - lo > SCALE_TOLERANCE * lo:
        mid = (lo + hi) / 2.0
        probe = place(mid)
        if probe is None:
            hi = mid
        else:
            lo, layout = mid, probe
    return layout
