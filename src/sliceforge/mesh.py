"""Triangle-mesh ingestion and conversion to a labeled volume.

OBJ text is parsed from its bytes: each line is classified by its first
token, and one `np.fromstring` call converts all coordinates and one all face
indices. Meshes are voxelized by parity counting of axis-aligned ray crossings at
voxel centers, all meshes at once, one bit each in a grid of bytes (eight
meshes per byte). A generic ray from inside a closed mesh (every edge shared
by an even number of triangles) crosses it an odd number of times, so a set
of closed meshes takes one parity pass; a set with an open mesh takes one per
ray axis and their bitwise majority, the repair rule of Nooruddin & Turk
(IEEE TVCG 2003) for meshes with holes. A ray is tested against a triangle
only where the ray's column crosses the triangle. Membership changes along a
ray only at a crossing, so every count the nesting order needs and every
label are read off those changes, not off the voxels (the column XOR of
Schwarz & Seidel, SIGGRAPH Asia 2010). Each mesh becomes one integer
intensity, so nested anatomy stays distinct downstream and the grid is one
byte per voxel up to 255 meshes.
"""

from __future__ import annotations

import colorsys
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

from .codec import read_bytes
from .errors import ValidationError
from .volume import ScalarVolume, TransferBin, TransferFunction

# fraction of the bounding box added per side so the outermost voxel layer
# is guaranteed exterior; must exceed half a voxel at the minimum supported
# resolution (8 per axis)
_PAD_FRACTION = 0.08

# mesh world units are arbitrary; the padded bounds are normalized so the
# longest side prints at this physical size at scale 1
REFERENCE_EXTENT_MM = 100.0

# the voxels one voxelization may hold, as render.MAX_RASTER_PIXELS bounds an
# export: 512^3 fits; each parity grid (one or three, a byte per voxel per 8 meshes),
# the flags of its membership changes and the label grid take a byte per voxel
MAX_GRID_VOXELS = 1 << 28

# (triangle, ray) candidate pairs the voxelizer evaluates at once; bounds its
# temporaries to about 1 MB, which keeps them in a core's L2 cache (on four nested
# spheres, 2^14 ran 4-8 % slower at 128^3 and 256^3, 2^15 12-40 %, 2^12 ~12 % at 256^3)
_MAX_CANDIDATES = 1 << 13

# the characters past ASCII that str.split() splits on; str.splitlines() ends
# lines at three of them
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")

_HUE_STEP = 0.618  # golden-ratio conjugate, truncated per palette convention
_PALETTE_S = 0.65
_PALETTE_V = 0.9


@dataclass(frozen=True, eq=False)
class Mesh:
    name: str
    vertices: np.ndarray  # (n, 3) float64, mm
    triangles: np.ndarray  # (m, 3) int

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValidationError(f"mesh {self.name!r}: vertices must be (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValidationError(f"mesh {self.name!r}: triangles must be (m, 3)")
        if len(self.vertices) == 0 or len(self.triangles) == 0:
            raise ValidationError(f"mesh {self.name!r} is empty")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise ValidationError(f"mesh {self.name!r}: triangle index out of range")

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


@dataclass(frozen=True)
class MeshSet:
    meshes: tuple[Mesh, ...]

    def __post_init__(self):
        if not self.meshes:
            raise ValidationError("MeshSet is empty")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        lo = np.min([m.vertices.min(axis=0) for m in self.meshes], axis=0)
        hi = np.max([m.vertices.max(axis=0) for m in self.meshes], axis=0)
        return lo, hi


def load_obj(path: str | Path) -> Mesh:
    """Parse the v/f subset of OBJ text in UTF-8 (triangulated faces only).

    Bytes that are no UTF-8, a token that is no number and a face index that
    names no vertex raise ValidationError naming the file and line. A file
    whose only whitespace is ASCII is parsed from its bytes
    (`_parse_obj_bytes`); any other file, and one that fails that parse, is
    parsed line by line."""
    path = Path(path)
    data = read_bytes(path, "mesh file")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; the line after it holds the byte
        ln = len((data[:exc.start].decode() + "?").splitlines())
        raise ValidationError(f"{path}:{ln}: byte {data[exc.start]:#04x} is not UTF-8 text") from None
    if text.isascii() or not _WIDE_SPACE.search(text):
        parsed = _parse_obj_bytes(data)
        if parsed is not None:
            return Mesh(path.stem, *parsed)
    return _parse_obj_lines(path, text.splitlines())


def _parse_obj_bytes(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The vertices and triangles of a valid OBJ file whose only whitespace is
    ASCII, or None where `_parse_obj_lines` must decide. Lines are classified
    by their first token; the rest of the v lines and of the f lines (i/j/k
    tails cut) go to one `np.fromstring` call each, which raises on a token
    that is no number."""
    import numpy as np

    b = np.frombuffer(bytearray(b"\n" + data + b"\n\n"), np.uint8)
    space = b <= 32  # tab, line breaks and space; a file with other control bytes goes line by line
    ends = np.flatnonzero((b == 10) | (b == 13))  # line i is b[ends[i] + 1:ends[i + 1] + 1]
    if np.count_nonzero(b < 32) != len(ends) + np.count_nonzero(b == 9):
        return None
    # where each token starts, then a stop on the last break for lines past the last token
    tokens = np.append(np.flatnonzero(space[:-1] > space[1:]) + 1, len(b) - 2)
    first = np.searchsorted(tokens, ends)
    count, head = np.diff(first), tokens[first[:-1]]  # per line: its tokens, where its first starts
    kind = np.where(space[head + 1] & (count > 0), b[head], 0)  # the byte of a one-byte first token
    is_v, is_f = kind == ord("v"), kind == ord("f")
    if not (is_v.any() and is_f.any() and (count[is_v] >= 4).all() and (count[is_f] == 4).all()):
        return None
    b[head[is_v | is_f]] = 32  # blank the first token, so every byte of a line is its value text
    part = np.repeat(kind, np.diff(ends))  # the kind of the line of each byte of b[1:]
    coords, indices = b[1:][part == ord("v")].tobytes(), b[1:][part == ord("f")].tobytes()
    if coords.translate(None, b"0123456789+-.eE \t\n\r"):  # plain decimals, which float() and numpy read alike
        return None
    if b"/" in indices:  # the first field of an i/j/k token names the vertex
        indices = re.sub(rb"/\S*", b"", indices)
    try:
        values = np.fromstring(coords, sep=" ")
        faces = np.fromstring(indices, np.int64, sep=" ").reshape(-1, 3)
    except ValueError:
        return None
    per_line = count[is_v] - 1  # coordinates of each v line: its first three are the vertex
    # a face token cut to nothing, or a numpy that stops at a bad token with a
    # warning instead of raising, leaves fewer numbers than tokens
    if values.size != per_line.sum() or len(faces) != np.count_nonzero(is_f):
        return None
    vertices = values[(np.cumsum(per_line) - per_line)[:, None] + np.arange(3)]
    # a negative index counts back from the `v` lines before its face
    before = np.searchsorted(np.flatnonzero(is_v), np.flatnonzero(is_f))
    triangles = np.where(faces > 0, faces - 1, faces + before[:, None])
    if ((faces != 0) & (triangles >= 0) & (triangles < len(vertices))).all() and np.isfinite(vertices).all():
        return vertices, triangles
    return None


def _parse_obj_lines(path: Path, lines: list[str]) -> Mesh:
    """`load_obj` one line at a time: raises ValidationError at the first bad
    line, else returns what the array parse returns; a file with no vertex
    or no face gives an empty (0, 3) array, which `Mesh` reports."""
    import numpy as np

    rows = [line.split() for line in lines]
    n_vertices = sum(parts[:1] == ["v"] for parts in rows)
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []
    for ln, (line, parts) in enumerate(zip(lines, rows), start=1):
        if not parts or parts[0] not in ("v", "f"):
            continue
        try:
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValidationError(f"{path}:{ln}: vertex needs 3 coordinates")
                xyz = tuple(float(c) for c in parts[1:4])
                if not all(map(math.isfinite, xyz)):
                    raise ValidationError(f"{path}:{ln}: vertex coordinates must be finite, got {line.strip()!r}")
                vertices.append(xyz)
            else:
                if len(parts) != 4:
                    raise ValidationError(f"{path}:{ln}: only triangulated faces are supported")
                idx = []
                for tok in parts[1:4]:
                    tok = tok.split("/")[0]
                    i = int(tok)
                    if i == 0 or -i > len(vertices) or i > n_vertices:
                        raise ValidationError(
                            f"{path}:{ln}: face index {i} names no vertex (OBJ counts from 1 to the "
                            "file's last vertex, and from -1 back from the last vertex read)"
                        )
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                triangles.append(tuple(idx))
        except ValueError:  # float() or int() of a token that is no number
            raise ValidationError(f"{path}:{ln}: {line.strip()!r} holds a token that is not a number") from None
    return Mesh(
        name=path.stem,
        vertices=np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
        triangles=np.asarray(triangles, dtype=np.int64).reshape(-1, 3),
    )


def save_obj(mesh: Mesh, path: str | Path) -> None:
    """Write `mesh` as OBJ text. No stage calls it: beside the tests, its one
    caller is `perfbench/workloads.py`, which writes the benchmark's meshes."""
    lines = [f"# {mesh.name}"]
    lines += [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in mesh.vertices]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles]
    Path(path).write_text("\n".join(lines) + "\n")


def golden_palette(n: int) -> list[tuple[float, float, float]]:
    """Deterministic qualitative palette with guaranteed hue separation.

    Golden-ratio hue stepping; when n is large enough that the stepped hues
    violate the 1/(2n) minimum circular separation, the same hues are
    redistributed to even spacing while keeping their golden rank order.
    """
    hues = [(i * _HUE_STEP) % 1.0 for i in range(n)]
    if n > 1:
        hs = sorted(hues)
        gaps = [(hs[(i + 1) % n] - hs[i]) % 1.0 for i in range(n)]
        if min(gaps) < 1.0 / (2 * n):
            rank = {h: r for r, h in enumerate(hs)}
            hues = [rank[h] / n for h in hues]
    return [colorsys.hsv_to_rgb(h, _PALETTE_S, _PALETTE_V) for h in hues]


def _parity_words(meshes: tuple[Mesh, ...], centers: tuple[np.ndarray, np.ndarray, np.ndarray], axis: int) -> np.ndarray:
    """Bit-packed inside-grids of all meshes using rays along one axis.

    Returns a ``uint8`` view of shape ``(words, nx, ny, nz)``: bit ``i % 8``
    of word ``i // 8`` is set where mesh i holds the voxel.

    Rays pass through voxel centers; a voxel is inside when an odd number
    of triangle crossings lie below its center along the ray axis. Query
    points are jittered by a sub-nanovoxel irrational offset so rays cannot
    hit shared triangle edges exactly (grid-aligned meshes otherwise double
    count crossings on face diagonals).

    The triangles of every mesh are processed together as flat arrays. Each
    triangle not parallel to the ray axis meets each ray column (u) of its
    projected bounding box in a v-interval; the rays in that interval,
    widened by 1e-6 voxel, are its candidates. A candidate's barycentric
    weights decide whether the ray crosses the triangle and at which depth.
    A crossing flips its mesh's bit in the toggle word of the first voxel
    center above it, and the running XOR of those words along the ray is
    every mesh's parity at once. Candidates are evaluated at most
    _MAX_CANDIDATES at a time, so the temporaries stay about 1 MB.
    """
    import numpy as np

    # `v_at` of an edge that does not span its column may divide by zero or
    # overflow, and a subnormal projected area overflows the weights; the inf
    # and nan they give count no hit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u_axis, v_axis = [a for a in range(3) if a != axis]
        cu, cv, cr = centers[u_axis], centers[v_axis], centers[axis]
        n_u, n_v, n_r = len(cu), len(cv), len(cr)
        n_words = (len(meshes) + 7) // 8
        cu = cu + (cu[1] - cu[0]) * 2.718281828e-7
        cv = cv + (cv[1] - cv[0]) * 3.141592653e-7

        tri = np.concatenate([m.vertices[m.triangles] for m in meshes])  # (m, 3, 3)
        owner = np.repeat(np.arange(len(meshes)), [len(m.triangles) for m in meshes])
        # one row per corner: numpy reduces over a length-3 inner axis ~40x slower
        pu, pv, pr = (np.ascontiguousarray(tri[:, :, a].T) for a in (u_axis, v_axis, axis))
        area2 = (pu[1] - pu[0]) * (pv[2] - pv[0]) - (pu[2] - pu[0]) * (pv[1] - pv[0])
        # rays inside each triangle's projected bounding box; triangles parallel
        # to the ray axis (area2 == 0) admit no interior crossing and get none
        iu0 = np.searchsorted(cu, pu.min(axis=0))
        iv0 = np.searchsorted(cv, pv.min(axis=0))
        iv1 = np.searchsorted(cv, pv.max(axis=0), side="right")
        span_u = np.maximum(np.searchsorted(cu, pu.max(axis=0), side="right") - iu0, 0)
        span_u[(area2 == 0.0) | (iv1 <= iv0)] = 0
        # one (triangle, column) pair per column of each box
        t, col = _expand(span_u, iu0)
        gu = cu[col]
        ua, va = pu[:, t], pv[:, t]
        ub, vb = ua[[1, 2, 0]], va[[1, 2, 0]]  # edges 0-1, 1-2, 2-0
        # the v where the column crosses each edge that spans it (an edge along
        # the column adds nothing: the two others end at its vertices)
        spans = (np.minimum(ua, ub) <= gu) & (gu <= np.maximum(ua, ub)) & (ua != ub)
        v_at = va + (gu - ua) / (ub - ua) * (vb - va)  # fraction first: subnormal products round coarsely
        margin = 1e-6 * (cv[1] - cv[0])  # far above the rounding of the interval ends
        lo = np.searchsorted(cv, np.where(spans, v_at, np.inf).min(axis=0) - margin)
        hi = np.searchsorted(cv, np.where(spans, v_at, -np.inf).max(axis=0) + margin, side="right")
        lo, hi = np.maximum(lo, iv0[t]), np.minimum(hi, iv1[t])
        # one candidate per ray of each pair's interval
        pair, cand_v = _expand(np.maximum(hi - lo, 0), lo)
        cand_t, cand_u = t[pair], col[pair]
        # one row per triangle: u0 u1 u2 v0 v1 v2 r0 r1 r2 area2
        rows = np.column_stack([pu.T, pv.T, pr.T, area2])
        word, bit = np.divmod(owner, 8)
        flag = np.left_shift(1, bit).astype(np.uint8)

        # toggles[k, iu, iv, w] flips a mesh's bit once per crossing r with
        # cr[k - 1] <= r < cr[k]; row n_r collects the crossings at or above
        # every center
        toggles = np.zeros((n_r + 1, n_u, n_v, n_words), dtype=np.uint8)
        for first in range(0, len(pair), _MAX_CANDIDATES):
            chunk = slice(first, first + _MAX_CANDIDATES)
            t, iu, iv = cand_t[chunk], cand_u[chunk], cand_v[chunk]
            gu, gv = cu[iu], cv[iv]
            u0, u1, u2, v0, v1, v2, r0, r1, r2, a2 = rows[t].T
            # barycentric coordinates in the projection plane
            w0 = ((u1 - gu) * (v2 - gv) - (u2 - gu) * (v1 - gv)) / a2
            w1 = ((u2 - gu) * (v0 - gv) - (u0 - gu) * (v2 - gv)) / a2
            w2 = 1.0 - w0 - w1
            hit = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)
            r_hit = w0[hit] * r0[hit] + w1[hit] * r1[hit] + w2[hit] * r2[hit]
            above = np.searchsorted(cr, r_hit, side="right")
            t = t[hit]
            at = ((above * n_u + iu[hit]) * n_v + iv[hit]) * n_words + word[t]
            np.bitwise_xor.at(toggles.reshape(-1), at, flag[t])
        # running parity along the ray, one contiguous plane at a time
        # (bitwise_xor.accumulate over axis 0 is an order of magnitude slower)
        for k in range(1, n_r):
            np.bitwise_xor(toggles[k], toggles[k - 1], out=toggles[k])
        return np.moveaxis(toggles[:n_r], (3, 0, 1, 2), (0, axis + 1, u_axis + 1, v_axis + 1))


def _is_closed(mesh: Mesh) -> bool:
    """Every edge is shared by an even number of triangles once vertices with
    bitwise equal coordinates are welded, so the mesh is a mod-2 cycle."""
    import numpy as np

    rows = np.ascontiguousarray(mesh.vertices, dtype=np.float64).view(np.dtype((np.void, 24))).ravel()
    _, weld = np.unique(rows, return_inverse=True)
    corners = weld[mesh.triangles]
    ends = np.sort(np.stack([corners, np.roll(corners, -1, axis=1)]), axis=0)  # edges 0-1, 1-2, 2-0
    _, counts = np.unique(ends[0] * len(rows) + ends[1], return_counts=True)
    return not (counts % 2).any()


def _expand(counts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat arrays of i and first[i] + k for each i and each k < counts[i]."""
    import numpy as np

    owner = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    return owner, np.arange(len(owner)) - (ends - counts - first)[owner]


def _changes(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a ray along axis 0 changes membership: the flat index of each
    such voxel in the C-ordered grid, and the membership words of the voxel
    before it (zeros at depth 0) and of itself, each (changes, words)."""
    import numpy as np

    n_words, n_r = pattern.shape[:2]
    grid = np.moveaxis(pattern, 0, -1).reshape(n_r, -1, n_words)  # a view of the toggles or the majority
    moved = grid[1:, :, 0] != grid[:-1, :, 0]
    for w in range(1, n_words):  # a byte per voxel for any number of words
        moved |= grid[1:, :, w] != grid[:-1, :, w]
    at = np.concatenate([np.flatnonzero(grid[0].any(axis=1)), np.flatnonzero(moved) + grid.shape[1]])
    depth, ray = np.divmod(at, grid.shape[1])
    return at, np.where((depth > 0)[:, None], grid[depth - 1, ray], 0), grid[depth, ray]


def _pair_counts(changes: tuple[np.ndarray, ...], shape: tuple[int, int, int], n: int) -> np.ndarray:
    """(n, n) voxel counts held by both mesh i and mesh j; the diagonal is
    each mesh's own count. A change moves the voxels from it to its ray's end
    from its words before to its words after, so histograms of the words
    weighted +run after and -run before each change (exact in float64) count
    each value: 256 bins for a word with itself, 65 536 for two words."""
    import numpy as np

    at, before, after = changes
    # bits[p, j] is bit j of the byte p: which of a word's 8 meshes a membership pattern holds
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    run = shape[0] - at // (shape[1] * shape[2])
    words, signed = np.concatenate([after, before]), np.concatenate([run, -run])
    both = np.zeros((words.shape[1] * 8,) * 2, dtype=np.int64)
    for a in range(words.shape[1]):
        for b in range(a, words.shape[1]):
            if a == b:
                block = bits.T @ (np.bincount(words[:, a], signed, minlength=256)[:, None] * bits)
            else:
                joint = np.bincount((words[:, a].astype(np.intp) << 8) | words[:, b], signed, minlength=1 << 16)
                block = bits.T @ joint.reshape(256, 256) @ bits
            both[8 * a:8 * a + 8, 8 * b:8 * b + 8] = block
            both[8 * b:8 * b + 8, 8 * a:8 * a + 8] = block.T
    return both[:n, :n]


def _label_grid(changes: tuple[np.ndarray, ...], shape: tuple[int, int, int], rank_order: list[int]) -> np.ndarray:
    """Each voxel's label: 1 + the mesh of the highest rank that holds it (rank
    r is mesh rank_order[r]; 0 for none), as ``np.min_scalar_type(n)``: each
    `_changes` voxel gets the XOR of its label and the one before it, and the
    running XOR along axis 0 fills in the rest."""
    import numpy as np

    at, before, after = changes
    ranks = np.full(after.shape[1] * 8, -1)
    ranks[rank_order] = np.arange(len(rank_order))
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # bits[p, j]: bit j of the byte p
    # per word, membership pattern -> 1 + best rank (0 for none)
    tables = np.where(bits == 1, ranks.reshape(-1, 1, 8), -1).max(axis=2) + 1
    label_of_rank = np.array([0, *(i + 1 for i in rank_order)], dtype=np.min_scalar_type(len(rank_order)))
    new, old = (label_of_rank[tables[np.arange(len(tables)), words].max(axis=1)] for words in (after, before))
    labels = np.zeros(shape, dtype=label_of_rank.dtype)
    labels.reshape(-1)[at] = new ^ old
    for k in range(1, shape[0]):
        np.bitwise_xor(labels[k], labels[k - 1], out=labels[k])
    return labels


def voxelize_meshes(meshes: MeshSet, resolution: tuple[int, int, int]) -> tuple[ScalarVolume, TransferFunction]:
    """Convert a mesh set to a labeled volume plus an automatic transfer function.

    Voxel intensity is 1 + the index of the innermost containing mesh
    (0 where no mesh contains the voxel center), as ``np.min_scalar_type(n)``
    of n meshes: uint8 up to 255, else uint16. The transfer function gets
    one bin per mesh; deeper-nested meshes receive higher opacity so inner
    structures stay visible through the assembled film stack. Coordinates
    are normalized so the longest padded side measures REFERENCE_EXTENT_MM.
    More than MAX_GRID_VOXELS voxels or 65 534 meshes raise ValidationError.
    One parity pass along x decides a set whose every mesh `_is_closed`, an
    open mesh the majority of three axis passes; counts and labels are read
    off the voxels where a ray along x changes membership (`_changes`).
    """
    import numpy as np

    if any(int(r) < 8 for r in resolution):
        raise ValidationError(f"resolution must be >= 8 per axis, got {resolution}")
    resolution = tuple(int(r) for r in resolution)
    if math.prod(resolution) > MAX_GRID_VOXELS:
        raise ValidationError(f"a {'x'.join(map(str, resolution))} grid holds {math.prod(resolution):,} voxels, "
                              f"more than the {MAX_GRID_VOXELS:,} a voxelization holds", hint="lower --resolution")
    if len(meshes.meshes) >= 0xFFFF:
        raise ValidationError(f"{len(meshes.meshes)} meshes are more than the 65 534 labels a volume holds")
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

    # mesh i holds a voxel when bit i % 8 of word i // 8 is set: in the one
    # parity grid of a closed set (axis 0), else in two of the three
    if all(_is_closed(m) for m in meshes.meshes):
        pattern = _parity_words(meshes.meshes, centers, 0)
    else:
        a, b, c = (_parity_words(meshes.meshes, centers, axis) for axis in range(3))
        pattern = np.bitwise_and(a, b, out=np.empty(a.shape, dtype=np.uint8))
        pattern |= c & (a | b)
        del a, b, c  # frees the toggle grids before the compare of `_changes`
    changes = _changes(pattern)
    del pattern  # frees the toggle grid before the label grid

    n = len(meshes.meshes)
    both = _pair_counts(changes, resolution, n).tolist()
    counts = [both[i][i] for i in range(n)]
    for m, count in zip(meshes.meshes, counts):
        if count == 0:
            warnings.warn(f"mesh {m.name!r} contains no voxel centers at this resolution")

    # nesting depth: how many other meshes (almost) completely contain this one
    depth = np.zeros(n, dtype=int)
    for i in range(n):
        if counts[i] == 0:
            continue
        for j in range(n):
            if i == j or counts[j] == 0:
                continue
            if both[i][j] >= 0.995 * counts[i] and counts[j] > counts[i]:
                depth[i] += 1

    volume_center = (lo + hi) / 2.0
    center_dist = np.array([np.linalg.norm(m.centroid - volume_center) for m in meshes.meshes])
    # innermost = deepest nesting, ties broken toward the volume center
    rank_order = sorted(range(n), key=lambda i: (depth[i], -center_dist[i], i))
    depth_rank = np.argsort(rank_order)
    scalars = _label_grid(changes, resolution, rank_order)

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
