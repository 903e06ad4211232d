"""Visibility-driven octree partitioning and slice extraction.

A node subdivides while it still contains two or more distinct visible
structures, the level budget allows, and every axis is at least two voxels
wide. Every node emits one center slice per configured plane family;
coplanar touching slices are then unified into minimal bounding rectangles.
All of it is array work, with no Python work per node or per rectangle."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import decode
from .errors import ValidationError
from .volume import LabelVolume

AXES = ("x", "y", "z")

Bounds = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def up_axis(orientations: tuple[str, str]) -> str:
    """The axis shared by both slicing plane families (the hinge direction)."""
    rest = [a for a in AXES if a not in orientations]
    if len(orientations) != 2 or orientations[0] == orientations[1] or len(rest) != 1:
        raise ValidationError(f"orientations must be two distinct axes, got {orientations}")
    return rest[0]


@dataclass(frozen=True, eq=False)
class OctreeNode:
    """Node `id` of a tree made by `build_octree`; row i holds node i, in preorder."""

    box: np.ndarray  # (n, 3, 2) inclusive lo, exclusive hi per axis, voxel units
    levels: np.ndarray  # (n,) 1 for the root
    words: np.ndarray  # (n, w) label l > 0 sets bit l % bits of word l // bits
    child_ids: np.ndarray  # (n, 8) x slowest; -1 for a leaf
    id: int = 0

    @property
    def bounds(self) -> Bounds:
        return tuple(map(tuple, self.box[self.id].tolist()))

    @property
    def level(self) -> int:
        return int(self.levels[self.id])

    @property
    def distinct_labels(self) -> frozenset[int]:
        words, bits = self.words[self.id].tolist(), self.words.itemsize * 8
        return frozenset(w * bits + b for w, word in enumerate(words) for b in range(bits) if word >> b & 1)

    @property
    def children(self) -> tuple["OctreeNode", ...]:
        return tuple(replace(self, id=c) for c in self.child_ids[self.id].tolist() if c >= 0)

    @property
    def is_leaf(self) -> bool:
        return bool(self.child_ids[self.id, 0] < 0)


_SLAB_VOXELS = 1 << 21  # the most voxels a slab of `_finest_masks` holds, unless one block layer holds more


def _finest_masks(grid: np.ndarray, n_bits: int, edges: list[np.ndarray]) -> np.ndarray:
    """(n, n, n, w) label-bit words OR-ed over every block between `edges`.

    Slabs of whole blocks along the slowest-stride axis are folded one by
    one and joined, so no word grid outgrows a slab. Along one-voxel blocks
    a slab holds an even number: an empty block, the first half of a halved
    voxel, reads the voxel its sibling holds, so it never ends a slab."""
    import numpy as np

    axis = max(range(3), key=grid.strides.__getitem__)  # the slowest-stride axis
    e, size = edges[axis], grid.shape[axis]
    width = -(-size // (len(e) - 1))  # the widest block: halving keeps widths within one
    k = max(_SLAB_VOXELS * size // (grid.size * width), 1)  # blocks per slab
    if width == 1:
        k = max(k - k % 2, 2)
    if k >= len(e) - 1:
        return _fold_masks(grid, n_bits, edges)
    parts = []
    for first in range(0, len(e) - 1, k):
        slab = e[first:first + k + 1]
        part = grid[(slice(None),) * axis + (slice(slab[0], slab[-1]),)]
        parts.append(_fold_masks(part, n_bits, [*edges[:axis], slab - slab[0], *edges[axis + 1:]]))
    return np.concatenate(parts, axis=axis)


def _fold_masks(grid: np.ndarray, n_bits: int, edges: list[np.ndarray]) -> np.ndarray:
    """The words of `_finest_masks` over one slab, or the whole grid.

    Word w is `1 << (label - w * bits)`, 0 past the word's width, in words
    as wide as `n_bits` labels need. Axes that split into equal blocks fold
    by reshape in memory order: whole planes of the slowest axis first, so
    each step shrinks the word grid by its block width with long contiguous
    ORs. The other axes then `reduceat` what is left; an empty block (never
    a node's) reads the voxel its sibling holds. Bit 0 of word 0 is the
    background, cleared at the end."""
    import numpy as np

    dtype = np.dtype(f"uint{next((b for b in (8, 16, 32) if n_bits <= b), 64)}")
    bits, order = dtype.itemsize * 8, np.argsort(grid.strides)[::-1]  # the axis of smallest stride last
    out = []
    for w in range(n_bits // bits + 1):
        if w:
            masks = np.subtract(grid, bits * w, dtype=dtype)  # a label below the word wraps past its width
            np.left_shift(1, masks, out=masks)
        else:
            masks = np.left_shift(1, grid, dtype=dtype)
        masks = masks.transpose(order)
        for axis in range(3):
            if (shape := masks.shape)[axis] % (n := len(edges[order[axis]]) - 1) == 0:
                masks = np.bitwise_or.reduce(masks.reshape(*shape[:axis], n, -1, *shape[axis + 1:]), axis=axis + 1)
        for axis in reversed(range(3)):  # the axes that did not fold
            if masks.shape[axis] != len(edges[order[axis]]) - 1:
                masks = np.bitwise_or.reduceat(masks, edges[order[axis]][:-1], axis=axis)
        out.append(masks.transpose(np.argsort(order)))
    out[0] &= ~dtype.type(1)
    return np.stack(out, axis=-1)


def build_octree(labels: LabelVolume, max_level: int) -> OctreeNode:
    """Octant subdivision driven by distinct visible labels, one depth at a time.

    A node at depth d is a block of the grid with axes halved d times, down
    to where the level budget ends or some axis has no block two voxels wide.
    Label masks OR over that finest grid's blocks, then 2 x 2 x 2 per depth.
    A depth's nodes are the children of the splitting nodes above; a child's
    preorder id is its parent's plus one plus its elder siblings' subtree sizes.
    An all-background volume gives a leaf root with no labels, which
    `pipeline.stage_slice` reports. No label exceeds `labels.n_labels`, as
    `quantize` gives them. `max_level` is at least 1, as the CLI holds --level."""
    import numpy as np

    grid, n_bits = labels.labels, labels.n_labels
    edges = [[np.array([0, int(n)]) for n in labels.dims]]  # edges[d][axis]: block bounds at depth d
    while len(edges) < max_level and all(np.diff(e).max() >= 2 for e in edges[-1]):
        edges.append([np.insert(e, range(1, len(e)), (e[:-1] + e[1:]) // 2) for e in edges[-1]])
    masks = [_finest_masks(grid, n_bits, edges[-1])]
    while len(masks) < len(edges):  # each coarser grid ORs 2 x 2 x 2 blocks of the one below
        masks.insert(0, np.bitwise_or.reduce(masks[0].reshape((len(masks[0]) // 2, 2) * 3 + (-1,)), axis=(1, 3, 5)))
    depths, index = [], np.zeros((1, 3), dtype=np.intp)  # index: every node's block at this depth
    for e, m in zip(edges, masks):
        box = np.stack([e[a][index[:, a, None] + [0, 1]] for a in range(3)], axis=1)
        words = m[tuple(index.T)]
        split = (words & (words - 1)).any(axis=1) | ((words != 0).sum(axis=1) >= 2)  # two labels or more
        split &= (np.diff(box)[..., 0] >= 2).all(axis=1) & (len(depths) + 1 < len(edges))
        depths.append((box, words, split))
        index = (2 * index[split, None, :] + np.indices((2, 2, 2)).reshape(3, -1).T).reshape(-1, 3)
    sizes = [np.zeros(0, dtype=np.int64)]  # subtree sizes, deepest depth first
    for *_, split in reversed(depths):
        sizes.append(np.ones(len(split), dtype=np.int64))
        sizes[-1][split] += sizes[-2].reshape(-1, 8).sum(axis=1)
    n, ids = int(sizes[-1][0]), np.zeros(1, dtype=np.int64)
    root = OctreeNode(np.empty((n, 3, 2), np.int64), np.empty(n, np.int64), np.empty((n, m.shape[-1]), m.dtype),
                      np.full((n, 8), -1, np.int64))
    for depth, (box, words, split) in enumerate(depths):
        root.box[ids], root.levels[ids], root.words[ids] = box, depth + 1, words
        if depth + 1 < len(depths):
            size = sizes[-depth - 2].reshape(-1, 8)
            root.child_ids[ids[split]] = ids[split, None] + 1 + np.cumsum(size, axis=1) - size
            ids = root.child_ids[ids[split]].ravel()
    return root


def iter_nodes(root: OctreeNode):
    """Every node of the tree, in preorder. No stage calls it: beside the
    tests, its one caller is `perfbench/tracing.py`, which counts the nodes."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Slice:
    """Axis-aligned rectangular slice on an integer plane.

    ``orientation`` is the plane normal axis. The in-plane frame is
    (u, v) where u runs along the other plane family's normal and v along
    the shared up axis; ``extent`` is (u0, v0, u1, v1) in voxel units.
    """

    id: int
    orientation: str
    plane_coord: int
    extent: tuple[int, int, int, int]
    source_nodes: tuple[int, ...]

    @property
    def u_range(self) -> tuple[int, int]:
        return (self.extent[0], self.extent[2])

    @property
    def v_range(self) -> tuple[int, int]:
        return (self.extent[1], self.extent[3])

    @property
    def area(self) -> int:
        u0, v0, u1, v1 = self.extent
        return (u1 - u0) * (v1 - v0)


def slice_axes(orientation: str, orientations: tuple[str, str]) -> tuple[int, int, int]:
    """(normal, u, v) axis indices for a slice of the given family."""
    normal = AXES.index(orientation)
    other = orientations[1] if orientation == orientations[0] else orientations[0]
    return normal, AXES.index(other), AXES.index(up_axis(orientations))


@dataclass(frozen=True, eq=False)
class RawSlices:
    """Unnumbered slices as arrays; iterating yields each as a `Slice`.

    The rows of one quad are the slices of one family of the four children
    on one side of a split node's centre plane. They share that plane and
    tile the node's cross-section, and since a node splits only with every
    axis at least two voxels wide, neighbouring quarters meet along an edge
    of positive length: a quad always unifies into the node's cross-section."""

    rects: np.ndarray  # (n, 6): normal axis, plane, u0, v0, u1, v1
    nodes: np.ndarray  # (m,) source node ids
    owner: np.ndarray  # (m,) nondecreasing: the row of `rects` each source node belongs to
    quad: np.ndarray  # (n,) the first row of each row's quad; a row alone is its own

    def __len__(self) -> int:
        return len(self.rects)

    def __iter__(self):
        import numpy as np

        nodes = np.split(self.nodes, np.searchsorted(self.owner, np.arange(1, len(self))))
        for (axis, plane, *extent), n in zip(self.rects.tolist(), nodes):
            yield Slice(-1, AXES[axis], plane, tuple(extent), tuple(n.tolist()))


def extract_slices(root: OctreeNode, orientations: tuple[str, str] = ("x", "y")) -> RawSlices:
    """One center slice per node and plane family, bounding planes excluded,
    each row tagged with its quad (see `RawSlices`)."""
    import numpy as np

    box, families = root.box, []
    kids = root.child_ids[root.child_ids[:, 0] >= 0]  # each split node's children, octant 4x + 2y + z in that column
    for f, orientation in enumerate(orientations):
        normal, u, v = slice_axes(orientation, orientations)
        plane = box[:, normal].sum(axis=1) // 2
        keep = (plane != box[:, normal, 0]) & (plane != box[:, normal, 1])
        (u0, u1), (v0, v1) = box[:, u].T, box[:, v].T
        # a quad by its first node: the sibling on the same side of the normal, at 0 along the other axes
        first = np.arange(len(plane))  # the root is a quad of its own
        first[kids] = kids[:, np.arange(8) & (4 >> normal)]
        families.append(np.stack([keep, np.full_like(plane, normal), plane, u0, v0, u1, v1, np.arange(len(plane)),
                                  first * len(orientations) + f], 1))
    rows = np.stack(families, axis=1).reshape(-1, 9)
    row_of = np.cumsum(rows[:, 0]) - 1  # the row each (node, family) gets, if kept; a quad keeps all or none
    rows = rows[rows[:, 0] == 1]
    return RawSlices(rows[:, 1:7], rows[:, 7], np.arange(len(rows)), row_of[rows[:, 8]])


def unify_slices(raw: RawSlices | list[Slice]) -> list[Slice]:
    """Coalesce coplanar touching slices into their bounding rectangles.

    Each round replaces every connected component of meeting boxes by its
    bounding box, until no two meet. Meeting only grows with the boxes, so
    every fixpoint joins what a round joins: this is the least fixpoint,
    whatever the input order. The first round joins each quad of a
    `RawSlices` without a pair test: its rows always meet, so any round
    would join them. Idempotent; coplanar slices end up pairwise
    disjoint and non-adjacent, numbered in (orientation, plane, extent)
    order, their source nodes sorted."""
    import numpy as np

    if not isinstance(raw, RawSlices):
        owner, nodes = np.array([(i, n) for i, s in enumerate(raw) for n in s.source_nodes], np.int64).reshape(-1, 2).T
        rects = np.array([(AXES.index(s.orientation), s.plane_coord, *s.extent) for s in raw], np.int64)
        raw = RawSlices(rects.reshape(-1, 6), nodes, owner, np.arange(len(raw)))
    boxes, box_of, label = raw.rects.copy(), np.arange(len(raw)), raw.quad  # box_of: the box each raw rectangle is in
    while True:  # each round joins the boxes that share a label: first the quads, then the components that meet
        for column, join in enumerate((np.minimum, np.minimum, np.maximum, np.maximum), 2):
            join.at(boxes[:, column], label, boxes[:, column])  # a root's row becomes its component's box
        roots = np.flatnonzero(label == np.arange(len(label)))
        boxes, box_of = boxes[roots], np.searchsorted(roots, label)[box_of]
        if len(boxes) < 2:
            break
        # sorted by (axis, plane, u0), box i can only meet the next ones up to
        # the last on its plane whose u0 is within its u1; step k tests the k-th
        b = boxes[order := np.lexsort((boxes[:, 2], boxes[:, 1], boxes[:, 0]))]
        group = np.cumsum(np.r_[True, (b[1:, :2] != b[:-1, :2]).any(axis=1)])
        span = b[:, 4].max() - b[:, 2].min() + 1
        last = np.searchsorted(group * span + b[:, 2], group * span + b[:, 4], side="right")
        i, k, pairs = np.arange(len(b)), 1, [np.zeros((2, 0), dtype=np.intp)]
        while len(i := i[i + k < last[i]]):
            du = np.minimum(b[i, 4], b[i + k, 4]) - np.maximum(b[i, 2], b[i + k, 2])
            dv = np.minimum(b[i, 5], b[i + k, 5]) - np.maximum(b[i, 3], b[i + k, 3])
            meet = i[((du > 0) & (dv >= 0)) | ((du >= 0) & (dv > 0))]
            pairs.append(order[np.stack([meet, meet + k])])
            k += 1
        if not (pairs := np.concatenate(pairs, axis=1)).size:
            break
        label = np.arange(len(boxes))
        while not np.array_equal(*(ends := label[pairs])):  # hook the larger root onto the smaller
            np.minimum.at(label, ends.max(axis=0), ends.min(axis=0))
            while not np.array_equal(label[label], label):
                label = label[label]
    order = np.lexsort(boxes.T[::-1])  # by axis, plane, u0, v0, u1, v1
    span = raw.nodes.max(initial=0) + 1  # node ids are preorder ids, >= 0
    key = np.sort(np.argsort(order)[box_of[raw.owner]] * span + raw.nodes)  # (slice, node), sorted
    key = key[np.diff(key, prepend=-1) != 0]  # once each; np.unique would import numpy.ma on first use
    per_slice = np.split(key % span, np.searchsorted(key // span, np.arange(1, len(boxes))))
    return [
        Slice(i, AXES[axis], plane, tuple(extent), tuple(n.tolist()))
        for i, ((axis, plane, *extent), n) in enumerate(zip(boxes[order].tolist(), per_slice))
    ]


def slices_from_json(items: list[dict], path: str) -> list[Slice]:
    """The slices of the artifact read from `path`."""
    return decode(list[Slice], items, f"slices {path}")
