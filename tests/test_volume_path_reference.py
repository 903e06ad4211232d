"""The chunked quantizer and the array octree against the code they
replaced (`helpers.quantize_reference`, `helpers.build_octree_reference`,
`helpers.extract_slices_reference`): same labels, same nodes, same slices,
on the inputs where the methods differ most and down every mask path."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import volume
from sliceforge.errors import ValidationError
from sliceforge.octree import build_octree, extract_slices, iter_nodes, unify_slices
from sliceforge.volume import LabelVolume, ScalarVolume, TransferBin, TransferFunction, quantize

from helpers import (
    build_octree_reference,
    extract_slices_reference,
    octree_records,
    quantize_reference,
    unify_slices_reference,
)

# float64 edges, some exact in float32 (0.5, 2.0, 1e4) and some not (0.1, 1/3, 1 + 2^-40)
EDGES = (-1e30, -3.5, -0.1, 0.0, 0.1, 1 / 3, 0.5, 1.0, 1.0 + 2.0**-40, 2.0, 1e4, 1e30)
LAYOUTS = ("C", "F", "strided")
dims_st = st.tuples(*[st.integers(1, 7)] * 3)


def _grid_in_layout(values: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":  # every other x of a grid twice as long: neither C nor F contiguous
        wide = np.zeros((2 * values.shape[0],) + values.shape[1:], values.dtype)
        wide[::2] = values
        return wide[::2]
    return np.ascontiguousarray(values)


@st.composite
def transfer_functions(draw):
    """Bins over consecutive edges; a skipped pair is a gap, so bins sharing
    an edge (hi == lo) are common. Some bins have opacity 0."""
    edges = sorted(draw(st.sets(st.sampled_from(EDGES), min_size=2)))
    pairs = list(zip(edges, edges[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).filter(any))
    opacities = draw(st.lists(st.sampled_from((0.0, 0.25, 1.0)), min_size=len(pairs), max_size=len(pairs)))
    return TransferFunction(bins=tuple(
        TransferBin(lo, hi, (0.5, 0.5, 0.5), opacity)
        for (lo, hi), kept, opacity in zip(pairs, keep, opacities)
        if kept
    ))


def _near_edges() -> list[float]:
    """Every edge as float32 and its float32 neighbours on both sides."""
    out = []
    for e in EDGES:
        f = np.float32(e)
        out += [f, np.nextafter(f, np.float32(-np.inf)), np.nextafter(f, np.float32(np.inf))]
    return [float(v) for v in out if np.isfinite(v)]


@settings(max_examples=150, deadline=None)
@given(
    tf=transfer_functions(),
    dims=dims_st,
    picks=st.lists(st.sampled_from(_near_edges()), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
    chunk=st.integers(1, 40),
)
def test_quantize_matches_reference(tf, dims, picks, seed, layout, chunk):
    # values on, just below and just above every edge; a small chunk puts
    # chunk boundaries inside the grid, often several
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(picks, dtype=np.float32), size=dims)
    vol = ScalarVolume(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), _grid_in_layout(values, layout))
    with mock.patch.object(volume, "_QUANTIZE_CHUNK", chunk):
        got = quantize(vol, tf)
    want = quantize_reference(vol, tf)
    assert got.labels.dtype == np.uint16
    assert got.labels.shape == want.labels.shape
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.n_labels == want.n_labels


def test_quantize_float64_edge_between_float32_values():
    # 0.1 lies strictly between two float32 values; the bins split there
    hi32 = np.float32(0.1)
    lo32 = np.nextafter(hi32, np.float32(0.0))
    assert float(lo32) < 0.1 < float(hi32)
    tf = TransferFunction(bins=(
        TransferBin(0.0, 0.1, (1.0, 0.0, 0.0), 0.5),
        TransferBin(0.1, 1.0, (0.0, 1.0, 0.0), 0.5),
    ))
    scalars = np.array([lo32, hi32], np.float32).reshape(2, 1, 1)
    vol = ScalarVolume((2, 1, 1), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), scalars)
    assert quantize(vol, tf).labels.ravel().tolist() == [1, 2]


def test_quantize_without_bins_is_all_background():
    # the whole-grid reference raised IndexError here
    vol = ScalarVolume((3, 2, 1), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.ones((3, 2, 1), np.float32))
    got = quantize(vol, TransferFunction(bins=()))
    assert got.n_labels == 0
    assert not got.labels.any()


# float32 bit patterns: +-0, the smallest and largest subnormals, +-FLT_MAX
SPECIAL_BITS = (0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF)


def _bits_to_float32(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


def _near_edge_bits() -> list[int]:
    """The patterns of `_near_edges`, and the first and last pattern of each
    one's 2^16-pattern bucket."""
    out = []
    for v in _near_edges():
        p = int(np.float32(v).view(np.uint32))
        out += [p, p & ~0xFFFF, p | 0xFFFF]
    return out


def _in_mixed_bucket(values: np.ndarray, tf: TransferFunction) -> np.ndarray:
    """Whether the 2^16-pattern bucket of each float32 value holds a bin break
    above its least value and at or below its greatest: the buckets whose
    voxels `quantize` must label by the break search."""
    breaks = [e for b in tf.bins for e in (b.lo, b.hi)]
    first = (values.view(np.uint32) >> 16) << 16
    ends = [_bits_to_float32(first).astype(np.float64), _bits_to_float32(first | 0xFFFF).astype(np.float64)]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    return np.array([any(a < b <= z for b in breaks) for a, z in zip(lo.ravel(), hi.ravel())]).reshape(values.shape)


def _assert_quantize_matches_reference(values: np.ndarray, tf: TransferFunction, layout: str = "F", chunk: int | None = None):
    vol = ScalarVolume(values.shape, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), _grid_in_layout(values, layout))
    with mock.patch.object(volume, "_QUANTIZE_CHUNK", chunk or volume._QUANTIZE_CHUNK):
        got = quantize(vol, tf)
    want = quantize_reference(vol, tf)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.n_labels == want.n_labels


finite_bits = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SPECIAL_BITS),
    st.sampled_from(_near_edge_bits()),
).filter(lambda b: np.isfinite(_bits_to_float32(b)))


@settings(max_examples=150, deadline=None)
@given(
    tf=transfer_functions(),
    dims=dims_st,
    picks=st.lists(finite_bits, min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
    chunk=st.integers(1, 40),
)
def test_quantize_matches_reference_on_any_finite_float32(tf, dims, picks, seed, layout, chunk):
    # negative values, both zeros, subnormals and +-FLT_MAX as well as the
    # bucket ends around every edge
    values = np.random.default_rng(seed).choice(_bits_to_float32(picks), size=dims)
    _assert_quantize_matches_reference(values, tf, layout, chunk)


def test_quantize_every_voxel_in_a_mixed_bucket():
    # edges inside their buckets, voxels drawn from those buckets' patterns
    tf = TransferFunction(bins=(
        TransferBin(-0.1, 0.1, (1.0, 0.0, 0.0), 0.5),
        TransferBin(0.1, 1 / 3, (0.0, 1.0, 0.0), 0.0),
        TransferBin(1 / 3, 1.0 + 2.0**-40, (0.0, 0.0, 1.0), 1.0),
        TransferBin(1e4, 1e30, (1.0, 1.0, 0.0), 0.25),
    ))
    rng = np.random.default_rng(5)
    buckets = np.array([int(np.float32(e).view(np.uint32)) >> 16 for e in (-0.1, 0.1, 1 / 3, 1e4, 1e30)])
    bits = (rng.choice(buckets, size=(9, 8, 7)) << 16) | rng.integers(0, 1 << 16, size=(9, 8, 7))
    values = _bits_to_float32(bits)
    assert _in_mixed_bucket(values, tf).all()
    vol = ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, values)
    assert len(np.unique(quantize_reference(vol, tf).labels)) >= 4  # buckets on both sides of their breaks
    for layout in LAYOUTS:
        _assert_quantize_matches_reference(values, tf, layout, chunk=37)


def test_quantize_no_voxel_in_a_mixed_bucket():
    # every edge is the first value of its bucket and no voxel is negative, so
    # the table labels every voxel
    tf = TransferFunction(bins=(
        TransferBin(0.5, 1.0, (1.0, 0.0, 0.0), 0.5),
        TransferBin(1.0, 2.0, (0.0, 1.0, 0.0), 0.0),
        TransferBin(2.0, 256.0, (0.0, 0.0, 1.0), 1.0),
    ))
    rng = np.random.default_rng(6)
    values = np.concatenate([
        rng.uniform(0.0, 300.0, 900).astype(np.float32),
        np.float32([0.0, 0.5, 1.0, 2.0, 256.0]),
        np.nextafter(np.float32([0.5, 1.0, 2.0, 256.0]), np.float32(0.0)),
        _bits_to_float32(list(SPECIAL_BITS[::2])),
    ]).reshape(-1, 1, 1)
    assert not _in_mixed_bucket(values, tf).any()
    for layout in LAYOUTS:
        _assert_quantize_matches_reference(values, tf, layout)


def test_quantize_with_three_hundred_contiguous_bins():
    edges = np.linspace(-1.0, 5.0, 301)
    tf = TransferFunction(bins=tuple(
        TransferBin(float(lo), float(hi), (0.5, 0.5, 0.5), 0.0 if i % 7 == 3 else 1.0)
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ))
    rng = np.random.default_rng(7)
    near = np.float32(edges)
    values = np.concatenate([
        rng.uniform(-1.5, 5.5, 4000).astype(np.float32),
        near,
        np.nextafter(near, np.float32(-np.inf)),
        np.nextafter(near, np.float32(np.inf)),
    ]).reshape(-1, 1, 1)
    assert quantize(ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, values), tf).n_labels > 255
    for layout in LAYOUTS:
        _assert_quantize_matches_reference(values, tf, layout, chunk=1000)


def test_quantize_rejects_a_label_that_is_the_mixed_marker():
    tf = TransferFunction(bins=tuple(
        TransferBin(float(i), float(i + 1), (0.5, 0.5, 0.5), 1.0) for i in range(volume._MIXED)
    ))
    vol = ScalarVolume((1, 1, 1), (1.0,) * 3, (0.0,) * 3, np.zeros((1, 1, 1), np.float32))
    with pytest.raises(ValidationError, match="visible bins"):
        quantize(vol, tf)


def label_volume(grid: np.ndarray, n_labels: int) -> LabelVolume:
    return LabelVolume(grid.shape, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), grid, n_labels)


@st.composite
def label_grids(draw, label_pool):
    """Blocky label grids: a coarse random grid stretched to odd dims, plus
    scattered single voxels, so nodes mix uniform and mixed blocks."""
    dims = draw(st.tuples(*[st.integers(1, 13)] * 3))
    pool = np.array(draw(st.lists(st.sampled_from(label_pool), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.choice(pool, size=tuple(-(-d // 3) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 3, 0), 3, 1), 3, 2)[: dims[0], : dims[1], : dims[2]]
    spots = rng.random(dims) < draw(st.sampled_from((0.0, 0.02, 0.2)))
    grid = np.where(spots, rng.choice(pool, size=dims), grid).astype(np.uint16)
    return _grid_in_layout(grid, draw(st.sampled_from(LAYOUTS)))


def assert_same_tree(grid: np.ndarray, n_labels: int, max_level: int):
    labels = label_volume(grid, n_labels)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = build_octree(labels, max_level)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = build_octree_reference(labels, max_level)
    assert octree_records(got) == octree_records(want)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]


@settings(max_examples=150, deadline=None)
@given(grid=label_grids(label_pool=(0, 0, 1, 2, 3)), max_level=st.integers(1, 8))
def test_octree_matches_reference(grid, max_level):
    # max_level up to 8 goes past the partition depth of any 13-voxel axis
    assert_same_tree(grid, 3, max_level)


# labels on both sides of every mask word size: 8, 16, 32 and 64 bits, and several 64-bit words
WIDE_LABELS = (0, 1, 8, 9, 16, 17, 32, 33, 63, 64, 65, 128, 129, 200)


@settings(max_examples=100, deadline=None)
@given(grid=label_grids(label_pool=WIDE_LABELS), max_level=st.integers(1, 6), extra=st.integers(0, 70))
def test_octree_matches_reference_past_64_labels(grid, max_level, extra):
    assert_same_tree(grid, int(grid.max()) + extra, max_level)


@pytest.mark.parametrize("dims", [(8, 8, 8), (7, 1, 9), (1, 1, 1)])
@pytest.mark.parametrize("n_labels", [0, 3])
def test_all_background_matches_reference(dims, n_labels):
    assert_same_tree(np.zeros(dims, np.uint16), n_labels, 4)


@settings(max_examples=60, deadline=None)
@given(grid=label_grids(label_pool=(0, 1, 2, 5, 70)), short=st.integers(1, 70))
def test_label_above_n_labels_is_a_validation_error(grid, short):
    # a grid holding a label above n_labels is rejected as such, never an IndexError
    n_labels = max(0, int(grid.max()) - short)
    if grid.max() == 0:
        assert_same_tree(grid, n_labels, 3)
        return
    with pytest.raises(ValidationError, match="holds label"):
        build_octree(label_volume(grid, n_labels), 3)


def takes_word_path(labels: LabelVolume, max_level: int) -> bool:
    """Whether `build_octree` folded the masks through uint64 words: only that
    path shifts the label grid with an explicit uint8 result type."""
    with mock.patch.object(np, "left_shift", wraps=np.left_shift) as shift, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an all-background grid warns
        build_octree(labels, max_level)
    return any(c.kwargs.get("dtype") is np.uint8 for c in shift.call_args_list)


@st.composite
def aligned_grids(draw):
    """Blocky grids whose finest blocks suit the word path: equal blocks that
    are a multiple of 8 voxels wide along the axis of smallest stride, and
    at most 7 labels. The level stops the halving at those blocks."""
    layout = draw(st.sampled_from(LAYOUTS))
    depth = draw(st.integers(0, 2))
    widths = [draw(st.integers(1, 3)) for _ in range(3)]
    widths[0 if layout == "F" else 2] = 8 * draw(st.integers(1, 2))
    dims = tuple(w << depth for w in widths)
    n_labels = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.integers(0, n_labels + 1, size=tuple(-(-d // 4) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 4, 0), 4, 1), 4, 2)[: dims[0], : dims[1], : dims[2]]
    spots = rng.random(dims) < draw(st.sampled_from((0.0, 0.01, 0.1)))
    grid = np.where(spots, rng.integers(0, n_labels + 1, size=dims), grid).astype(np.uint16)
    return _grid_in_layout(grid, layout), n_labels, depth + 1


@settings(max_examples=80, deadline=None)
@given(case=aligned_grids())
def test_word_path_matches_reference(case):
    grid, n_labels, max_level = case
    assert takes_word_path(label_volume(grid, n_labels), max_level)
    assert_same_tree(grid, n_labels, max_level)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize(
    "dims,n_labels,max_level,word_path",
    [
        ((32, 32, 32), 7, 3, True),  # 8-voxel blocks, the most labels a byte holds
        ((32, 32, 32), 8, 3, False),  # label 8 needs the table
        ((32, 32, 32), 9, 3, False),  # two-byte words
        ((32, 32, 32), 7, 4, False),  # 4-voxel blocks straddle a uint64
        ((5, 12, 7), 3, 3, False),  # unequal blocks: reduceat
        ((16, 16, 16), 3, 40, False),  # one-voxel finest blocks: no reduceat at all
    ],
)
def test_mask_paths_match_reference(layout, dims, n_labels, max_level, word_path):
    rng = np.random.default_rng(sum(dims) + n_labels + max_level)
    coarse = rng.integers(0, n_labels + 1, size=tuple(-(-d // 2) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 2, 0), 2, 1), 2, 2)[: dims[0], : dims[1], : dims[2]]
    grid = _grid_in_layout(grid.astype(np.uint16), layout)
    grid.flat[rng.integers(0, grid.size, 12)] = n_labels  # the top label occurs
    assert takes_word_path(label_volume(grid, n_labels), max_level) == word_path
    assert_same_tree(grid, n_labels, max_level)


def test_level_past_the_grid_depth_matches_reference():
    # at level 40 a 32^3 grid halves down to one-voxel blocks and no further
    rng = np.random.default_rng(40)
    grid = np.where(rng.random((32, 32, 32)) < 0.3, rng.integers(1, 4, (32, 32, 32)), 0).astype(np.uint16)
    assert_same_tree(grid, 3, 40)
    assert_same_tree(np.asfortranarray(grid), 3, 40)
    got = build_octree(label_volume(grid, 3), 40)
    assert max(node.level for node in iter_nodes(got)) == 6  # 32 -> 1 voxel in five halvings


@pytest.mark.filterwarnings("ignore:volume is entirely background")
@pytest.mark.parametrize("orientations", [("x", "y"), ("z", "x"), ("y", "z")])
@settings(max_examples=40, deadline=None)
@given(grid=label_grids(label_pool=(0, 1, 2, 3, 9)), max_level=st.integers(1, 6))
def test_slices_match_reference(orientations, grid, max_level):
    labels = label_volume(grid, 9)
    raw = extract_slices(build_octree(labels, max_level), orientations)
    want_raw = extract_slices_reference(build_octree_reference(labels, max_level), orientations)
    assert list(raw) == want_raw
    assert len(raw) == len(want_raw)
    assert unify_slices(raw) == unify_slices_reference(want_raw)
