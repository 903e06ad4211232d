"""The chunked quantizer and the array octree against the code they
replaced (`helpers.quantize_reference`, `helpers.build_octree_reference`,
`helpers.extract_slices_reference`): same labels, same nodes, same slices,
on the inputs where the methods differ most and down every mask path."""

import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import octree, volume
from sliceforge.errors import ValidationError
from sliceforge.mesh import voxelize_meshes
from sliceforge.octree import build_octree, extract_slices, iter_nodes, unify_slices
from sliceforge.volume import LabelVolume, ScalarVolume, TransferBin, TransferFunction, load_volume, quantize

from helpers import (
    build_octree_reference,
    extract_slices_reference,
    octree_records,
    quantize_reference,
    unify_slices_reference,
)
from synth import nested_spheres

# float64 edges, some exact in float32 (0.5, 2.0, 1e4) and some not (0.1, 1/3, 1 + 2^-40)
EDGES = (-1e30, -3.5, -0.1, 0.0, 0.1, 1 / 3, 0.5, 1.0, 1.0 + 2.0**-40, 2.0, 1e4, 1e30)
LAYOUTS = ("C", "F", "strided")
dims_st = st.tuples(*[st.integers(1, 7)] * 3)


def label_dtype(n_labels: int) -> type:
    """The dtype `quantize` writes: one byte while the byte's maximum is
    no label (fewer than 255 labels), else two."""
    return np.uint8 if n_labels < 255 else np.uint16


def _grid_in_layout(values: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":  # every other x of a grid twice as long: neither C nor F contiguous
        wide = np.zeros((2 * values.shape[0],) + values.shape[1:], values.dtype)
        wide[::2] = values
        return wide[::2]
    return np.ascontiguousarray(values)


@st.composite
def transfer_functions(draw, pool=EDGES):
    """Bins over consecutive edges of `pool`; a skipped pair is a gap, so bins
    sharing an edge (hi == lo) are common. Some bins have opacity 0."""
    edges = sorted(draw(st.sets(st.sampled_from(pool), min_size=2)))
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
    assert got.labels.dtype == label_dtype(got.n_labels)
    assert got.labels.shape == want.labels.shape
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.n_labels == want.n_labels
    assert got.labels.max(initial=0) <= got.n_labels  # build_octree takes no label above n_labels


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


# u8 and u16 values around the ends of both ranges and the u8/u16 border
INT_VALUES = (0, 1, 2, 99, 100, 101, 127, 128, 254, 255, 256, 257, 1000, 32767, 32768, 65534, 65535)


def _int_edges() -> list[float]:
    """Each of `INT_VALUES` as a break and its float64 neighbours, half-way
    breaks on both sides, negative breaks and breaks above 65535."""
    out = [-1e30, -3.5, -1.0, 65535.5, 65536.0, 70000.25, 1e30]
    for v in map(float, INT_VALUES):
        out += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf), v - 0.5, v + 0.5]
    return sorted(set(out))


INT_EDGES = tuple(_int_edges())


def _assert_integer_quantize_matches_reference(values: np.ndarray, tf: TransferFunction, layout: str, chunk: int):
    """The labels of an integer grid equal the reference's labels of that grid
    and of the float32 grid `load_volume` used to widen it to."""
    vol = ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, _grid_in_layout(values, layout))
    widened = ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, values.astype(np.float32))
    with mock.patch.object(volume, "_QUANTIZE_CHUNK", chunk):
        got = quantize(vol, tf)
    assert got.labels.dtype == label_dtype(got.n_labels)
    for want in (quantize_reference(vol, tf), quantize_reference(widened, tf)):
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.n_labels == want.n_labels


@settings(max_examples=150, deadline=None)
@given(
    tf=transfer_functions(INT_EDGES),
    dims=dims_st,
    dtype=st.sampled_from((np.uint8, np.uint16)),
    picks=st.lists(st.one_of(st.sampled_from(INT_VALUES), st.integers(0, 65535)), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
    chunk=st.integers(1, 40),
)
def test_integer_quantize_matches_reference(tf, dims, dtype, picks, seed, layout, chunk):
    # breaks on, just below and just above integers; u16 picks past 255 are
    # clipped to the u8 maximum
    pool = np.minimum(picks, np.iinfo(dtype).max).astype(dtype)
    values = np.random.default_rng(seed).choice(pool, size=dims)
    assert values.dtype == dtype
    _assert_integer_quantize_matches_reference(values, tf, layout, chunk)


# bins on, between and around integers, with gaps and an opacity-0 bin
INT_TF = TransferFunction(bins=(
    TransferBin(-3.5, 0.0, (1.0, 0.0, 0.0), 0.5),
    TransferBin(0.5, 1.0, (0.0, 1.0, 0.0), 1.0),
    TransferBin(1.0, float(np.nextafter(255.0, np.inf)), (0.0, 0.0, 1.0), 0.25),
    TransferBin(256.0, 1000.5, (1.0, 1.0, 0.0), 0.0),
    TransferBin(1000.5, float(np.nextafter(32768.0, -np.inf)), (0.0, 1.0, 1.0), 1.0),
    TransferBin(32768.0, 65535.0, (1.0, 0.0, 1.0), 0.75),
    TransferBin(65535.0, 1e30, (0.5, 0.5, 0.5), 1.0),
))


@settings(max_examples=150, deadline=None)
@given(
    tf=transfer_functions((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 300.0, 1e30)),
    dims=dims_st,
    dtype=st.sampled_from((np.uint8, np.uint16)),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(LAYOUTS),
)
def test_grid_of_its_own_labels_is_returned_not_copied(tf, dims, dtype, picks, seed, layout):
    # small values under bins that often map them to themselves: the grid is
    # returned exactly when it has the label dtype and every value up to its
    # maximum, 0 included, maps to itself; else the labels are new
    values = np.random.default_rng(seed).choice(np.array(picks, dtype), size=dims)
    vol = ScalarVolume(dims, (1.0,) * 3, (0.0,) * 3, _grid_in_layout(values, layout))
    got = quantize(vol, tf)
    np.testing.assert_array_equal(got.labels, quantize_reference(vol, tf).labels)
    span = np.arange(int(values.max()) + 1, dtype=dtype).reshape(-1, 1, 1)
    below_max = quantize_reference(ScalarVolume(span.shape, (1.0,) * 3, (0.0,) * 3, span), tf).labels
    own = got.labels.dtype == dtype and np.array_equal(below_max, span)
    assert np.shares_memory(got.labels, vol.scalars) == own


@pytest.mark.parametrize("first", [(-1.0, 0.5), (3.5, 4.5)])
def test_grid_with_a_value_that_maps_elsewhere_is_copied(first):
    # 1 and 2 label themselves; the third bin makes 0 label 1 (and 1 and 2
    # labels 2 and 3), or labels 4 as 3 and leaves the 3 present background
    tf = TransferFunction(bins=tuple(sorted(
        (TransferBin(lo, hi, (0.5, 0.5, 0.5), 1.0) for lo, hi in (first, (0.5, 1.5), (1.5, 2.5))),
        key=lambda b: b.lo,
    )))
    values = np.array([0, 1, 2, 3, 1, 0], np.uint8).reshape(1, 2, 3)
    vol = ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, values)
    got = quantize(vol, tf)
    want = quantize_reference(vol, tf).labels
    assert not np.array_equal(want, values)
    assert not np.shares_memory(got.labels, vol.scalars)
    np.testing.assert_array_equal(got.labels, want)


def test_mesh_labels_are_the_voxelizer_grid():
    # the automatic transfer function maps each mesh index to itself
    volume_, tf = voxelize_meshes(nested_spheres(subdivisions=1), (24, 24, 24))
    labels = quantize(volume_, tf)
    assert np.shares_memory(labels.labels, volume_.scalars)
    np.testing.assert_array_equal(labels.labels, quantize_reference(volume_, tf).labels)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_every_integer_value_matches_reference(dtype):
    values = np.arange(np.iinfo(dtype).max + 1, dtype=dtype).reshape(16, -1, 1)
    for layout in LAYOUTS:
        _assert_integer_quantize_matches_reference(values, INT_TF, layout, chunk=1000)


@pytest.mark.parametrize("k", [254, 255])
@pytest.mark.parametrize("grid_dtype", [np.uint8, np.uint16, np.float32])
def test_label_dtype_turns_two_bytes_at_255_visible_bins(k, grid_dtype):
    # bins [i + 0.5, i + 1.5) give integer v label v up to k; the float32
    # bucket [254, 255) holds the break 254.5 between label 254 and label
    # 255 (or background), so its voxels take the break search
    tf = TransferFunction(bins=tuple(TransferBin(i + 0.5, i + 1.5, (0.5, 0.5, 0.5), 1.0) for i in range(k)))
    values = np.arange(np.iinfo(np.uint8).max + 1)
    if grid_dtype is not np.uint8:
        values = np.concatenate([values, [256, 299, 1000, 65535]])
    if grid_dtype is np.float32:
        near = np.float32([254.5, np.nextafter(np.float32(254.5), np.float32(0)), np.nextafter(np.float32(254.5), np.float32(300))])
        inside = np.random.default_rng(k).uniform(254.0, 255.0, 200).astype(np.float32)
        values = np.concatenate([values.astype(np.float32), near, inside])
        assert _in_mixed_bucket(values[-203:], tf).all()
    values = values.astype(grid_dtype).reshape(-1, 1, 1)
    for layout in LAYOUTS:
        vol = ScalarVolume(values.shape, (1.0,) * 3, (0.0,) * 3, _grid_in_layout(values, layout))
        with mock.patch.object(volume, "_QUANTIZE_CHUNK", 97):
            got = quantize(vol, tf)
        assert got.labels.dtype == (np.uint8 if k == 254 else np.uint16)
        assert int(got.labels.max()) == k
        np.testing.assert_array_equal(got.labels, quantize_reference(vol, tf).labels)


@st.composite
def mesh_transfer_functions(draw, n: int):
    """The voxelizer's own transfer function for n meshes (bin i is [i, i + 1)),
    or one a --tf file could hold: edges fractional, negative, past n and past
    the u16 range, and infinite."""
    if draw(st.booleans()):
        return TransferFunction(bins=tuple(TransferBin(float(i), float(i + 1), (0.5, 0.5, 0.5), 1.0)
                                           for i in range(1, n + 1)))
    edge = st.one_of(
        st.integers(-2, n + 2).map(float),
        st.integers(-2, n + 2).map(lambda i: i + 0.5),
        st.floats(-3.0, n + 3.0),
        st.sampled_from([-np.inf, -1e30, -0.0, 65535.0, 65535.5, 70000.0, 1e30, np.inf]),
    )
    return draw(transfer_functions(tuple(draw(st.sets(edge, min_size=2, max_size=12)))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dims=dims_st, dtype=st.sampled_from((np.uint8, np.uint16)), seed=st.integers(0, 2**32 - 1))
def test_mesh_grid_labels_equal_its_float32_copy(data, dims, dtype, seed):
    # the voxelizer writes mesh indices 0..n as u8 (n <= 255) or u16; the
    # float32 grid it wrote before labels every value the same way
    n = data.draw(st.integers(1, 255 if dtype is np.uint8 else 300), label="n")
    tf = data.draw(mesh_transfer_functions(n), label="tf")
    values = np.random.default_rng(seed).integers(0, n + 1, dims).astype(dtype)
    got, want = (quantize(ScalarVolume(dims, (1.0,) * 3, (0.0,) * 3, grid), tf) for grid in (values, values.astype(np.float32)))
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.n_labels == want.n_labels


@pytest.mark.parametrize("dtype,file_dtype", [("u8", "<u1"), ("u16", "<u2"), ("f32", "<f4")])
def test_load_volume_keeps_the_file_dtype(dtype, file_dtype, tmp_path):
    dims = (5, 6, 7)
    ints = np.random.default_rng(8).integers(0, 1 << 16, size=dims)
    values = {"u8": ints % 256, "u16": ints, "f32": ints - 0.25}[dtype].astype(file_dtype)
    raw, header = tmp_path / "v.raw", tmp_path / "v.json"
    raw.write_bytes(values.tobytes(order="F"))
    header.write_text(json.dumps({"dims": list(dims), "spacing_mm": [1, 1, 1], "dtype": dtype}))
    loaded = load_volume(raw, header)
    assert loaded.scalars.dtype == np.dtype(file_dtype)
    np.testing.assert_array_equal(loaded.scalars, values)
    # the float32 grid load_volume used to return for every dtype
    widened = np.frombuffer(raw.read_bytes(), file_dtype).astype(np.float32).reshape(dims, order="F")
    got = quantize(loaded, INT_TF)
    want = quantize_reference(ScalarVolume(dims, (1.0,) * 3, (0.0,) * 3, widened), INT_TF)
    assert got.labels.flags.f_contiguous
    np.testing.assert_array_equal(got.labels, want.labels)
    assert len(np.unique(got.labels)) >= 2


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


def folds_bytes_by_reshape(labels: LabelVolume, max_level: int) -> bool:
    """Whether `build_octree` folded the masks as one byte per voxel by
    reshapes alone: a single uint8 word, and no `reduceat` on any axis."""
    with mock.patch.object(np, "bitwise_or", wraps=np.bitwise_or) as fold:
        root = build_octree(labels, max_level)
    return root.words.dtype == np.uint8 and root.words.shape[1] == 1 and not fold.reduceat.called


@st.composite
def aligned_grids(draw):
    """Blocky grids whose finest blocks suit the byte path: equal blocks of
    any width, and at most 7 labels. The level stops the halving at those
    blocks."""
    layout = draw(st.sampled_from(LAYOUTS))
    depth = draw(st.integers(0, 2))
    widths = [draw(st.integers(1, 6)) for _ in range(3)]
    dims = tuple(w << depth for w in widths)
    n_labels = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.integers(0, n_labels + 1, size=tuple(-(-d // 4) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 4, 0), 4, 1), 4, 2)[: dims[0], : dims[1], : dims[2]]
    spots = rng.random(dims) < draw(st.sampled_from((0.0, 0.01, 0.1)))
    grid = np.where(spots, rng.integers(0, n_labels + 1, size=dims), grid).astype(draw(st.sampled_from((np.uint8, np.uint16))))
    return _grid_in_layout(grid, layout), n_labels, depth + 1


@settings(max_examples=80, deadline=None)
@given(case=aligned_grids())
def test_word_path_matches_reference(case):
    grid, n_labels, max_level = case
    assert folds_bytes_by_reshape(label_volume(grid, n_labels), max_level)
    assert_same_tree(grid, n_labels, max_level)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize(
    "dims,n_labels,max_level,byte_fold",
    [
        ((32, 32, 32), 7, 3, True),  # 8-voxel blocks, the most labels a byte holds
        ((32, 32, 32), 8, 3, False),  # label 8 needs a second word
        ((32, 32, 32), 9, 3, False),  # two-byte words
        ((32, 32, 32), 7, 4, True),  # 4-voxel blocks: equal blocks of any width
        ((5, 12, 7), 3, 3, False),  # unequal blocks: reduceat
        ((16, 16, 16), 3, 40, True),  # one-voxel finest blocks: equal blocks too
        ((16, 16, 16), 9, 40, False),  # one-voxel blocks past 7 labels: two-byte words, no reduceat at all
    ],
)
def test_mask_paths_match_reference(layout, dims, n_labels, max_level, byte_fold):
    rng = np.random.default_rng(sum(dims) + n_labels + max_level)
    coarse = rng.integers(0, n_labels + 1, size=tuple(-(-d // 2) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 2, 0), 2, 1), 2, 2)[: dims[0], : dims[1], : dims[2]]
    grid = _grid_in_layout(grid.astype(np.uint16), layout)
    grid.flat[rng.integers(0, grid.size, 12)] = n_labels  # the top label occurs
    assert folds_bytes_by_reshape(label_volume(grid, n_labels), max_level) == byte_fold
    assert_same_tree(grid, n_labels, max_level)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_byte_path_masks_hold_one_byte_per_voxel(layout):
    # the traced peak of the finest masks of a 64^3, 7-label uint8 grid in
    # 8-voxel blocks: the shifted grid (one byte per voxel), its first
    # plane-wise OR (an eighth of that) and small objects; folding uint64
    # views of the shifted grid holds half of it again
    n = 64
    grid = _grid_in_layout(np.random.default_rng(11).integers(0, 8, size=(n, n, n), dtype=np.uint8), layout)
    edges = [np.arange(0, n + 1, 8)] * 3
    octree._finest_masks(grid, 7, edges)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        masks = octree._finest_masks(grid, 7, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (8, 8, 8, 1)
    assert peak <= 1.3 * grid.size, f"peak {peak} B for {grid.size} voxels"


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n_labels,dtype,per_voxel", [(9, np.uint16, 2.27), (20, np.uint32, 4.51)])
def test_wider_masks_hold_one_word_per_voxel(layout, n_labels, dtype, per_voxel):
    # past 7 labels a word per voxel is two or four bytes: the shifted grid,
    # its first plane-wise OR (an eighth of that) and small objects. The
    # bounds are the traced peaks of the gathered-word fold this one replaced.
    n = 64
    grid = _grid_in_layout(np.random.default_rng(11).integers(0, n_labels + 1, size=(n, n, n), dtype=np.uint8), layout)
    edges = [np.arange(0, n + 1, 8)] * 3
    octree._finest_masks(grid, n_labels, edges)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        masks = octree._finest_masks(grid, n_labels, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (8, 8, 8, 1) and masks.dtype == dtype
    assert peak <= per_voxel * grid.size, f"peak {peak} B for {grid.size} voxels"


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("dims", [(16, 16, 16), (13, 9, 21), (32, 4, 8), (5, 11, 3)])
@pytest.mark.parametrize("n_labels", [1, 7, 9, 20, 64, 100])
@pytest.mark.parametrize("max_level", [2, 3, 40])
@pytest.mark.parametrize("planes", [1, 3])
def test_slab_fold_matches_reference(layout, dims, n_labels, max_level, planes):
    # slabs of at most one or three planes of the slowest-stride axis, or
    # one block layer where that holds more, cut every grid into two or
    # more; at level 40 the finest blocks are one voxel wide, and some slab
    # axes have empty ones: (13, 9, 21) in C order, (5, 11, 3) in F order
    rng = np.random.default_rng(sum(dims) * n_labels + max_level)
    coarse = rng.integers(0, n_labels + 1, size=tuple(-(-d // 2) for d in dims))
    grid = np.repeat(np.repeat(np.repeat(coarse, 2, 0), 2, 1), 2, 2)[: dims[0], : dims[1], : dims[2]]
    grid = _grid_in_layout(grid.astype(np.uint8), layout)
    grid.flat[rng.integers(0, grid.size, 12)] = n_labels  # the top label occurs
    plane = grid.size // dims[0 if layout == "C" else 2]
    with mock.patch.object(octree, "_SLAB_VOXELS", planes * plane), \
            mock.patch.object(octree, "_fold_masks", wraps=octree._fold_masks) as fold:
        assert_same_tree(grid, n_labels, max_level)
    assert fold.call_count >= 2


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n_labels,word_bytes", [(20, 4), (100, 8)])
def test_slab_fold_peak_is_one_slab(layout, n_labels, word_bytes):
    # a 256^3 grid in 8-voxel blocks, folded in 32 slabs of one block layer
    # each: the traced peak holds one slab's words (a 32nd of the grid's 4
    # or 8 B per voxel and word), their first fold, and the blocks' words
    # twice while the slabs' are joined; a whole-grid fold holds 4.5 or 9
    n = 256
    grid = _grid_in_layout(np.random.default_rng(n_labels).integers(0, n_labels + 1, size=(n,) * 3, dtype=np.uint8), layout)
    edges = [np.arange(0, n + 1, 8)] * 3
    with mock.patch.object(octree, "_SLAB_VOXELS", 8 * n * n):
        with mock.patch.object(octree, "_fold_masks", wraps=octree._fold_masks) as fold:
            octree._finest_masks(grid, n_labels, edges)  # also imports and caches outside the trace
        assert fold.call_count == 32
        tracemalloc.start()
        try:
            masks = octree._finest_masks(grid, n_labels, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert masks.shape == (32, 32, 32, n_labels // (8 * word_bytes) + 1)
    assert peak < 0.5 * grid.size, f"peak {peak} B for {grid.size} voxels"


def test_level_past_the_grid_depth_matches_reference():
    # at level 40 a 32^3 grid halves down to one-voxel blocks and no further
    rng = np.random.default_rng(40)
    grid = np.where(rng.random((32, 32, 32)) < 0.3, rng.integers(1, 4, (32, 32, 32)), 0).astype(np.uint16)
    assert_same_tree(grid, 3, 40)
    assert_same_tree(np.asfortranarray(grid), 3, 40)
    got = build_octree(label_volume(grid, 3), 40)
    assert max(node.level for node in iter_nodes(got)) == 6  # 32 -> 1 voxel in five halvings


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
