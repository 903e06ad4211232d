"""The per-voxel palette rasterizer against the per-pixel RGBA code it
replaced (`helpers.rasterize_slice_reference`), on both in-plane axis
orders, both memory layouts, odd dims, the clamped top face and pixel
densities on both sides of one pixel per voxel; and the PNG encoder against
a decoder written from the PNG specification (`helpers.decode_png`), plus
the byte pin of `helpers.encode_png_reference` above 256 colours."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge.errors import ValidationError
from sliceforge.export import encode_png
from sliceforge.octree import Slice, slice_axes
from sliceforge.render import rasterize_slice
from sliceforge.volume import LabelVolume, TransferBin, TransferFunction

from helpers import decode_png, encode_png_reference, png_chunks, rasterize_slice_reference

# every ordered pair of plane families; each pair has a family whose u axis
# comes after its v axis in the volume (the transposed plane) and one before
PAIRS = [(a, b) for a in "xyz" for b in "xyz" if a != b]
SPACINGS = (0.5, 1.0, 2.0)
# with the spacings and scales below: from ~0.06 to 24 px per voxel
PX_PER_MM = (0.5, 1.0, 3.0, 12.0)
SCALES = (0.125, 0.77, 1.0)


def test_pairs_cover_both_axis_orders():
    axes = [slice_axes(family, pair) for pair in PAIRS for family in pair]
    assert {u_ax < v_ax for _, u_ax, v_ax in axes} == {True, False}


@st.composite
def transfer_functions(draw):
    """Up to four bins, each visible or not; zero visible bins is common."""
    n = draw(st.integers(0, 4))
    return TransferFunction(bins=tuple(
        TransferBin(
            float(i),
            float(i + 1),
            tuple(draw(st.sampled_from((0.0, 0.2, 0.5, 1 / 3, 1.0))) for _ in range(3)),
            draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        )
        for i in range(n)
    ))


@st.composite
def scenes(draw, orientations):
    """A label volume, its transfer function, and one slice of it."""
    tf = draw(transfer_functions())
    n_labels = len(tf.visible_bins)
    dims = draw(st.tuples(*[st.integers(1, 9)] * 3))
    spacing = tuple(draw(st.sampled_from(SPACINGS)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(0, n_labels + 1, size=dims).astype(np.uint16)
    if draw(st.booleans()):
        grid = np.asfortranarray(grid)
    labels = LabelVolume(dims, spacing, (0.0, 0.0, 0.0), grid, n_labels)

    family = draw(st.sampled_from(orientations))
    normal, u_ax, v_ax = slice_axes(family, orientations)
    # plane_coord == dims[normal] is the top face, sampled from the last layer
    plane = draw(st.integers(0, dims[normal]))
    u0 = draw(st.integers(0, dims[u_ax] - 1))
    u1 = draw(st.integers(u0 + 1, dims[u_ax]))
    v0 = draw(st.integers(0, dims[v_ax] - 1))
    v1 = draw(st.integers(v0 + 1, dims[v_ax]))
    s = Slice(id=0, orientation=family, plane_coord=plane, extent=(u0, v0, u1, v1), source_nodes=(0,))
    return labels, tf, s


@pytest.mark.parametrize("orientations", PAIRS, ids=["".join(p) for p in PAIRS])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), scale=st.sampled_from(SCALES), px_per_mm=st.sampled_from(PX_PER_MM))
def test_rasterize_matches_reference(orientations, data, scale, px_per_mm):
    labels, tf, s = data.draw(scenes(orientations))
    got = rasterize_slice(labels, tf, s, scale, px_per_mm, orientations)
    want = rasterize_slice_reference(labels, tf, s, scale, px_per_mm, orientations)
    assert got.pixels.dtype == got.palette.dtype == np.uint8
    assert got.pixels.shape == want.shape[:2]
    assert np.array_equal(got.palette[got.pixels], want)
    assert np.array_equal(decode_png(encode_png(got.pixels, got.palette)), want)


def distinct_labels(dims: tuple[int, int, int]) -> tuple[LabelVolume, TransferFunction]:
    """A volume with a distinct label, and so a distinct colour, per voxel."""
    n = int(np.prod(dims))
    tf = TransferFunction(bins=tuple(
        TransferBin(float(i), float(i + 1), (i / n, 1 - i / n, (7 * i % n) / n), 1.0) for i in range(n)
    ))
    grid = np.arange(1, n + 1, dtype=np.uint16).reshape(dims)
    return LabelVolume(dims, (1.0, 2.0, 0.5), (0.0, 0.0, 0.0), grid, n), tf


@pytest.mark.parametrize("density", [0.1, 1.0, 7.5])
def test_rasterize_matches_reference_on_whole_faces(density):
    # every slice through a volume with a distinct label per voxel, so a
    # swapped or misaligned axis cannot sample the same colour by chance;
    # 105 voxels take one-byte indices, 378 take two
    for dims, dtype in (((5, 3, 7), np.uint8), ((7, 6, 9), np.uint16)):
        labels, tf = distinct_labels(dims)
        for orientations in PAIRS:
            for family in orientations:
                normal, u_ax, v_ax = slice_axes(family, orientations)
                for plane in range(dims[normal] + 1):
                    s = Slice(0, family, plane, (0, 0, dims[u_ax], dims[v_ax]), (0,))
                    got = rasterize_slice(labels, tf, s, 1.0, density, orientations)
                    want = rasterize_slice_reference(labels, tf, s, 1.0, density, orientations)
                    assert got.pixels.dtype == dtype
                    assert np.array_equal(got.palette[got.pixels], want), (dims, orientations, family, plane)


def test_rasters_hold_one_byte_per_pixel():
    # the traced peak of rasterizing every whole face of a 16^3, four-colour
    # volume at 8 px per voxel, all rasters kept as an export keeps them:
    # one byte per pixel and the last slice's voxel-row expansion, with room
    # for small objects; four-byte RGBA rasters exceed it
    n = 16
    grid = np.random.default_rng(5).integers(0, 5, size=(n, n, n)).astype(np.uint16)
    labels = LabelVolume((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), grid, 4)
    tf = TransferFunction(bins=tuple(TransferBin(float(i), float(i + 1), (0.2 * i, 0.5, 1.0), 1.0) for i in range(4)))
    faces = [Slice(0, family, plane, (0, 0, n, n), (0,)) for family in "xy" for plane in range(n + 1)]
    rasterize_slice(labels, tf, faces[0], 1.0, 8.0)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        rasters = [rasterize_slice(labels, tf, s, 1.0, 8.0) for s in faces]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pixels = sum(r.pixels.size for r in rasters)
    assert pixels == len(faces) * (8 * n) ** 2
    assert peak < 1.5 * pixels, f"peak {peak} B for {pixels} pixels"


@pytest.mark.parametrize("plane", [-1, 4])
def test_plane_outside_volume_is_a_validation_error(plane):
    labels = LabelVolume((3, 3, 3), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.zeros((3, 3, 3), np.uint16), 0)
    s = Slice(0, "x", plane, (0, 0, 3, 3), (0,))
    with pytest.raises(ValidationError, match="outside volume"):
        rasterize_slice(labels, TransferFunction(bins=()), s, 1.0)


@st.composite
def palette_images(draw):
    """An index image of 1-17 columns in either memory order and the
    palette it indexes: 1-300 colours, every bit-depth boundary included."""
    colours = draw(st.one_of(st.sampled_from((1, 2, 3, 4, 5, 16, 17, 255, 256, 257)), st.integers(1, 300)))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = rng.integers(0, colours, size=(rows, cols)).astype(np.uint8 if colours <= 256 else np.uint16)
    if draw(st.booleans()):
        index = np.asfortranarray(index)
    palette = rng.integers(0, 256, size=(colours, 4), dtype=np.uint8)
    return index, palette


@settings(max_examples=150, deadline=None)
@given(image=palette_images())
def test_png_matches_reference_and_decodes_to_the_pixels(image):
    index, palette = image
    png = encode_png(index, palette)
    rows, cols = index.shape
    rgba = palette[index]
    assert np.array_equal(decode_png(png), rgba)
    if len(palette) > 256:
        assert png == encode_png_reference(rgba)
        return
    depth = min(d for d in (1, 2, 4, 8) if len(palette) <= 1 << d)
    assert png_chunks(png)[0] == (b"IHDR", struct.pack(">IIBBBBB", cols, rows, depth, 3, 0, 0, 0))
