"""The per-voxel rasterizer and the one-array PNG scanlines against the code
they replaced (`helpers.rasterize_slice_reference`,
`helpers.encode_png_reference`): same pixels and same PNG bytes, on both
in-plane axis orders, both memory layouts, odd dims, the clamped top face
and pixel densities on both sides of one pixel per voxel."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge.errors import ValidationError
from sliceforge.export import encode_png
from sliceforge.octree import Slice, slice_axes
from sliceforge.render import rasterize_slice
from sliceforge.volume import LabelVolume, TransferBin, TransferFunction

from helpers import encode_png_reference, rasterize_slice_reference

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
    got = rasterize_slice(labels, tf, s, scale, px_per_mm, orientations).pixels
    want = rasterize_slice_reference(labels, tf, s, scale, px_per_mm, orientations).pixels
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert encode_png(got) == encode_png_reference(want)


@pytest.mark.parametrize("density", [0.1, 1.0, 7.5])
def test_rasterize_matches_reference_on_whole_faces(density):
    # every slice through a volume with a distinct label per voxel, so a
    # swapped or misaligned axis cannot sample the same colour by chance
    dims = (5, 3, 7)
    n = int(np.prod(dims))
    tf = TransferFunction(bins=tuple(
        TransferBin(float(i), float(i + 1), (i / n, 1 - i / n, (7 * i % n) / n), 1.0) for i in range(n)
    ))
    grid = np.arange(1, n + 1, dtype=np.uint16).reshape(dims)
    labels = LabelVolume(dims, (1.0, 2.0, 0.5), (0.0, 0.0, 0.0), grid, n)
    for orientations in PAIRS:
        for family in orientations:
            normal, u_ax, v_ax = slice_axes(family, orientations)
            for plane in range(dims[normal] + 1):
                s = Slice(0, family, plane, (0, 0, dims[u_ax], dims[v_ax]), (0,))
                got = rasterize_slice(labels, tf, s, 1.0, density, orientations).pixels
                want = rasterize_slice_reference(labels, tf, s, 1.0, density, orientations).pixels
                assert np.array_equal(got, want), (orientations, family, plane)


@pytest.mark.parametrize("plane", [-1, 4])
def test_plane_outside_volume_is_a_validation_error(plane):
    labels = LabelVolume((3, 3, 3), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.zeros((3, 3, 3), np.uint16), 0)
    s = Slice(0, "x", plane, (0, 0, 3, 3), (0,))
    with pytest.raises(ValidationError, match="outside volume"):
        rasterize_slice(labels, TransferFunction(bins=()), s, 1.0)


def _chunks(png: bytes) -> dict[bytes, bytes]:
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    out, at = {}, 8
    while at < len(png):
        (length,) = struct.unpack(">I", png[at : at + 4])
        tag, payload = png[at + 4 : at + 8], png[at + 8 : at + 8 + length]
        (crc,) = struct.unpack(">I", png[at + 8 + length : at + 12 + length])
        assert crc == zlib.crc32(tag + payload) & 0xFFFFFFFF
        out[tag] = payload
        at += 12 + length
    return out


rgba_images = st.builds(
    lambda rows, cols, seed, fortran: (np.asfortranarray if fortran else np.ascontiguousarray)(
        np.random.default_rng(seed).integers(0, 256, size=(rows, cols, 4), dtype=np.uint8)
    ),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(rgba=rgba_images)
def test_png_matches_reference_and_decodes_to_the_pixels(rgba):
    png = encode_png(rgba)
    assert png == encode_png_reference(rgba)
    chunks = _chunks(png)
    rows, cols = rgba.shape[:2]
    assert chunks[b"IHDR"] == struct.pack(">IIBBBBB", cols, rows, 8, 6, 0, 0, 0)
    raw = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), np.uint8).reshape(rows, 4 * cols + 1)
    assert not raw[:, 0].any()  # filter type 0 on every scanline
    assert np.array_equal(raw[:, 1:].reshape(rows, cols, 4), rgba)
    assert chunks[b"IEND"] == b""
