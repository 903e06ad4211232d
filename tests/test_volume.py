import errno
import json
import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sliceforge import codec, volume
from sliceforge.errors import IngestError, IOFailure, ValidationError
from sliceforge.volume import (
    ScalarVolume,
    TransferBin,
    TransferFunction,
    load_volume,
    quantize,
)

from helpers import write_volume_files


def make_tf(*bins):
    return TransferFunction(bins=tuple(TransferBin(*b) for b in bins))


TF_TWO = make_tf(
    (0.5, 1.5, (1.0, 0.0, 0.0), 0.5),
    (1.5, 2.5, (1.0, 1.0, 0.0), 1.0),
)


class TestLoadVolume:
    def test_zeros_identity(self, tmp_path):
        vol = ScalarVolume((2, 2, 2), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), np.zeros((2, 2, 2), np.float32))
        raw, header, _ = write_volume_files(tmp_path, vol, TF_TWO)
        loaded = load_volume(raw, header)
        assert loaded.dims == (2, 2, 2)
        assert loaded.scalars.size == 8
        assert not loaded.scalars.any()

    def test_size_mismatch_names_counts(self, tmp_path):
        header = tmp_path / "h.json"
        header.write_text(json.dumps({"dims": [4, 4, 4], "spacing_mm": [1, 1, 1], "dtype": "u8"}))
        raw = tmp_path / "v.raw"
        raw.write_bytes(bytes(63))
        with pytest.raises(IngestError, match="expected 64 scalars"):
            load_volume(raw, header)

    def test_oversized_file_is_rejected_without_reading_it(self, tmp_path):
        # a sparse 1 GiB file takes no disk; the reader checks its size
        # before reading a byte, so the traced peak stays far below it
        header = tmp_path / "h.json"
        header.write_text(json.dumps({"dims": [4, 4, 4], "spacing_mm": [1, 1, 1], "dtype": "u16"}))
        raw = tmp_path / "v.raw"
        raw.touch()
        os.truncate(raw, 1 << 30)
        tracemalloc.start()
        try:
            with pytest.raises(IngestError) as exc:
                load_volume(raw, header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "expected 64 scalars (128 bytes), file holds 536870912 (1073741824 bytes)"
        assert peak < 1 << 20, f"peak {peak} B"

    def test_file_that_shrinks_after_its_size_is_read(self, tmp_path):
        # fewer bytes than the size checked: the count of those read is reported
        header = tmp_path / "h.json"
        header.write_text(json.dumps({"dims": [4, 4, 4], "spacing_mm": [1, 1, 1], "dtype": "u16"}))
        raw = tmp_path / "v.raw"
        raw.write_bytes(bytes(100))
        regular = os.stat_result((stat.S_IFREG | 0o644,) + (0,) * 5 + (128,) + (0,) * 3)
        with mock.patch.object(codec.os, "fstat", return_value=regular):
            with pytest.raises(IngestError, match=r"^expected 64 scalars \(128 bytes\), file holds 50 \(100 bytes\)$"):
                load_volume(raw, header)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_pipe_is_read_whole(self, tmp_path, extra):
        # a pipe has no size to check first, so its bytes are counted once read
        header = tmp_path / "h.json"
        header.write_text(json.dumps({"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "u16"}))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, np.arange(8, dtype="<u2").tobytes() + bytes(extra))
            os.close(write_end)
            if extra:
                with pytest.raises(IngestError, match=r"^expected 8 scalars \(16 bytes\), file holds 8 \(17 bytes\)$"):
                    load_volume(f"/dev/fd/{read_end}", header)
            else:
                loaded = load_volume(f"/dev/fd/{read_end}", header)
                np.testing.assert_array_equal(loaded.scalars, np.arange(8).reshape((2, 2, 2), order="F"))
        finally:
            os.close(read_end)

    def test_regular_file_is_mapped_not_copied(self, tmp_path):
        # a 4 MiB u16 file: the array is the file's mapped pages, which no
        # allocator traces, so the traced peak stays far below the file
        dims = (128, 128, 128)
        values = np.random.default_rng(12).integers(0, 1 << 16, size=dims).astype("<u2")
        raw, header = tmp_path / "v.raw", tmp_path / "v.json"
        raw.write_bytes(values.tobytes(order="F"))
        header.write_text(json.dumps({"dims": list(dims), "spacing_mm": [1, 1, 1], "dtype": "u16"}))
        load_volume(raw, header)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            loaded = load_volume(raw, header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} B"
        assert not loaded.scalars.flags.writeable
        np.testing.assert_array_equal(loaded.scalars, values)

    def test_file_that_cannot_be_mapped_is_read_whole(self, tmp_path):
        # a file system that refuses the mapping: the file is read as a pipe is
        values = np.arange(60, dtype="<u2").reshape((3, 4, 5), order="F")
        raw, header = tmp_path / "v.raw", tmp_path / "v.json"
        raw.write_bytes(values.tobytes(order="F"))
        header.write_text(json.dumps({"dims": [3, 4, 5], "spacing_mm": [1, 1, 1], "dtype": "u16"}))
        refused = OSError(errno.ENODEV, "No such device")
        with mock.patch.object(codec.mmap, "mmap", side_effect=refused) as mapping:
            loaded = load_volume(raw, header)
        assert mapping.called
        np.testing.assert_array_equal(loaded.scalars, values)

    def test_aneurysm_dataset_shape(self, tmp_path):
        # CT lower-torso dataset dimensions: 256 x 257 x 119 at 0.74/0.74/1.5 mm
        dims = (256, 257, 119)
        header = tmp_path / "h.json"
        header.write_text(
            json.dumps({"dims": list(dims), "spacing_mm": [0.74, 0.74, 1.5], "dtype": "u8"})
        )
        raw = tmp_path / "v.raw"
        raw.write_bytes(bytes(int(np.prod(dims))))
        vol = load_volume(raw, header)
        assert vol.dims == dims
        assert vol.spacing == (0.74, 0.74, 1.5)

    def test_nan_reports_first_index(self, tmp_path):
        data = np.zeros(8, np.float32)
        data[5] = np.nan
        raw = tmp_path / "v.raw"
        raw.write_bytes(data.tobytes())
        header = tmp_path / "h.json"
        header.write_text(json.dumps({"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "f32"}))
        with pytest.raises(IngestError, match="index 5"):
            load_volume(raw, header)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_non_finite_index_is_x_fastest_in_any_layout(self, order):
        # x-fastest (F-order) flat index of [1, 0, 0] is 1 and of [0, 1, 0]
        # is 3; in C memory order the inf at [0, 1, 0] comes first
        scalars = np.zeros((3, 4, 5), np.float32, order=order)
        scalars[0, 1, 0] = np.inf
        scalars[1, 0, 0] = -np.inf
        scalars[2, 3, 4] = np.nan
        with pytest.raises(IngestError, match=r"non-finite intensity at flat index 1$"):
            ScalarVolume((3, 4, 5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), scalars)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_lone_non_finite_value_rejected(self, value):
        scalars = np.ones((3, 4, 5), np.float32)
        scalars[2, 3, 4] = value  # x-fastest flat index 2 + 3 * 3 + 4 * 12
        with pytest.raises(IngestError, match=r"non-finite intensity at flat index 59$"):
            ScalarVolume((3, 4, 5), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), scalars)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IOFailure):
            load_volume(tmp_path / "nope.raw", tmp_path / "nope.json")

    def test_x_fastest_order(self, tmp_path):
        scalars = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        vol = ScalarVolume((2, 2, 2), (1, 1, 1), (0, 0, 0), scalars)
        raw, header, _ = write_volume_files(tmp_path, vol, TF_TWO)
        assert raw.read_bytes()[:4] == np.float32(0).tobytes()
        loaded = load_volume(raw, header)
        # index (1,0,0) is the second value on disk
        assert loaded.scalars[1, 0, 0] == 1.0
        assert loaded.scalars[0, 1, 0] == 2.0
        assert loaded.scalars[0, 0, 1] == 4.0


class TestValidation:
    def test_negative_spacing_rejected(self):
        with pytest.raises(ValidationError):
            ScalarVolume((2, 2, 2), (1.0, -1.0, 1.0), (0, 0, 0), np.zeros((2, 2, 2), np.float32))

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float16, np.int16, np.dtype(">u2"), np.dtype(">f4")], ids=lambda d: np.dtype(d).str
    )
    def test_unsupported_scalar_dtype_rejected(self, dtype):
        # quantize indexes its tables by the raw values or float32 bit patterns
        # of the grid in native byte order
        with pytest.raises(ValidationError, match="scalars must be float32"):
            ScalarVolume((2, 2, 2), (1.0, 1.0, 1.0), (0, 0, 0), np.zeros((2, 2, 2), dtype))

    def test_overlapping_bins_rejected(self):
        with pytest.raises(ValidationError):
            make_tf((0.0, 2.0, (1, 0, 0), 1.0), (1.0, 3.0, (0, 1, 0), 1.0))

    def test_opacity_range_enforced(self):
        with pytest.raises(ValidationError):
            make_tf((0.0, 1.0, (1, 0, 0), 1.5))

    def test_empty_bin_rejected(self):
        with pytest.raises(ValidationError):
            make_tf((1.0, 1.0, (1, 0, 0), 0.5))


class TestQuantize:
    def _volume(self, values):
        arr = np.asarray(values, np.float32).reshape((len(values), 1, 1))
        return ScalarVolume((len(values), 1, 1), (1, 1, 1), (0, 0, 0), arr)

    def test_uniform_single_bin(self):
        vol = self._volume([1.0, 1.0, 1.0])
        labels = quantize(vol, TF_TWO)
        assert (labels.labels == 1).all()

    def test_two_opacity_bins_label_by_match(self):
        # structures at opacity 0.5 and 1.0 get labels 1 and 2 respectively
        vol = self._volume([1.0, 2.0, 1.0, 2.0])
        labels = quantize(vol, TF_TWO)
        assert labels.labels.ravel(order="F").tolist() == [1, 2, 1, 2]
        assert labels.n_labels == 2

    def test_opacity_zero_is_background(self):
        tf = make_tf((0.0, 10.0, (0.5, 0.5, 0.5), 0.0))
        vol = self._volume([1.0, 5.0, 9.0])
        labels = quantize(vol, tf)
        assert not labels.labels.any()

    def test_out_of_range_maps_to_zero(self):
        vol = self._volume([99.0, -5.0])
        labels = quantize(vol, TF_TWO)
        assert not labels.labels.any()

    def test_half_open_boundary(self):
        # a value exactly on hi belongs to the next bin
        vol = self._volume([1.5])
        labels = quantize(vol, TF_TWO)
        assert labels.labels.ravel()[0] == 2

    def test_opacity_zero_bins_skipped_in_label_numbering(self):
        tf = make_tf(
            (0.0, 1.0, (1, 0, 0), 0.4),
            (1.0, 2.0, (0, 1, 0), 0.0),
            (2.0, 3.0, (0, 0, 1), 0.9),
        )
        vol = self._volume([0.5, 1.5, 2.5])
        labels = quantize(vol, tf)
        assert labels.labels.ravel(order="F").tolist() == [1, 0, 2]

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        scalars = rng.uniform(0, 3, size=(8, 8, 8)).astype(np.float32)
        vol = ScalarVolume((8, 8, 8), (1, 1, 1), (0, 0, 0), scalars)
        raw, header, _ = write_volume_files(tmp_path, vol, TF_TWO)
        a = quantize(load_volume(raw, header), TF_TWO)
        b = quantize(load_volume(raw, header), TF_TWO)
        assert np.array_equal(a.labels, b.labels)


def test_u16_file_is_labelled_without_a_float32_grid(tmp_path):
    # the traced peak of loading and labelling a 64^3 u16 file: the raw bytes
    # (2 B per voxel), the labels (2 B), one chunk's int64 indices and the
    # 2^16-entry value table, with room for small objects; a float32 copy of
    # the grid (4 B per voxel) next to the raw bytes and labels exceeds it
    n = 64
    voxels = n**3
    values = np.random.default_rng(9).integers(0, 1 << 16, size=(n, n, n)).astype("<u2")
    raw, header = tmp_path / "v.raw", tmp_path / "v.json"
    raw.write_bytes(values.tobytes(order="F"))
    header.write_text(json.dumps({"dims": [n] * 3, "spacing_mm": [1, 1, 1], "dtype": "u16"}))
    bound = 2 * voxels + 2 * voxels + 8 * volume._QUANTIZE_CHUNK + 2 * (1 << 16) + (64 << 10)
    assert bound < 2 * voxels + 2 * voxels + 4 * voxels
    quantize(load_volume(raw, header), TF_TWO)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        labels = quantize(load_volume(raw, header), TF_TWO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.labels.any()
    assert peak < bound, f"peak {peak} B, bound {bound} B"


def test_labels_hold_one_byte_per_voxel():
    # the traced peak of labelling a 64^3 u16 grid with three bins: the
    # labels at one byte per voxel (1.1 with room for small objects), one
    # chunk's int64 indices and the 2^16-entry value table; two-byte labels
    # exceed it
    n = 64
    voxels = n**3
    grid = np.random.default_rng(10).integers(0, 1 << 16, size=(n, n, n), dtype=np.uint16)
    vol = ScalarVolume((n, n, n), (1, 1, 1), (0, 0, 0), grid)
    tf = make_tf(
        (1000.0, 20000.0, (1, 0, 0), 0.5),
        (20000.0, 40000.0, (0, 1, 0), 0.0),
        (40000.0, 60000.5, (0, 0, 1), 1.0),
    )
    bound = 1.1 * voxels + 8 * volume._QUANTIZE_CHUNK + (1 << 16)
    quantize(vol, tf)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        labels = quantize(vol, tf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.labels.dtype == np.uint8
    assert set(np.unique(labels.labels).tolist()) == {0, 1, 2}
    assert peak <= bound, f"peak {peak} B, bound {bound} B"
