"""Scalar volumes, transfer functions, and label quantization.

Voxel data is indexed ``scalars[x, y, z]`` and stored x-fastest on disk
(little-endian raw array next to a JSON sidecar header). A loaded grid is the
file's pages, mapped read-only as an array of the file's dtype (uint8, uint16
or float32), not copied into memory; the mesh voxelizer writes uint8 or uint16
mesh indices. `quantize` labels either from those raw values, one byte per
voxel unless the transfer function has 255 visible bins or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import decode, read_array, read_json
from .errors import IngestError, ValidationError

_DTYPES = {"u8": np.uint8, "u16": np.uint16, "f32": np.float32}
# voxels labelled per step of `quantize`; bounds its float64 and index temporaries
_QUANTIZE_CHUNK = 1 << 16
# the widest label dtype's maximum; a transfer function has fewer visible bins,
# so `quantize`'s marker of a mixed float32 bucket, its dtype's maximum, is
# never a label
_MIXED = 0xFFFF


def check_grid(dims, spacing, origin) -> None:
    if len(dims) != 3 or any(int(d) < 1 for d in dims):
        raise ValidationError(f"dims must be three integers >= 1, got {dims}")
    if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
        raise ValidationError(f"spacing must be three finite numbers > 0, got {spacing}")
    if len(origin) != 3 or not all(math.isfinite(o) for o in origin):
        raise ValidationError(f"origin must be three finite numbers, got {origin}")


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """Dense intensity grid with physical spacing (mm per voxel).

    The scalars are uint8, uint16 or float32 in native byte order, as a raw
    file of that dtype holds them; float32 values must be finite.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    scalars: np.ndarray  # uint8, uint16 or float32, shape == dims

    def __post_init__(self):
        check_grid(self.dims, self.spacing, self.origin)
        if self.scalars.dtype not in (np.float32, np.uint8, np.uint16):
            raise ValidationError(f"scalars must be float32, uint8 or uint16 in native byte order, got {self.scalars.dtype}")
        if tuple(self.scalars.shape) != tuple(self.dims):
            raise ValidationError(
                f"scalar grid shape {self.scalars.shape} does not match dims {self.dims}"
            )
        # NaN propagates through min and max, so both are finite exactly when
        # every value is; the grid is scanned for the first bad index only
        # when one of them is not
        if self.scalars.dtype == np.float32 and not (np.isfinite(self.scalars.min()) and np.isfinite(self.scalars.max())):
            bad = np.flatnonzero(~np.isfinite(self.scalars.ravel(order="F")))
            raise IngestError(f"non-finite intensity at flat index {int(bad[0])}")

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True)
class _VolumeHeader:
    """The JSON sidecar of a raw volume; `dims` are x, y, z."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = field(metadata={"json": "spacing_mm"})
    dtype: str
    origin: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0), metadata={"json": "origin_mm"})
    endianness: str = "little"

    def __post_init__(self):
        check_grid(self.dims, self.spacing, self.origin)
        if self.dtype not in _DTYPES:
            raise ValidationError(f"unsupported dtype {self.dtype!r}, expected one of {sorted(_DTYPES)}")
        if self.endianness != "little":
            raise ValidationError(f"unsupported endianness {self.endianness!r}")


@dataclass(frozen=True)
class TransferBin:
    lo: float
    hi: float
    rgb: tuple[float, float, float]
    opacity: float


@dataclass(frozen=True)
class TransferFunction:
    """Quantized intensity -> (color, opacity) map.

    Bins are half-open ``[lo, hi)``, non-overlapping, sorted by ``lo``.
    Intensities matching no bin get opacity 0 (background rule).
    """

    bins: tuple[TransferBin, ...]

    def __post_init__(self):
        prev_hi = None
        for b in self.bins:
            if not b.lo < b.hi:
                raise ValidationError(f"bin [{b.lo}, {b.hi}) is empty or reversed")
            if prev_hi is not None and b.lo < prev_hi:
                raise ValidationError("transfer-function bins overlap or are unsorted")
            if not 0.0 <= b.opacity <= 1.0:
                raise ValidationError(f"opacity {b.opacity} outside [0, 1]")
            if any(not 0.0 <= c <= 1.0 for c in b.rgb):
                raise ValidationError(f"color {b.rgb} outside [0, 1]^3")
            prev_hi = b.hi

    @property
    def visible_bins(self) -> tuple[TransferBin, ...]:
        """Bins with opacity > 0; label k maps to visible_bins[k - 1]."""
        return tuple(b for b in self.bins if b.opacity > 0.0)


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Per-voxel visible-structure index; 0 is background (opacity 0).

    `quantize` writes uint8 labels when there are fewer than 255 labels and
    uint16 otherwise; the octree and render accept any unsigned dtype."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    labels: np.ndarray  # uint8 below 255 labels, else uint16; shape == dims
    n_labels: int  # number of visible transfer-function bins


def load_transfer_function(path: str | Path) -> TransferFunction:
    return decode(TransferFunction, read_json(path, "transfer function"), f"transfer function {path}")


def load_volume(path: str | Path, header: str | Path) -> ScalarVolume:
    """Read a raw little-endian scalar array described by a JSON header."""
    head = decode(_VolumeHeader, read_json(header, "header"), f"header {header}")
    dims = head.dims
    dtype = np.dtype(_DTYPES[head.dtype]).newbyteorder("<")
    raw = read_array(path, "volume", dtype, math.prod(dims))
    # the file's own values, no copy on a little-endian host; ScalarVolume
    # rejects non-finite float32 values, reporting the same F-order index
    scalars = raw.astype(dtype.newbyteorder("="), copy=False).reshape(dims, order="F")
    return ScalarVolume(dims=dims, spacing=head.spacing, origin=head.origin, scalars=scalars)


def quantize(volume: ScalarVolume, tf: TransferFunction) -> LabelVolume:
    """Map each voxel to its visible-bin label (1-based), 0 for background.

    A value's count of bin breaks ``lo, hi`` at or below it is ``2i + 1``
    exactly when it lies in bin i; any even count is background. Breaks are
    compared as float64, so a break between two float32 values splits them.
    The labels are uint8 when there are fewer than 255 visible bins, else
    uint16, so the dtype's maximum is never a label.

    A uint8 or uint16 grid is labelled through a table of all 2^8 or 2^16
    raw values. An integer is at or above a break exactly when it is at or
    above the break's ceiling, so the table is runs of equal break count
    that start at those ceilings. A grid of the label dtype whose values up to
    its maximum label themselves, as the mesh voxelizer's do, is returned as is.

    A float32 grid is labelled through a table of the 2^16 buckets of bit
    patterns that share their top 16 bits. Each bucket is one interval of
    values (ordered in reverse for negative ones), and the break count only
    grows with the value, so when the bucket's two end patterns have the same
    count, every value in it has that count and the table holds its label.
    A bucket whose ends differ is mixed: the table holds the label dtype's
    maximum, and its voxels take the float64 break search.

    Either way the scalars are walked in memory order, `_QUANTIZE_CHUNK` at a
    time, so no full-size temporary is made.
    """
    breaks = np.array([edge for b in tf.bins for edge in (b.lo, b.hi)], dtype=np.float64)
    visible = [i for i, b in enumerate(tf.bins) if b.opacity > 0.0]
    k = len(visible)
    if k >= _MIXED:
        raise ValidationError(f"transfer function has more than {_MIXED - 1} visible bins")
    dtype = np.uint8 if k < 0xFF else np.uint16
    mixed = np.iinfo(dtype).max
    # break count -> label: visible bins count 1..K in bin order, opacity-0 bins are 0
    table = np.zeros(len(breaks) + 1, dtype=dtype)
    table[2 * np.array(visible, dtype=np.intp) + 1] = np.arange(1, k + 1)
    order = "F" if volume.scalars.flags.f_contiguous else "C"
    scalars = volume.scalars.reshape(-1, order=order)  # a view unless the grid is strided
    direct = scalars.dtype != np.float32
    if direct:
        n = 1 << 8 * scalars.itemsize
        starts = np.clip(np.ceil(breaks), 0, n).astype(np.intp)
        lookup = np.repeat(table, np.diff(starts, prepend=0, append=n))
        if scalars.dtype == dtype:
            # the values below the first that maps elsewhere (the dtype's maximum, a non-label, does)
            prefix = int(np.argmin(lookup == np.arange(n)))
            if prefix and int(volume.scalars.max()) < prefix:
                return LabelVolume(volume.dims, volume.spacing, volume.origin, volume.scalars, k)
    else:
        first = np.arange(1 << 16, dtype=np.uint32) << 16
        # the buckets of exponent 0xFF hold inf and NaN, which no ScalarVolume holds
        with np.errstate(invalid="ignore"):
            ends = [np.searchsorted(breaks, p.view(np.float32).astype(np.float64), side="right")
                    for p in (first, first | 0xFFFF)]
        lookup = np.where(ends[0] == ends[1], table[ends[0]], mixed).astype(dtype)
    labels = np.empty(volume.dims, dtype=dtype, order=order)
    flat = labels.reshape(-1, order=order)
    for start in range(0, flat.size, _QUANTIZE_CHUNK):
        part = slice(start, start + _QUANTIZE_CHUNK)
        out = flat[part]
        # every key is an index of the table: "clip" only skips the bounds check
        if direct:
            np.take(lookup, scalars[part], out=out, mode="clip")
            continue
        np.take(lookup, scalars[part].view(np.uint32) >> 16, out=out, mode="clip")
        straddling = np.flatnonzero(out == mixed)
        if straddling.size:
            values = scalars[part][straddling].astype(np.float64)
            out[straddling] = table[np.searchsorted(breaks, values, side="right")]
    return LabelVolume(
        dims=volume.dims,
        spacing=volume.spacing,
        origin=volume.origin,
        labels=labels,
        n_labels=k,
    )
