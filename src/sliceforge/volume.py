"""Scalar volumes, transfer functions, and label quantization.

Voxel data is indexed ``scalars[x, y, z]`` and stored x-fastest on disk
(little-endian raw array next to a JSON sidecar header).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import decode
from .errors import IngestError, IOFailure, ValidationError

_DTYPES = {"u8": np.uint8, "u16": np.uint16, "f32": np.float32}
# voxels labelled per step of `quantize`; bounds its float64 and index temporaries
_QUANTIZE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """Dense intensity grid with physical spacing (mm per voxel)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    scalars: np.ndarray  # float32, shape == dims

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise ValidationError(f"dims must be three integers >= 1, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise ValidationError(f"spacing must be strictly positive, got {self.spacing}")
        if tuple(self.scalars.shape) != tuple(self.dims):
            raise ValidationError(
                f"scalar grid shape {self.scalars.shape} does not match dims {self.dims}"
            )
        bad = np.flatnonzero(~np.isfinite(self.scalars.ravel(order="F")))
        if bad.size:
            raise IngestError(f"non-finite intensity at flat index {int(bad[0])}")

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))


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
    """Per-voxel visible-structure index; 0 is background (opacity 0)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    labels: np.ndarray  # uint16, shape == dims
    n_labels: int  # number of visible transfer-function bins


def load_transfer_function(path: str | Path) -> TransferFunction:
    path = Path(path)
    if not path.exists():
        raise IOFailure(f"transfer function file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"transfer function is not valid JSON: {exc}") from exc
    return decode(TransferFunction, obj, "transfer function")


def load_volume(path: str | Path, header: str | Path) -> ScalarVolume:
    """Read a raw little-endian scalar array described by a JSON header."""
    header = Path(header)
    path = Path(path)
    for p in (header, path):
        if not p.exists():
            raise IOFailure(f"file not found: {p}")
    try:
        meta = json.loads(header.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"header is not valid JSON: {exc}") from exc
    try:
        dims = tuple(int(d) for d in meta["dims"])
        spacing = tuple(float(s) for s in meta["spacing_mm"])
        origin = tuple(float(o) for o in meta.get("origin_mm", (0.0, 0.0, 0.0)))
        dtype_name = meta["dtype"]
        endianness = meta.get("endianness", "little")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"header missing or malformed field: {exc}") from exc
    if dtype_name not in _DTYPES:
        raise ValidationError(f"unsupported dtype {dtype_name!r}, expected one of {sorted(_DTYPES)}")
    if endianness != "little":
        raise ValidationError(f"unsupported endianness {endianness!r}")

    dtype = np.dtype(_DTYPES[dtype_name]).newbyteorder("<")
    raw = path.read_bytes()
    expected = int(np.prod(dims))
    actual = len(raw) // dtype.itemsize
    if len(raw) != expected * dtype.itemsize:
        raise IngestError(
            f"expected {expected} scalars ({expected * dtype.itemsize} bytes), "
            f"file holds {actual} ({len(raw)} bytes)"
        )
    # ScalarVolume rejects non-finite values, reporting the same F-order index
    scalars = np.frombuffer(raw, dtype=dtype).astype(np.float32).reshape(dims, order="F")
    return ScalarVolume(dims=dims, spacing=spacing, origin=origin, scalars=scalars)


def save_volume(volume: ScalarVolume, path: str | Path, header: str | Path, dtype: str = "f32") -> None:
    """Write the raw array + sidecar header (test fixtures and presets)."""
    np_dtype = np.dtype(_DTYPES[dtype]).newbyteorder("<")
    Path(path).write_bytes(volume.scalars.astype(np_dtype).tobytes(order="F"))
    Path(header).write_text(
        json.dumps(
            {
                "dims": list(volume.dims),
                "spacing_mm": list(volume.spacing),
                "origin_mm": list(volume.origin),
                "dtype": dtype,
                "endianness": "little",
            },
            indent=2,
            sort_keys=True,
        )
    )


def quantize(volume: ScalarVolume, tf: TransferFunction) -> LabelVolume:
    """Map each voxel to its visible-bin label (1-based), 0 for background.

    The scalars are walked in memory order, `_QUANTIZE_CHUNK` at a time, so
    no full-size temporary is made. A value's count of bin breaks ``lo, hi``
    at or below it is ``2i + 1`` exactly when it lies in bin i; any even count
    is background.
    """
    breaks = np.array([edge for b in tf.bins for edge in (b.lo, b.hi)], dtype=np.float64)
    # break count -> label: visible bins count 1..K in bin order, opacity-0 bins are 0
    table = np.zeros(len(breaks) + 1, dtype=np.uint16)
    k = 0
    for i, b in enumerate(tf.bins):
        if b.opacity > 0.0:
            k += 1
            table[2 * i + 1] = k
    order = "F" if volume.scalars.flags.f_contiguous else "C"
    scalars = volume.scalars.reshape(-1, order=order)  # a view unless the grid is strided
    labels = np.empty(volume.dims, dtype=np.uint16, order=order)
    flat = labels.reshape(-1, order=order)
    for start in range(0, flat.size, _QUANTIZE_CHUNK):
        part = slice(start, start + _QUANTIZE_CHUNK)
        counts = np.searchsorted(breaks, scalars[part].astype(np.float64), side="right")
        np.take(table, counts, out=flat[part])
    return LabelVolume(
        dims=volume.dims,
        spacing=volume.spacing,
        origin=volume.origin,
        labels=labels,
        n_labels=k,
    )
