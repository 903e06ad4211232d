"""sliceforge: volumetric data to assemblable semi-transparent sliceform
papercrafts (octree slicing, hinge classification, exact assembly-order
optimization, page packing, and SVG print output)."""

__version__ = "0.1.0"

from .errors import (
    InfeasibleError,
    IngestError,
    IOFailure,
    SliceforgeError,
    ValidationError,
)
from .volume import (
    LabelVolume,
    ScalarVolume,
    TransferBin,
    TransferFunction,
    load_transfer_function,
    load_volume,
    quantize,
    save_volume,
)

__all__ = [
    "__version__",
    "SliceforgeError",
    "ValidationError",
    "IngestError",
    "InfeasibleError",
    "IOFailure",
    "ScalarVolume",
    "TransferBin",
    "TransferFunction",
    "LabelVolume",
    "load_volume",
    "save_volume",
    "load_transfer_function",
    "quantize",
]
