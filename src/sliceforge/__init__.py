"""sliceforge: volumetric data to assemblable semi-transparent sliceform
papercrafts (octree slicing, hinge classification, exact assembly-order
optimization, page packing, and SVG print output)."""

__version__ = "0.1.0"
