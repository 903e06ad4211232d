"""Synthetic fixtures of the tests: a cube, nested spheres and a checkerboard
volume. The icosphere they build on is `sliceforge.synth.icosphere`, which
the benchmark also uses."""

from __future__ import annotations

import numpy as np

from sliceforge.mesh import Mesh, MeshSet
from sliceforge.synth import icosphere
from sliceforge.volume import ScalarVolume, TransferBin, TransferFunction


def unit_cube(name: str = "cube", scale: float = 1.0, center=(0.5, 0.5, 0.5)) -> Mesh:
    c = np.asarray(center, dtype=np.float64)
    v = (np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.float64
    ) - 0.5) * scale + c
    # 12 triangles, outward-wound
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x- / x+
        (0, 4, 5, 1), (2, 3, 7, 6),  # y- / y+
        (0, 2, 6, 4), (1, 5, 7, 3),  # z- / z+
    ]
    tris = []
    for a, b, cc, d in quads:
        tris.append((a, b, cc))
        tris.append((a, cc, d))
    return Mesh(name=name, vertices=v, triangles=np.asarray(tris, dtype=np.int64))


def nested_spheres(radii=(0.9, 0.65, 0.4, 0.2), half_extent: float = 1.0, subdivisions: int = 3) -> MeshSet:
    """Concentric spheres, outermost first; radii are fractions of half_extent."""
    meshes = tuple(
        icosphere(radius=r * half_extent, subdivisions=subdivisions, name=f"sphere{i}")
        for i, r in enumerate(radii)
    )
    return MeshSet(meshes=meshes)


def checkerboard_volume(n: int | tuple[int, int, int], spacing=(1.0, 1.0, 1.0)) -> tuple[ScalarVolume, TransferFunction]:
    """Two interleaved labels; every region >= 2 voxels wide holds both.

    Guarantees full octree subdivision at any level, which pins the slice
    counts 6 (L=2) and 14 (L=3).
    """
    dims = (n, n, n) if isinstance(n, int) else tuple(n)
    x, y, z = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    scalars = (1.0 + (x + y + z) % 2).astype(np.float32)
    volume = ScalarVolume(dims=dims, spacing=tuple(spacing), origin=(0.0, 0.0, 0.0), scalars=scalars)
    tf = TransferFunction(
        bins=(
            TransferBin(1.0, 2.0, (0.9, 0.2, 0.2), 1.0),
            TransferBin(2.0, 3.0, (0.95, 0.8, 0.2), 0.5),
        )
    )
    return volume, tf
