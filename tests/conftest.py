import pytest

from sliceforge.mesh import voxelize_meshes
from sliceforge.volume import quantize

from synth import checkerboard_volume, nested_spheres


@pytest.fixture(scope="session")
def checker16():
    volume, tf = checkerboard_volume(16)
    return quantize(volume, tf)


@pytest.fixture(scope="session")
def checker64():
    volume, tf = checkerboard_volume(64)
    return quantize(volume, tf)


@pytest.fixture(scope="session")
def spheres128():
    """The nested-spheres acceptance fixture: concentric, radii
    0.9/0.65/0.4/0.2 of the half-extent, voxelized at 128^3."""
    meshes = nested_spheres(subdivisions=3)
    volume, tf = voxelize_meshes(meshes, (128, 128, 128))
    return volume, tf, quantize(volume, tf)


@pytest.fixture(scope="session")
def spheres64():
    """Smaller twin of the acceptance fixture for cheaper pipeline tests."""
    meshes = nested_spheres(subdivisions=2)
    volume, tf = voxelize_meshes(meshes, (64, 64, 64))
    return volume, tf, quantize(volume, tf)
