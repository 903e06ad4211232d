"""Metamorphic relations: the pipeline against itself, under a change of its
input whose effect on the output is known, with no second implementation.

Mesh order. Voxelizing the meshes of a set in another order `perm` (mesh j
of the new list is mesh perm[j] of the old) permutes the intensities: a
voxel labelled 1 + perm[j] before is labelled 1 + j after. Each mesh keeps
its opacity; a bin's range and colour belong to its index, and spacing and
origin come from the set's bounds, so all of them stay equal. The nesting
rank breaks ties by mesh index only when two meshes nest equally deep at
an equal distance from the centre, which distinct centres rule out.

Transpose. Swapping x and y in a label volume, with its spacing, and slicing
it with orientations y,x instead of x,y renames the axes and nothing else:
each plane family holds the same (plane, extent) rectangles, the hinges the
same (kind, slots, positions), and the assembly order the same objective.
Slice and hinge ids, and the order of an octree node's children, may differ.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import pipeline
from sliceforge.mesh import Mesh, MeshSet, voxelize_meshes
from sliceforge.pipeline import GridInfo
from sliceforge.synth import icosphere
from sliceforge.volume import LabelVolume

from synth import unit_cube


def assert_mesh_order_permutes_labels(meshes: MeshSet, perm, resolution) -> None:
    volume, tf = voxelize_meshes(meshes, resolution)
    got, got_tf = voxelize_meshes(MeshSet(tuple(meshes.meshes[p] for p in perm)), resolution)
    relabel = np.zeros(len(perm) + 1, dtype=volume.scalars.dtype)
    relabel[1 + np.asarray(perm)] = np.arange(1, len(perm) + 1)
    assert got.scalars.dtype == volume.scalars.dtype
    assert np.array_equal(got.scalars, relabel[volume.scalars])
    assert [b.opacity for b in got_tf.bins] == [tf.bins[p].opacity for p in perm]
    assert [(b.lo, b.hi, b.rgb) for b in got_tf.bins] == [(b.lo, b.hi, b.rgb) for b in tf.bins]
    assert (got.dims, got.spacing, got.origin) == (volume.dims, volume.spacing, volume.origin)


def stepped_nested_spheres(seed: int) -> MeshSet:
    """Four nested spheres, radii 0.9/0.65/0.4/0.2, each inner centre
    stepped by at most 0.03 so that no two centres coincide."""
    rng = np.random.default_rng(seed)
    return MeshSet(tuple(
        icosphere(radius=r, center=tuple(rng.uniform(-0.03, 0.03, 3)) if i else (0.0, 0.0, 0.0),
                  subdivisions=3, name=f"sphere{i}")
        for i, r in enumerate((0.9, 0.65, 0.4, 0.2))
    ))


@pytest.mark.parametrize("seed", [3, 7])
def test_every_order_of_nested_spheres(seed):
    meshes = stepped_nested_spheres(seed)
    for perm in itertools.permutations(range(4)):
        assert_mesh_order_permutes_labels(meshes, perm, (48, 48, 48))


@st.composite
def mesh_sets(draw):
    """Icospheres that overlap, nest and miss, and maybe an open cube (which
    takes the three-pass majority), each with its own centre."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    meshes = [
        icosphere(radius=float(rng.uniform(0.15, 0.9)), center=tuple(rng.uniform(-0.4, 0.4, 3)),
                  subdivisions=1, name=f"m{i}")
        for i in range(draw(st.integers(1, 10)))
    ]
    if draw(st.booleans()):
        cube = unit_cube(name="open", scale=0.6, center=tuple(rng.uniform(-0.2, 0.2, 3)))
        meshes.append(Mesh(cube.name, cube.vertices, cube.triangles[1:]))
    return MeshSet(tuple(meshes))


@given(meshes=mesh_sets(), data=st.data(), resolution=st.tuples(*(st.integers(8, 20),) * 3))
@settings(max_examples=30, deadline=None)
def test_any_order_of_a_mesh_set(meshes, data, resolution):
    perm = data.draw(st.permutations(range(len(meshes.meshes))))
    assert_mesh_order_permutes_labels(meshes, perm, resolution)


def slice_to_order(labels: LabelVolume, orientations: tuple[str, str], level: int):
    """Per family, the sorted (plane, extent) of its slices; the sorted hinges
    without ids; and the assembly order's objective."""
    slices = pipeline.stage_slice(labels, level, orientations)
    hinges = pipeline.stage_hinges(slices, orientations)
    plan, _ = pipeline.stage_order(hinges, slices, GridInfo(labels.dims, labels.spacing, labels.origin, orientations))
    families = [sorted((s.plane_coord, s.extent) for s in slices if s.orientation == o) for o in orientations]
    kept = sorted((h.kind, h.slot_a, h.slot_b, h.u_a, h.u_b, h.v0, h.v1) for h in hinges)
    return families, kept, plan.objective


@st.composite
def label_volumes(draw):
    """Boxes of 1 to 11 labels, later ones over earlier ones, in volumes of
    10 to 40 voxels per axis, most of which do not halve evenly down to
    level 4, with uneven spacing."""
    dims = draw(st.tuples(*(st.integers(10, 40),) * 3))
    n_labels = draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.zeros(dims, np.uint8)
    for label in rng.permutation(1 + np.arange(draw(st.integers(2, 6))) % n_labels):  # each label once, if it can
        lo = rng.integers(0, np.array(dims) - 1)
        hi = lo + 1 + rng.integers(0, np.array(dims) - lo)
        grid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = label
    spacing = tuple(draw(st.sampled_from((0.5, 1.0, 1.25))) for _ in range(3))
    return LabelVolume(dims, spacing, (0.0, 0.0, 0.0), grid, n_labels)


@given(labels=label_volumes())
@settings(max_examples=40, deadline=None)
def test_swapping_x_and_y_renames_the_axes(labels):
    (nx, ny, nz), (sx, sy, sz) = labels.dims, labels.spacing
    swapped = LabelVolume((ny, nx, nz), (sy, sx, sz), labels.origin, labels.labels.transpose(1, 0, 2), labels.n_labels)
    assert slice_to_order(swapped, ("y", "x"), 4) == slice_to_order(labels, ("x", "y"), 4)
