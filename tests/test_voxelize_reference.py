"""The bit-packed voxelizer against the per-mesh code it replaced.

`voxelize_meshes_reference` votes, counts and labels one boolean grid per
mesh. `voxelize_meshes` packs eight meshes into each byte of one grid, one
grid per ray axis when a mesh is open and a single one when every mesh is
closed, and reads every count and label off the voxels where those bytes
change along a ray. Both must give the same scalar bytes, the same transfer
function and the same warnings in the same order. The counts and labels at
changes are also checked against the whole-grid histograms and look-ups
they replaced, on random membership grids.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sliceforge import mesh as mesh_mod
from sliceforge.mesh import Mesh, MeshSet, _is_closed, voxelize_meshes
from sliceforge.synth import icosphere, nested_spheres, unit_cube

from helpers import (
    _inside_by_parity,
    label_grid_reference,
    mesh_inside_grid_reference,
    pair_counts_reference,
    voxelize_meshes_reference,
)


def run(voxelize, meshes: MeshSet, resolution):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        volume, tf = voxelize(meshes, resolution)
    return volume, tf, [(w.category, str(w.message)) for w in caught]


def assert_matches_reference(meshes: MeshSet, resolution) -> list[str]:
    """Assert equal outputs and return the warning messages."""
    got, got_tf, got_warnings = run(voxelize_meshes, meshes, resolution)
    want, want_tf, want_warnings = run(voxelize_meshes_reference, meshes, resolution)
    assert got.scalars.dtype == np.min_scalar_type(len(meshes.meshes)) and want.scalars.dtype == np.float32
    assert got.scalars.shape == want.scalars.shape == tuple(resolution)
    assert got.scalars.flags.c_contiguous
    assert np.array_equal(got.scalars, want.scalars)
    assert (got.dims, got.spacing, got.origin) == (want.dims, want.spacing, want.origin)
    assert got_tf == want_tf
    assert got_warnings == want_warnings
    return [message for _, message in got_warnings]


def scattered_spheres(n: int, seed: int) -> MeshSet:
    """n coarse icospheres of mixed sizes that overlap, nest and miss."""
    rng = np.random.default_rng(seed)
    return MeshSet(tuple(
        icosphere(
            radius=float(rng.uniform(0.15, 0.9)),
            center=tuple(rng.uniform(-0.4, 0.4, 3)),
            subdivisions=1,
            name=f"m{i}",
        )
        for i in range(n)
    ))


def grid_centers(meshes: MeshSet, resolution):
    """Voxel centers over the padded bounds, as `voxelize_meshes` builds them."""
    lo, hi = meshes.bounds()
    extent = hi - lo
    lo, hi = lo - 0.08 * extent, hi + 0.08 * extent
    spacing = (hi - lo) / np.asarray(resolution, float)
    return tuple(lo[a] + (np.arange(resolution[a]) + 0.5) * spacing[a] for a in range(3))


@pytest.mark.parametrize("n", [1, 4, 8, 9, 17])
def test_word_boundaries(n):
    # 8 meshes fill one byte; the 9th and the 17th open a second and a third
    meshes = scattered_spheres(n, seed=n)
    assert_matches_reference(meshes, (20, 18, 22))
    got, _, _ = run(voxelize_meshes, meshes, (20, 18, 22))
    assert np.unique(got.scalars).tolist() == list(range(n + 1))  # every mesh wins some voxel


def test_word_boundaries_nested():
    radii = tuple(0.95 - 0.05 * i for i in range(17))
    assert_matches_reference(nested_spheres(radii, subdivisions=1), (24, 24, 24))


def test_labels_past_a_byte():
    # 256 disjoint spheres, each holding voxels: 1 + the top rank is 256,
    # one more than a byte of the per-voxel best-rank grid holds
    lattice = np.stack(np.meshgrid(np.arange(8), np.arange(8), np.arange(4), indexing="ij"), -1).reshape(-1, 3)
    meshes = MeshSet(tuple(
        icosphere(radius=0.35, center=tuple(map(float, c)), subdivisions=0, name=f"m{i}")
        for i, c in enumerate(lattice)
    ))
    assert_matches_reference(meshes, (32, 32, 16))
    got, _, _ = run(voxelize_meshes, meshes, (32, 32, 16))
    assert np.unique(got.scalars).tolist() == list(range(257))


def test_disjoint_meshes():
    meshes = MeshSet((
        unit_cube(name="a", center=(0.0, 0.0, 0.0)),
        unit_cube(name="b", center=(3.0, 0.0, 0.0), scale=1.5),
        icosphere(radius=0.6, center=(1.5, 2.0, 0.0), subdivisions=1, name="c"),
    ))
    assert_matches_reference(meshes, (32, 16, 16))


@pytest.mark.parametrize("offset", [0.62, 0.628, 0.63, 0.635])
def test_overlap_near_containment_threshold(offset):
    # the inner sphere pokes out of the outer one by a few voxels; whether
    # it counts as nested turns on `shared >= 0.995 * count`
    meshes = MeshSet((
        icosphere(radius=1.0, subdivisions=2, name="outer"),
        icosphere(radius=0.4, center=(offset, 0.05, 0.0), subdivisions=2, name="inner"),
    ))
    assert_matches_reference(meshes, (36, 32, 40))


def test_threshold_sweep_straddles_the_threshold():
    ratios = []
    for offset in (0.62, 0.628, 0.63, 0.635):
        meshes = MeshSet((
            icosphere(radius=1.0, subdivisions=2, name="outer"),
            icosphere(radius=0.4, center=(offset, 0.05, 0.0), subdivisions=2, name="inner"),
        ))
        centers = grid_centers(meshes, (36, 32, 40))
        outer, inner = (mesh_inside_grid_reference(m, centers) for m in meshes.meshes)
        ratios.append((outer & inner).sum() / inner.sum())
    assert min(ratios) > 0.98 and max(ratios) < 1.0
    assert any(r >= 0.995 for r in ratios) and any(r < 0.995 for r in ratios)


def open_cube(axis: int) -> Mesh:
    """The unit cube with half of its face at the low end of `axis` missing."""
    cube = unit_cube(name=f"open{axis}")
    return Mesh(cube.name, cube.vertices, np.delete(cube.triangles, 4 * axis, axis=0))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_open_mesh_decided_by_vote(axis):
    # rays along `axis` through the hole cross the cube once, so that axis
    # alone is wrong and the other two outvote it
    mesh = open_cube(axis)
    centers = grid_centers(MeshSet((mesh,)), (12, 10, 14))
    per_axis = [_inside_by_parity(mesh, centers, a) for a in range(3)]
    others = [g for a, g in enumerate(per_axis) if a != axis]
    assert np.array_equal(*others) and not np.array_equal(per_axis[axis], others[0])
    assert_matches_reference(MeshSet((mesh,)), (12, 10, 14))
    # the open mesh again, in the second byte, between closed ones
    many = MeshSet((*scattered_spheres(8, seed=5).meshes, mesh, unit_cube(name="c", scale=0.4)))
    assert_matches_reference(many, (20, 20, 20))


def test_mesh_holding_no_voxel_centre():
    cube = unit_cube(name="big", center=(0.0, 0.0, 0.0), scale=2.0)
    # far smaller than a voxel (~0.15) and away from every center
    speck = icosphere(radius=0.004, center=(0.53, 0.61, 0.47), subdivisions=0, name="speck")
    warned = assert_matches_reference(MeshSet((cube, speck)), (16, 16, 16))
    assert warned == ["mesh 'speck' contains no voxel centers at this resolution"]
    warned = assert_matches_reference(MeshSet((*scattered_spheres(9, seed=2).meshes, speck)), (16, 16, 16))
    assert warned == ["mesh 'speck' contains no voxel centers at this resolution"]


def test_degenerate_triangle():
    cube = unit_cube()
    vertices = np.vstack([cube.vertices, cube.vertices[0]])
    triangles = np.vstack([cube.triangles, [[0, 0, 8]], [[0, 7, 7]]])
    bad = Mesh(name="bad", vertices=vertices, triangles=triangles)
    warned = assert_matches_reference(MeshSet((unit_cube(name="outer", scale=2.0), bad)), (10, 12, 9))
    assert warned == ["mesh 'bad': skipped 2 degenerate (zero-area) triangles"]


def test_non_cubic_resolution():
    meshes = MeshSet((
        icosphere(radius=0.8, center=(0.1, -0.05, 0.2), subdivisions=2, name="a"),
        icosphere(radius=0.3, center=(0.2, 0.1, 0.1), subdivisions=2, name="b"),
        unit_cube(name="c", center=(-0.2, 0.0, 0.3), scale=0.5),
    ))
    assert_matches_reference(meshes, (24, 16, 40))


@given(
    n=st.integers(1, 18),
    seed=st.integers(0, 2**16),
    resolution=st.tuples(*(st.integers(8, 20),) * 3),
)
@settings(max_examples=25, deadline=None)
def test_random_sphere_sets(n, seed, resolution):
    assert_matches_reference(scattered_spheres(n, seed), resolution)


# two tetrahedra, one above and one below z = 0, that share only the edge 0-1
BOWTIE = Mesh(
    "bowtie",
    np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 1], [0.5, -1, 1], [0.5, 1, -1], [0.5, -1, -1]], dtype=np.float64),
    np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2], [0, 4, 1], [0, 1, 5], [0, 5, 4], [1, 4, 5]]),
)


def test_closed_meshes():
    sphere = icosphere(subdivisions=2)
    assert _is_closed(sphere)
    assert not _is_closed(Mesh("holed", sphere.vertices, sphere.triangles[1:]))
    # each triangle with its own copies of its corners: welding closes it
    cube = unit_cube()
    assert _is_closed(Mesh("soup", cube.vertices[cube.triangles].reshape(-1, 3), np.arange(36).reshape(12, 3)))
    assert np.count_nonzero((np.sort(BOWTIE.triangles, axis=1)[:, :2] == [0, 1]).all(axis=1)) == 4
    assert _is_closed(BOWTIE)
    assert_matches_reference(MeshSet((BOWTIE,)), (12, 14, 10))


@pytest.mark.parametrize("holed,axes", [(False, [0]), (True, [0, 1, 2])])
def test_one_pass_only_when_every_mesh_is_closed(monkeypatch, holed, axes):
    meshes = MeshSet((*scattered_spheres(9, seed=3).meshes, open_cube(1) if holed else unit_cube(scale=0.4)))
    seen, parity_words = [], mesh_mod._parity_words
    monkeypatch.setattr(mesh_mod, "_parity_words", lambda m, c, axis: seen.append(axis) or parity_words(m, c, axis))
    assert_matches_reference(meshes, (20, 18, 16))
    assert seen == axes


def torus(major: float, minor: float, rotation: np.ndarray, center, name: str, n: int = 16) -> Mesh:
    """A closed torus of 2 n^2 triangles around its own z axis, turned by
    `rotation` and moved to `center`."""
    i, j = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    theta, phi = 2 * np.pi * i / n, 2 * np.pi * j / n
    ring = major + minor * np.cos(phi)
    vertices = np.column_stack([ring * np.cos(theta), ring * np.sin(theta), minor * np.sin(phi)])
    a, b = i * n + j, (i + 1) % n * n + j
    c, d = (i + 1) % n * n + (j + 1) % n, i * n + (j + 1) % n
    triangles = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    return Mesh(name, vertices @ rotation.T + center, triangles)


def closed_meshes(spheres: int, cubes: int, tori: int, seed: int) -> MeshSet:
    """Icospheres with jittered vertices that overlap, nest and miss in
    [-1, 1]^3; disjoint cubes in a row above them; tori of any orientation
    in a row below them."""
    rng = np.random.default_rng(seed)
    meshes = []
    for k in range(spheres):
        s = icosphere(radius=float(rng.uniform(0.2, 0.9)), center=tuple(rng.uniform(-0.4, 0.4, 3)),
                      subdivisions=int(rng.integers(1, 3)), name=f"s{k}")
        meshes.append(Mesh(s.name, s.vertices + rng.normal(0.0, 0.01, s.vertices.shape), s.triangles))
    for k in range(cubes):
        centre = (-1.5 + 1.2 * k + rng.uniform(-0.05, 0.05), 2.0 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        meshes.append(unit_cube(name=f"c{k}", scale=float(rng.uniform(0.3, 1.0)), center=centre))
    for k in range(tori):
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        meshes.append(torus(float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.15, 0.3)), rotation,
                            (-1.5 + 1.8 * k, -2.2, 0.0), f"t{k}"))
    return MeshSet(tuple(meshes))


@given(
    spheres=st.integers(0, 9),
    cubes=st.integers(0, 4),
    tori=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    resolution=st.tuples(*(st.integers(8, 24),) * 3),
)
@settings(max_examples=40, deadline=None)
def test_closed_sets_equal_the_majority(spheres, cubes, tori, seed, resolution):
    assume(spheres + cubes + tori > 0)
    meshes = closed_meshes(spheres, cubes, tori, seed)
    assert all(_is_closed(m) for m in meshes.meshes)
    assert_matches_reference(meshes, resolution)


@st.composite
def membership_grids(draw):
    """A (words, nx, ny, nz) grid of membership bytes made of runs along x,
    in the contiguous layout of the majority or as the view of (nx, ny, nz,
    words) toggles that one parity pass returns, and a rank order of
    8 * words - 7 to 8 * words meshes.
    A voxel starts a run of a random word of a small palette with chance
    `start`: 0 leaves the grid all zero, 1 starts every ray inside at voxel
    0; every ray's last run reaches its last voxel, and one voxel may hold a
    word that occurs nowhere else."""
    words = draw(st.integers(1, 3))
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 6), st.integers(1, 6)))
    start = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_r, rays = shape[0], shape[1] * shape[2]
    palette = rng.integers(0, 256, (draw(st.integers(1, 5)), words), dtype=np.uint8)
    palette[rng.random(palette.shape) < 0.4] = 0  # words that hold no mesh beside ones that do
    starts = rng.random((n_r, rays)) < start
    last = np.maximum.accumulate(np.where(starts, np.arange(n_r)[:, None], -1), axis=0)
    pick = rng.integers(0, len(palette), (n_r, rays))
    grid = np.where((last >= 0)[..., None], palette[pick[last, np.arange(rays)]], 0).astype(np.uint8)
    if draw(st.booleans()):
        grid[rng.integers(n_r), rng.integers(rays)] = rng.integers(0, 256, words)
    toggles = grid.reshape(*shape, words)
    pattern = np.moveaxis(toggles, -1, 0)
    if draw(st.booleans()):
        pattern = np.ascontiguousarray(pattern)
    return pattern, draw(st.permutations(range(draw(st.integers(8 * words - 7, 8 * words)))))


@given(membership_grids())
@settings(max_examples=200, deadline=None)
def test_changes_give_the_whole_grid_counts_and_labels(case):
    pattern, rank_order = case
    shape, n = pattern.shape[1:], len(rank_order)
    changes = mesh_mod._changes(pattern)
    assert np.array_equal(mesh_mod._pair_counts(changes, shape, n), pair_counts_reference(pattern, n))
    got, want = mesh_mod._label_grid(changes, shape, rank_order), label_grid_reference(pattern, rank_order)
    assert got.dtype == want.dtype and got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()


def test_voxelizing_128_cubed_peaks_below_five_grids():
    # 10 MiB; a whole-grid int index (8 bytes a voxel, 16 MiB) exceeds it on its own
    meshes = nested_spheres(subdivisions=3)
    tracemalloc.start()
    try:
        voxelize_meshes(meshes, (128, 128, 128))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 128**3
