"""The batched parity voxelizer against the per-triangle loop it replaced.

`inside_by_parity_reference` is that loop, kept verbatim. Every crossing
is computed with the same expressions in the same operand order, so the
grids must be equal, not merely close.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import mesh as mesh_mod
from sliceforge.mesh import Mesh
from sliceforge.synth import icosphere, unit_cube

from helpers import _inside_by_parity, inside_by_parity_reference


def padded_centers(mesh: Mesh, resolution):
    """Voxel centers over the mesh bounds padded as `voxelize_meshes` pads them."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    extent = hi - lo
    lo, hi = lo - 0.08 * extent, hi + 0.08 * extent
    spacing = (hi - lo) / np.asarray(resolution, float)
    return tuple(lo[a] + (np.arange(resolution[a]) + 0.5) * spacing[a] for a in range(3))


def assert_matches_reference(mesh: Mesh, centers):
    for axis in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 or x/0 from skipped triangles
            got = _inside_by_parity(mesh, centers, axis)
        want = inside_by_parity_reference(mesh, centers, axis)
        assert got.shape == want.shape == tuple(len(c) for c in centers)
        assert np.array_equal(got, want), f"axis {axis}"


def test_non_cubic_grid():
    mesh = icosphere(radius=0.8, center=(0.1, -0.05, 0.2), subdivisions=2)
    assert_matches_reference(mesh, padded_centers(mesh, (24, 16, 20)))


def test_grid_aligned_cube_face_diagonals():
    # centers (k + 0.5) / 8 put the rays with iu == iv exactly on the
    # diagonal edge shared by the two triangles of every cube face
    mesh = unit_cube()
    centers = tuple((np.arange(8) + 0.5) / 8 for _ in range(3))
    assert_matches_reference(mesh, centers)
    assert_matches_reference(mesh, padded_centers(mesh, (8, 8, 8)))
    inside = _inside_by_parity(mesh, centers, 2)
    assert inside.all()


def test_crossings_exactly_on_centers():
    # the faces z = 0 and z = 1 fall exactly on centers: a crossing at a
    # center does not count for that center, only for the ones above it
    mesh = unit_cube()
    centers = tuple(np.linspace(-0.25, 1.25, 7) for _ in range(3))
    assert_matches_reference(mesh, centers)
    column = _inside_by_parity(mesh, centers, 2)[3, 3]
    assert column.tolist() == [False, False, True, True, True, True, False]


def test_vertex_exactly_on_a_ray():
    # put a vertex on the jittered ray (2, 3) of z-rays: its barycentric
    # weights are exactly (1, 0, 0), which the >= 0 tests count as a hit;
    # the second triangle lists the same vertex second
    centers = tuple((np.arange(8) + 0.5) / 8 for _ in range(3))
    cu = centers[0] + (centers[0][1] - centers[0][0]) * 2.718281828e-7
    cv = centers[1] + (centers[1][1] - centers[1][0]) * 3.141592653e-7
    vertices = np.array([
        [cu[2], cv[3], 0.4], [0.9, 0.35, 0.5], [0.6, 0.95, 0.6],
        [cu[5], cv[6], 0.3], [0.97, 0.99, 0.5], [0.45, 0.99, 0.6],
    ])
    mesh = Mesh("tips", vertices, np.array([[0, 1, 2], [4, 3, 5]]))
    assert_matches_reference(mesh, centers)
    assert _inside_by_parity(mesh, centers, 2)[2, 3].tolist() == [False] * 3 + [True] * 5


def test_zero_area_and_axis_parallel_triangles():
    cube = unit_cube()
    extra = np.array([[0.5, 0.5, 0.5], [0.2, 0.2, 0.1], [0.8, 0.8, 0.1], [0.8, 0.8, 0.9]])
    vertices = np.vstack([cube.vertices, extra])
    n = len(cube.vertices)
    triangles = np.vstack([
        cube.triangles,
        [[0, 0, 7]],  # repeated vertex: zero area
        [[0, n, 7]],  # collinear along the main diagonal: zero area
        [[n + 1, n + 2, n + 3]],  # in a vertical plane: parallel to z rays
    ])
    mesh = Mesh("degenerate", vertices, triangles)
    centers = tuple((np.arange(12) + 0.5) / 12 for _ in range(3))
    assert_matches_reference(mesh, centers)
    assert_matches_reference(mesh, padded_centers(mesh, (10, 12, 9)))


@given(
    radius=st.floats(0.2, 1.0),
    offset=st.tuples(*(st.floats(-0.4, 0.4),) * 3),
    subdivisions=st.integers(0, 2),
    resolution=st.tuples(*(st.integers(8, 20),) * 3),
)
@settings(max_examples=25, deadline=None)
def test_offset_icospheres(radius, offset, subdivisions, resolution):
    mesh = icosphere(radius=radius, center=offset, subdivisions=subdivisions)
    # a fixed grid the sphere moves inside, so it also meets the grid edges
    lo, hi = np.full(3, -1.1), np.full(3, 1.1)
    spacing = (hi - lo) / np.asarray(resolution, float)
    centers = tuple(lo[a] + (np.arange(resolution[a]) + 0.5) * spacing[a] for a in range(3))
    assert_matches_reference(mesh, centers)


@st.composite
def triangle_soups(draw):
    """Triangles on a grid of n^3 centers (k + 0.5) / n: free ones, with
    vertices on centers and cell faces among them; slivers inside one x
    column; triangles holding a z ray direction (parallel to z rays), or
    holding it up to rounding; and triangles between two x columns."""
    n = draw(st.integers(8, 12))
    on_grid = st.integers(-1, 2 * n + 1).map(lambda k: k / (2 * n))
    coord = st.one_of(st.floats(-0.1, 1.1), on_grid)
    point = st.tuples(coord, coord, coord).map(np.array)
    tris = []
    for kind in draw(st.lists(st.sampled_from(["free", "sliver", "parallel", "between"]), min_size=1, max_size=10)):
        p, q, r = (draw(point) for _ in range(3))
        if kind == "sliver":  # all three x within half a column of center k
            k = draw(st.integers(0, n - 1))
            for v in (p, q, r):
                v[0] = (k + 0.5 + draw(st.floats(-0.49, 0.49))) / n
        elif kind == "parallel":
            t = draw(st.sampled_from([0.0, 0.3, 1.0]))
            r[:2] = p[:2] + t * (q[:2] - p[:2])
        elif kind == "between":  # strictly between the centers of x columns k and k + 1
            k = draw(st.integers(0, n - 2))
            for v in (p, q, r):
                v[0] = (k + 0.5 + draw(st.floats(0.01, 0.99))) / n
        tris.append([p, q, r])
    vertices = np.array(tris, dtype=np.float64).reshape(-1, 3)
    mesh = Mesh("soup", vertices, np.arange(len(vertices)).reshape(-1, 3))
    return mesh, tuple((np.arange(n) + 0.5) / n for _ in range(3))


def test_subnormal_projected_area_warns_nothing():
    # a sliver from the origin to (0.3, 0.3) whose short edge spans 1e-320 in
    # x: its projected area underflows to a subnormal, so the edge fraction and
    # the weights of the rays beside it overflow, and those rays count no hit
    mesh = Mesh("sliver", np.array([[0.0, 0.0, 0.2], [1e-320, 0.0, 0.5], [0.3, 0.3, 0.8]]), np.array([[0, 1, 2]]))
    (u0, v0, _), (u1, v1, _), (u2, v2, _) = mesh.vertices
    assert 0 < (u1 - u0) * (v2 - v0) - (u2 - u0) * (v1 - v0) < np.finfo(np.float64).tiny
    centers = tuple((np.arange(8) + 0.5) / 8 for _ in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = mesh_mod._parity_words((mesh,), centers, 2)
    assert words.shape == (1, 8, 8, 8) and not words.any()


@given(soup=triangle_soups())
@settings(max_examples=150, deadline=None)
def test_triangle_soups(soup):
    # the per-column candidates hold every ray the per-triangle loop counts
    assert_matches_reference(*soup)


@pytest.mark.parametrize("cap", [1, 7, 100])
def test_many_chunks(monkeypatch, cap):
    # small caps split single triangles across chunk boundaries
    monkeypatch.setattr(mesh_mod, "_MAX_CANDIDATES", cap)
    mesh = icosphere(radius=0.7, center=(0.05, 0.1, -0.1), subdivisions=1)
    assert_matches_reference(mesh, padded_centers(mesh, (24, 16, 20)))
