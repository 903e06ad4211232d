"""The icosphere of the benchmark's mesh inputs; the tests' other synthetic
fixtures are in `tests/synth.py`."""

from __future__ import annotations

from .mesh import Mesh


def icosphere(radius: float = 1.0, center=(0.0, 0.0, 0.0), subdivisions: int = 3, name: str = "sphere") -> Mesh:
    """Subdivided icosahedron; 20 * 4**subdivisions triangles. No stage calls
    it: beside the tests, its one caller is `perfbench/workloads.py`, which
    writes the benchmark's sphere meshes with it."""
    import numpy as np

    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = np.add(verts[i], verts[j]) / 2.0
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(tuple(m))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.asarray(verts, dtype=np.float64) * radius + np.asarray(center, dtype=np.float64)
    return Mesh(name=name, vertices=v, triangles=np.asarray(faces, dtype=np.int64))
