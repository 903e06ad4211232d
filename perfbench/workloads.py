"""Seeded inputs and `sliceforge` argument lists for the benchmark workloads.

`prepare` turns (workload, seed) into input files plus the argument lists
of one build. The program only ever sees those files; the seed never
reaches it. The same seed gives byte-identical inputs, which `inputs`
records with a sha256 each so that results on different inputs can be told
apart.

`tiny=True` shrinks every workload to a 16^3 grid at octree level 2 for the
harness self-test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from sliceforge.mesh import save_obj
from sliceforge.synth import icosphere

WHY = {
    "mesh-spheres": "paper's mesh path: four nested OBJ spheres at 128^3, L3; "
    "voxelization dominates and every later stage is tiny",
    "volume-deep": "paper's volume path: 256^3 u16 raw volume at L6; quantize sets peak memory "
    "and octree, ordering and export all have real size",
    "staged-print": "five per-stage commands through JSON artifacts on a 128^3 f32 volume at "
    "~300 dpi; render, PNG, SVG and artifact decoding dominate",
}
NAMES = tuple(WHY)

SPHERE_RADII = (0.9, 0.65, 0.4, 0.2)  # outermost first, as synth.nested_spheres
# largest seeded step between consecutive sphere centres; far below the
# 0.2 radius gap, so every seed keeps the spheres strictly nested
SPHERE_OFFSET = 0.03

# Gaussian blobs as fractions of the grid: centre, sigma per axis, amplitude.
# The layout is fixed so every seed yields a volume of the same structure
# (and nearly the same slice and hinge counts); the seed jitters each blob
# by BLOB_JITTER and draws the noise.
BLOBS = (
    ((0.50, 0.50, 0.50), (0.20, 0.16, 0.24), 3000.0),
    ((0.36, 0.58, 0.42), (0.09, 0.12, 0.10), 2600.0),
    ((0.64, 0.40, 0.56), (0.11, 0.08, 0.12), 2800.0),
    ((0.55, 0.66, 0.30), (0.07, 0.07, 0.09), 2400.0),
    ((0.42, 0.34, 0.66), (0.08, 0.10, 0.07), 2500.0),
    ((0.30, 0.30, 0.35), (0.06, 0.06, 0.06), 3200.0),
    ((0.70, 0.68, 0.68), (0.07, 0.09, 0.08), 2700.0),
    ((0.68, 0.28, 0.30), (0.08, 0.06, 0.09), 2900.0),
    ((0.26, 0.70, 0.62), (0.06, 0.08, 0.07), 2600.0),
)
BLOB_JITTER = 0.01
NOISE_SIGMA = 60.0
BACKGROUND = 200.0
# three visible bins; labels are 1, 2, 3 in this order
TF_EDGES = (1200.0, 2400.0, 3600.0, 70000.0)
TF_BINS = (((0.2, 0.4, 0.9), 0.3), ((0.9, 0.7, 0.2), 0.6), ((0.9, 0.2, 0.2), 0.95))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def blob_volume(n: int, seed: int) -> np.ndarray:
    """Sum of separable anisotropic Gaussians plus white noise, float32 (n, n, n)."""
    rng = np.random.default_rng(seed)
    ax = np.arange(n, dtype=np.float64)
    vol = np.full((n, n, n), BACKGROUND, dtype=np.float32)
    for centre, sigma, amp in BLOBS:
        c = (np.asarray(centre) + rng.uniform(-BLOB_JITTER, BLOB_JITTER, 3)) * n
        s = np.asarray(sigma) * rng.uniform(1 - BLOB_JITTER, 1 + BLOB_JITTER, 3) * n
        a = amp * rng.uniform(1 - BLOB_JITTER, 1 + BLOB_JITTER)
        g = [np.exp(-0.5 * ((ax - c[d]) / s[d]) ** 2).astype(np.float32) for d in range(3)]
        vol += np.float32(a) * g[0][:, None, None] * g[1][None, :, None] * g[2][None, None, :]
    vol += rng.standard_normal(vol.shape, dtype=np.float32) * np.float32(NOISE_SIGMA)
    return vol


def _write_volume(dest: Path, n: int, seed: int, dtype: str, spacing: float) -> dict:
    vol = blob_volume(n, seed)
    if dtype == "u16":
        vol = np.clip(np.rint(vol), 0, 65535).astype("<u2")
    else:
        vol = vol.astype("<f4")
    raw, header, tf = dest / "volume.raw", dest / "volume.json", dest / "tf.json"
    raw.write_bytes(vol.tobytes(order="F"))
    header.write_text(json.dumps(
        {"dims": [n, n, n], "spacing_mm": [spacing] * 3, "dtype": dtype, "endianness": "little"}
    ))
    tf.write_text(json.dumps({"bins": [
        {"lo": lo, "hi": hi, "rgb": list(rgb), "opacity": opacity}
        for lo, hi, (rgb, opacity) in zip(TF_EDGES, TF_EDGES[1:], TF_BINS)
    ]}))
    return {"raw": raw, "header": header, "tf": tf}


def sphere_centres(seed: int) -> list[np.ndarray]:
    """Seed 0 is concentric (the acceptance fixture); other seeds step each
    inner centre by at most SPHERE_OFFSET from the one enclosing it."""
    rng = np.random.default_rng(seed)
    centres = [np.zeros(3)]
    for _ in SPHERE_RADII[1:]:
        step = np.zeros(3)
        if seed != 0:
            d = rng.standard_normal(3)
            step = d / np.linalg.norm(d) * rng.uniform(0.0, SPHERE_OFFSET)
        centres.append(centres[-1] + step)
    return centres


def _write_spheres(dest: Path, seed: int, subdivisions: int) -> tuple[dict, dict]:
    files, spheres = {}, []
    lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
    for i, (r, c) in enumerate(zip(SPHERE_RADII, sphere_centres(seed))):
        mesh = icosphere(radius=r, center=c, subdivisions=subdivisions, name=f"sphere{i}")
        path = dest / f"sphere{i}.obj"
        save_obj(mesh, path)
        files[f"sphere{i}"] = path
        v = mesh.vertices - c
        tri = mesh.vertices[mesh.triangles] - c
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        plane_dist = np.abs(np.einsum("ij,ij->i", normals, tri[:, 0])) / np.linalg.norm(normals, axis=1)
        # a convex polyhedron holds its inscribed ball and lies in its
        # circumscribed one; voxels between the two are exempt from the check
        spheres.append({
            "centre": c.tolist(),
            "r_in": float(plane_dist.min()),
            "r_out": float(np.linalg.norm(v, axis=1).max()),
        })
        lo, hi = np.minimum(lo, mesh.vertices.min(axis=0)), np.maximum(hi, mesh.vertices.max(axis=0))
    return files, {"spheres": spheres, "lo": lo.tolist(), "hi": hi.tolist()}


def prepare(name: str, seed: int, dest: Path, tiny: bool = False) -> dict:
    """Write the inputs of one workload into `dest` and return its spec.

    The spec holds the argument lists of one build (`{out}` stands for the
    build's own fresh directory), the inputs with their sha256, and what the
    output checks need to know about the inputs.
    """
    dest.mkdir(parents=True, exist_ok=True)
    if name == "mesh-spheres":
        files, geometry = _write_spheres(dest, seed, subdivisions=1 if tiny else 3)
        resolution = 16 if tiny else 128
        argvs = [[
            "build", "--meshes", *(str(p) for p in files.values()),
            "--resolution", str(resolution), "--level", "2" if tiny else "3",
            # the default A4, one-sheet build of this input exits 3 (the
            # sheet-assignment defect); README.md discloses the two sheets
            "--page", "A4", "--sheets", "2", "--out", "{out}",
        ]]
        check = {"kind": "spheres", **geometry}
    elif name == "volume-deep":
        files = _write_volume(dest, 16 if tiny else 256, seed, "u16", 0.25)
        argvs = [[
            "build", "--input", str(files["raw"]), "--header", str(files["header"]),
            "--tf", str(files["tf"]), "--level", "2" if tiny else "6",
            "--page", "A3", "--sheets", "1", "--out", "{out}",
        ]]
        check = {"kind": "digitize", "raw": str(files["raw"]), "dtype": "<u2", "edges": TF_EDGES}
    elif name == "staged-print":
        files = _write_volume(dest, 16 if tiny else 128, seed, "f32", 0.5)
        vol = ["--input", str(files["raw"]), "--header", str(files["header"]), "--tf", str(files["tf"])]
        argvs = [
            ["slice", *vol, "--level", "2" if tiny else "5", "--out", "{out}/slices.json"],
            ["hinge", "--in", "{out}/slices.json", "--out", "{out}/hinges.json"],
            ["order", "--in", "{out}/hinges.json", "--out", "{out}/plan.json"],
            ["pack", "--in", "{out}/hinges.json", "--plan", "{out}/plan.json",
             "--page", "A3", "--out", "{out}/layout.json"],
            ["export", "--in", "{out}/layout.json", "--hinges", "{out}/hinges.json",
             "--plan", "{out}/plan.json", *vol, "--dpi", "12", "--out", "{out}/print"],
        ]
        check = {"kind": "digitize", "raw": str(files["raw"]), "dtype": "<f4", "edges": TF_EDGES}
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    export_dir = "{out}/print" if name == "staged-print" else "{out}"
    return {
        "argvs": argvs,
        "export_dir": export_dir,
        "inputs": {k: {"file": Path(p).name, "bytes": Path(p).stat().st_size, "sha256": sha256(Path(p))}
                   for k, p in files.items()},
        "check": check,
    }
