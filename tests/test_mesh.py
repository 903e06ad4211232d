import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import cli
from sliceforge import mesh as mesh_mod
from sliceforge.errors import ValidationError
from sliceforge.mesh import (
    Mesh,
    MeshSet,
    REFERENCE_EXTENT_MM,
    golden_palette,
    load_obj,
    save_obj,
    voxelize_meshes,
)
from sliceforge.synth import icosphere

from synth import nested_spheres, unit_cube


def grid_centers_world(meshes: MeshSet, resolution):
    """Voxel centers in the original (pre-normalization) world frame,
    mirroring the padded-bounds construction."""
    lo, hi = meshes.bounds()
    extent = hi - lo
    extent[extent == 0] = 1.0
    lo = lo - 0.08 * extent
    hi = hi + 0.08 * extent
    spacing = (hi - lo) / np.asarray(resolution, float)
    return tuple(lo[a] + (np.arange(resolution[a]) + 0.5) * spacing[a] for a in range(3))


class TestObjIO:
    def test_round_trip(self, tmp_path):
        mesh = unit_cube()
        path = tmp_path / "cube.obj"
        save_obj(mesh, path)
        loaded = load_obj(path)
        np.testing.assert_allclose(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)

    def test_face_with_texture_normals(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
        mesh = load_obj(path)
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_quad_rejected(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValidationError, match="triangulated"):
            load_obj(path)

    def test_negative_indices_count_back_from_the_last_vertex(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 0 0 1\nf -1 1 -3\n")
        assert load_obj(path).triangles.tolist() == [[0, 1, 2], [3, 0, 1]]

    @pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2 -4", "f -9 1 2", "f 1 2 9", "f 1 2 99999999999999999999"])
    def test_index_naming_no_vertex_rejected(self, tmp_path, capsys, face):
        # index 0 must not alias len(vertices), which is the next vertex
        # the file defines (line 5); a forward index may name that vertex,
        # but none past the file's last one
        path = tmp_path / "m.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\nv 0 0 1\nf 1 2 4\n")
        with pytest.raises(ValidationError, match=rf"m\.obj:4: face index -?\d+ names no vertex"):
            load_obj(path)
        assert cli.main(["build", "--meshes", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err


    @pytest.mark.parametrize("line", ["f 1 2 x", "v 1 0 nan", "v 0 0 1e400"])
    def test_value_that_is_no_finite_number_names_its_line(self, tmp_path, capsys, line):
        path = tmp_path / "m.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\nf 1 2 3\n")
        with pytest.raises(ValidationError, match=r"m\.obj:4: "):
            load_obj(path)
        assert cli.main(["build", "--meshes", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}:4: " in err
        assert "Traceback" not in err


# number spellings float() and int() read differently or not at all
SPELLINGS = ["+1", "1_0", "\u0661", "0x10", "1e400", "-1e400", "nan", "inf", "-0", ".5e1", "99999999999999999999", "/2", "1/"]


@st.composite
def obj_texts(draw):
    """OBJ text whose faces name vertices, then mutated: number spellings,
    bad and extra tokens, i/j/k tails, comments, blank lines and tabs."""
    n = draw(st.integers(1, 6))
    rows, read = [], 0
    for kind in draw(st.permutations(["v"] * n + ["f"] * draw(st.integers(1, 5)))):
        if kind == "v":
            read += 1
            coords = [repr(c) for c in draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))]
            rows.append(["v", *coords, *draw(st.lists(st.sampled_from(["1.0", "0.5", "x"]), max_size=2))])
        else:
            index = st.one_of(st.integers(1, n), st.integers(-read, -1)) if read else st.integers(1, n)
            tail = draw(st.sampled_from(["", "/1", "/2/3", "//4"]))
            rows.append(["f", *(f"{i}{tail}" for i in draw(st.lists(index, min_size=3, max_size=3)))])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        bad = st.one_of(st.sampled_from(SPELLINGS), st.integers(-read - 2, n + 2).map(str))
        if draw(st.booleans()):
            row[draw(st.integers(1, len(row) - 1))] = draw(bad)
        elif draw(st.booleans()):
            row.insert(draw(st.integers(1, len(row))), draw(bad))
        else:
            del row[draw(st.integers(1, len(row) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([["#", "v", "1"], [], ["vn", "0", "0", "1"], ["vt", "0.5"]])))
    sep, lead = draw(st.sampled_from([" ", "\t", "  ", " \t"])), draw(st.sampled_from(["", " ", "\t"]))
    return "".join(lead + sep.join(row) + "\n" for row in rows)


def parse_outcome(parse, path):
    try:
        mesh = parse()
    except ValidationError as exc:
        return str(exc).replace(str(path), "PATH")
    return mesh.vertices.dtype, mesh.vertices.tobytes(), mesh.triangles.dtype, mesh.triangles.tobytes()


class TestObjArrayParse:
    @given(text=obj_texts())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_line_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.obj"
            path.write_text(text)
            got = parse_outcome(lambda: load_obj(path), path)
            want = parse_outcome(lambda: mesh_mod._parse_obj_lines(path, text.splitlines()), path)
        assert got == want

    def test_valid_file_never_parses_line_by_line(self, tmp_path, monkeypatch):
        def line_loop(*_args):
            raise AssertionError("a valid file fell back to the line loop")

        monkeypatch.setattr(mesh_mod, "_parse_obj_lines", line_loop)
        sphere = icosphere(radius=0.7, subdivisions=2)
        save_obj(sphere, tmp_path / "s.obj")
        loaded = load_obj(tmp_path / "s.obj")
        np.testing.assert_allclose(loaded.vertices, sphere.vertices, rtol=1e-8)
        np.testing.assert_array_equal(loaded.triangles, sphere.triangles)
        (tmp_path / "m.obj").write_text("# c\n\tv 0 0 0 1\nf 1/1 2//2 3/3/3\nv 1 0 0\n\nv 0 1 0\nf -3 -2 -1\n")
        assert load_obj(tmp_path / "m.obj").triangles.tolist() == [[0, 1, 2], [0, 1, 2]]
        # as exporters write them: CRLF line ends, comments, object, group,
        # smoothing and material lines, normals, texture coordinates, i/j/k faces
        exported = "\r\n".join([
            "# exporter v2.9 OBJ file \u2014 \u201cunits: m\u201d", "mtllib sphere.mtl", "o Sph\u00e8re", "",
            *(f"v {x:.6f} {y:.6f} {z:.6f}" for x, y, z in sphere.vertices),
            *(f"vt {u:.6f} {u / 2:.6f}" for u in np.linspace(0, 1, len(sphere.vertices))),
            *(f"vn {x:.4f} {y:.4f} {z:.4f}" for x, y, z in sphere.vertices / 0.7),
            "g sphere_body", "usemtl Material.001", "s 1",
            *(" ".join(["f", *(f"{i + 1}/{i + 1}/{i + 1}" for i in t)]) for t in sphere.triangles[:40]),
            "s off", "# back half",
            *(" ".join(["f", *(f"{i + 1}/{i + 1}/{i + 1}" for i in t)]) for t in sphere.triangles[40:]),
        ]) + "\r\n"
        (tmp_path / "exported.obj").write_bytes(exported.encode())
        loaded = load_obj(tmp_path / "exported.obj")
        np.testing.assert_allclose(loaded.vertices, sphere.vertices, atol=1e-6)
        np.testing.assert_array_equal(loaded.triangles, sphere.triangles)

    def test_wide_space_is_every_space_past_ascii(self):
        spaces = [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isspace()]
        assert mesh_mod._WIDE_SPACE.findall("".join(spaces) + "\xe9\u2026\u201c\u00b7") == spaces

    @pytest.mark.parametrize("text,message", [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\nf 1 2 3 1\n", "m.obj:4: only triangulated faces are supported"),
        ("v 0 0\nv 1 0 0 5\nv 0 1 0\nf 1 2 3\n", "m.obj:1: vertex needs 3 coordinates"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf /1 /2 /3\nf 1 2 3\n", "m.obj:4: 'f /1 /2 /3' holds a token"),
    ])
    def test_token_counts_are_checked_per_line(self, tmp_path, text, message):
        # the file's totals are right (six face tokens on two lines, nine
        # coordinates on three, nine leading fields on three face lines);
        # one line is not
        (tmp_path / "m.obj").write_text(text)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_obj(tmp_path / "m.obj")

    @pytest.mark.parametrize("line", [
        *(f"# c{brk}v 0 0 1" for brk in ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]),
        *(f"{space}v 0 0 1" for space in ["\x1f", "\xa0", "\u2003", "\u3000"]),
    ])
    def test_every_line_break_and_space_of_str_counts(self, tmp_path, line):
        # the last vertex follows a line break inside a comment, or a leading
        # space: every one that str.splitlines() or str.split() sees counts
        (tmp_path / "m.obj").write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\nf 1 2 3\n", encoding="utf-8")
        loaded = load_obj(tmp_path / "m.obj")
        assert loaded.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert loaded.triangles.tolist() == [[0, 1, 2]]


class TestVoxelize:
    def test_unit_cube_interior_labeled(self):
        meshes = MeshSet((unit_cube(),))
        volume, tf = voxelize_meshes(meshes, (8, 8, 8))
        centers = grid_centers_world(meshes, (8, 8, 8))
        inside = np.zeros((8, 8, 8), bool)
        for i, x in enumerate(centers[0]):
            for j, y in enumerate(centers[1]):
                for k, z in enumerate(centers[2]):
                    inside[i, j, k] = 0 < x < 1 and 0 < y < 1 and 0 < z < 1
        np.testing.assert_array_equal(volume.scalars > 0, inside)
        # padding guarantees an exterior shell
        assert volume.scalars[0, :, :].max() == 0
        assert volume.scalars[-1, :, :].max() == 0
        assert len(tf.bins) == 1 and tf.bins[0].opacity == 1.0

    def test_two_nested_spheres_analytic_oracle(self):
        meshes = MeshSet(
            (
                icosphere(radius=0.5, subdivisions=3, name="outer"),
                icosphere(radius=0.25, subdivisions=3, name="inner"),
            )
        )
        res = (48, 48, 48)
        volume, tf = voxelize_meshes(meshes, res)
        centers = grid_centers_world(meshes, res)
        gx, gy, gz = np.meshgrid(*centers, indexing="ij")
        r = np.sqrt(gx**2 + gy**2 + gz**2)
        # an icosphere is inscribed in the analytic sphere: exempt a band of
        # its max flatness error (about 1% of r at 3 subdivisions) plus half
        # a voxel of sampling slack
        slack = 0.01 * 0.5 + float(np.max((centers[0][1] - centers[0][0],)))
        expect_inner = r < 0.25 - slack
        expect_outer_shell = (r < 0.5 - slack) & (r > 0.25 + slack)
        expect_outside = r > 0.5 + slack
        assert (volume.scalars[expect_inner] == 2).all()
        assert (volume.scalars[expect_outer_shell] == 1).all()
        assert (volume.scalars[expect_outside] == 0).all()
        # inner structure is more opaque
        assert tf.bins[1].opacity > tf.bins[0].opacity

    def test_four_nested_spheres_bins(self):
        meshes = nested_spheres(subdivisions=2)
        _volume, tf = voxelize_meshes(meshes, (32, 32, 32))
        assert len(tf.bins) == 4
        opacities = [b.opacity for b in tf.bins]
        # innermost mesh (index 3, smallest radius) has the maximal opacity
        assert opacities[3] == max(opacities) == 1.0
        assert opacities == sorted(opacities)
        assert math.isclose(opacities[0], 0.35)

    def test_nested_innermost_wins(self):
        meshes = MeshSet(
            (
                icosphere(radius=0.5, subdivisions=2, name="outer"),
                icosphere(radius=0.25, subdivisions=2, name="inner"),
            )
        )
        volume, _tf = voxelize_meshes(meshes, (16, 16, 16))
        center_voxel = volume.scalars[8, 8, 8]
        assert center_voxel == 2.0

    def test_disjoint_meshes_single_label_per_voxel(self):
        meshes = MeshSet(
            (
                unit_cube(name="a", center=(0.0, 0.0, 0.0)),
                unit_cube(name="b", center=(3.0, 0.0, 0.0)),
            )
        )
        volume, _tf = voxelize_meshes(meshes, (32, 16, 16))
        assert set(np.unique(volume.scalars)) <= {0.0, 1.0, 2.0}

    def test_normalized_extent(self):
        meshes = MeshSet((unit_cube(),))
        volume, _tf = voxelize_meshes(meshes, (8, 8, 8))
        sizes = [volume.dims[a] * volume.spacing[a] for a in range(3)]
        assert math.isclose(max(sizes), REFERENCE_EXTENT_MM)

    def test_degenerate_triangle_warned(self):
        cube = unit_cube()
        vertices = np.vstack([cube.vertices, cube.vertices[0]])
        triangles = np.vstack([cube.triangles, [[0, 0, 8]]])
        bad = Mesh(name="bad", vertices=vertices, triangles=triangles)
        with pytest.warns(UserWarning, match="degenerate"):
            voxelize_meshes(MeshSet((bad,)), (8, 8, 8))

    def test_mesh_count_past_the_labels_of_a_volume(self):
        # 65 535 meshes would need the label 65 535, which quantize reserves
        with pytest.raises(ValidationError, match="65535 meshes are more than the 65 534 labels a volume holds"):
            voxelize_meshes(MeshSet((unit_cube(),) * 0xFFFF), (8, 8, 8))

    def test_resolution_floor(self):
        with pytest.raises(ValidationError, match="resolution"):
            voxelize_meshes(MeshSet((unit_cube(),)), (4, 8, 8))

    def test_empty_meshset_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            MeshSet(())


class TestPalette:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 13, 14, 22, 32])
    def test_hue_separation_invariant(self, n):
        import colorsys

        colors = golden_palette(n)
        hues = [colorsys.rgb_to_hsv(*c)[0] for c in colors]
        assert len(set(colors)) == n
        if n == 1:
            return
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(hues[i] - hues[j])
                d = min(d, 1.0 - d)
                assert d >= 1.0 / (2 * n) - 1e-9

    def test_small_n_matches_golden_formula(self):
        import colorsys

        hues = [colorsys.rgb_to_hsv(*c)[0] for c in golden_palette(4)]
        for i, h in enumerate(hues):
            assert math.isclose(h, (i * 0.618) % 1.0, abs_tol=1e-9)
