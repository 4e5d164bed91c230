import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weingarten import (
    LinearHopf,
    PureKLinear,
    cm_residual,
    embed_profile,
    integrate_cm,
    mesh_stats,
    read_profile_csv,
    revolve_profile,
    write_profile_csv,
)
from weingarten.expressions import ParseError
from weingarten.geometry import ProfileCurve3D
from weingarten import profile_io
from weingarten.meshing import RevolvedMesh, export_obj
from weingarten.profile_io import COLUMNS, ProfileBundle


@pytest.fixture(scope="module")
def sphere_bundle():
    prof = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.0,
                        (1e-6, math.pi - 1e-6))
    emb = embed_profile(prof, h_anchor=float(np.cos(prof.grid[0])))
    return ProfileBundle.from_parts(prof, emb, metadata={"relation": "k2 = 1*k1"})


class TestCsvRoundTrip:
    def test_values_survive(self, tmp_path, sphere_bundle):
        path = os.path.join(tmp_path, "sphere.csv")
        write_profile_csv(path, sphere_bundle)
        back = read_profile_csv(path)
        for name in ("theta", "r", "r1", "r2", "rho", "h"):
            a = getattr(sphere_bundle, name)
            b = getattr(back, name)
            assert np.allclose(a, b, atol=0, rtol=0, equal_nan=True), name
        assert back.metadata["relation"] == "k2 = 1*k1"

    def test_seventeen_digits(self, tmp_path, sphere_bundle):
        path = os.path.join(tmp_path, "sphere.csv")
        write_profile_csv(path, sphere_bundle)
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")][2:5]
        # 1/3-like values keep their full precision
        assert any(len(tok.split(".")[-1]) >= 15 for ln in lines
                   for tok in ln.strip().split(",") if "." in tok)

    def test_infinities_survive(self, tmp_path):
        grid = np.linspace(0.5, 1.0, 8)
        bundle = ProfileBundle(grid, np.ones(8), np.ones(8),
                               np.full(8, np.inf), np.ones(8), np.ones(8), {})
        path = os.path.join(tmp_path, "flat.csv")
        write_profile_csv(path, bundle)
        back = read_profile_csv(path)
        assert np.all(np.isinf(back.r2))

    def test_reading_profile_back_as_rocprofile(self, tmp_path, sphere_bundle):
        path = os.path.join(tmp_path, "sphere.csv")
        write_profile_csv(path, sphere_bundle)
        prof = read_profile_csv(path).roc_profile()
        res = cm_residual(prof.restricted(0.05, math.pi - 0.05))
        assert np.max(np.abs(res)) <= 1e-8

    def test_round_trip_carries_relation(self, tmp_path, sphere_bundle):
        path = os.path.join(tmp_path, "sphere.csv")
        write_profile_csv(path, sphere_bundle)
        assert read_profile_csv(path).roc_profile().relation == PureKLinear(1.0)

    @pytest.mark.parametrize("text", ["r2 == r1", "r1 = k1"])
    def test_unparsable_relation_loads_without_relation(self, tmp_path, sphere_bundle, text):
        path = os.path.join(tmp_path, "sphere.csv")
        write_profile_csv(path, dataclasses.replace(sphere_bundle, metadata={"relation": text}))
        bundle = read_profile_csv(path)
        assert bundle.metadata["relation"] == text
        assert bundle.roc_profile().relation is None

    def test_unexpected_parse_failure_propagates(self, monkeypatch, sphere_bundle):
        def broken(text):
            raise TypeError("not a parse failure")

        monkeypatch.setattr(profile_io, "parse_relation", broken)
        with pytest.raises(TypeError):
            sphere_bundle.roc_profile()

    def test_empty_file_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "empty.csv")
        with open(path, "w") as fh:
            fh.write("# weingarten profile\ntheta,r,r1,r2,rho,h\n")
        with pytest.raises(ValueError):
            read_profile_csv(path)


class TestMesh:
    def test_closed_sphere_watertight(self, sphere_bundle):
        curve = ProfileCurve3D(sphere_bundle.theta, sphere_bundle.rho, sphere_bundle.h)
        mesh = revolve_profile(curve, 64)
        stats = mesh_stats(mesh)
        assert stats["watertight"]
        assert stats["euler_characteristic"] == 2

    def test_open_profile_has_two_boundary_loops(self):
        prof = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0, (0.5, 2.2))
        emb = embed_profile(prof)
        mesh = revolve_profile(emb, 32)
        stats = mesh_stats(mesh)
        assert not stats["watertight"]
        assert stats["boundary_edges"] == 2 * 32
        assert stats["euler_characteristic"] == 0  # an annulus

    def test_vertex_normals_unit_and_gauss_aligned(self, sphere_bundle):
        curve = ProfileCurve3D(sphere_bundle.theta, sphere_bundle.rho, sphere_bundle.h)
        mesh = revolve_profile(curve, 16)
        norms = np.linalg.norm(mesh.normals, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        # z-components are cos(theta) per ring
        assert mesh.normals[0, 2] == pytest.approx(math.cos(sphere_bundle.theta[1]), abs=1e-2)

    def test_too_few_segments_rejected(self, sphere_bundle):
        curve = ProfileCurve3D(sphere_bundle.theta, sphere_bundle.rho, sphere_bundle.h)
        with pytest.raises(ValueError):
            revolve_profile(curve, 2)

    def test_nonfinite_rows_skipped(self):
        grid = np.linspace(0.4, 1.2, 6)
        rho = np.array([0.5, 0.6, np.nan, 0.8, 0.9, 1.0])
        h = np.linspace(0.0, 1.0, 6)
        mesh = revolve_profile(ProfileCurve3D(grid, rho, h), 8)
        assert mesh.skipped_rows == 1


# ---------------------------------------------------------------------------
# array-at-a-time meshing against the per-element reference it replaced


def loop_faces(n_rows, segments, cap_north, cap_south):
    """Face list in the order of the per-row, per-segment loop."""
    faces = []
    for i in range(n_rows - 1):
        a0, b0 = i * segments, (i + 1) * segments
        for j in range(segments):
            jn = (j + 1) % segments
            faces.append((a0 + j, b0 + j, b0 + jn))
            faces.append((a0 + j, b0 + jn, a0 + jn))
    idx = n_rows * segments
    if cap_north:
        faces += [(idx, j, (j + 1) % segments) for j in range(segments)]
        idx += 1
    if cap_south:
        a0 = (n_rows - 1) * segments
        faces += [(idx, a0 + (j + 1) % segments, a0 + j) for j in range(segments)]
    return faces


def six_row_curve(caps: bool) -> ProfileCurve3D:
    grid = np.linspace(0.3, 2.7, 6)
    rho = np.sin(grid) / 3.0
    if caps:
        rho[0] = rho[-1] = 0.0
    return ProfileCurve3D(grid, rho, np.cos(grid) / 7.0)


def brute_force_stats(faces) -> dict:
    edges: dict[tuple[int, int], int] = {}
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    V = len({i for f in faces for i in f})
    boundary = sum(1 for c in edges.values() if c == 1)
    nonmanifold = sum(1 for c in edges.values() if c > 2)
    return {"V": V, "E": len(edges), "F": len(faces),
            "euler_characteristic": V - len(edges) + len(faces),
            "boundary_edges": boundary, "nonmanifold_edges": nonmanifold,
            "watertight": boundary == 0 and nonmanifold == 0}


class TestArrayMeshing:
    @pytest.mark.parametrize("segments", [3, 8])
    @pytest.mark.parametrize("caps", [False, True])
    def test_face_order_matches_loop(self, segments, caps):
        mesh = revolve_profile(six_row_curve(caps), segments)
        n_rows = 4 if caps else 6
        want = np.array(loop_faces(n_rows, segments, caps, caps))
        assert mesh.faces.shape == (len(want), 3)
        assert np.issubdtype(mesh.faces.dtype, np.integer)
        assert np.array_equal(mesh.faces, want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 7).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True),
        min_size=1, max_size=24)))
    @example([[0, 1, 2]])                                # three boundary edges
    @example([[0, 1, 2], [1, 0, 3], [0, 1, 4], [2, 3, 4]])   # edge (0, 1) in three faces
    def test_stats_match_dict_of_edges(self, faces):
        mesh = RevolvedMesh(np.zeros((8, 3)), np.zeros((8, 3)), np.array(faces))
        assert mesh_stats(mesh) == brute_force_stats(faces)

    def test_stats_of_no_faces(self):
        mesh = RevolvedMesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert mesh_stats(mesh) == brute_force_stats([])

    def test_obj_text_matches_per_line_writer(self, tmp_path):
        mesh = revolve_profile(six_row_curve(caps=True), 5)
        lines = ["# weingarten surface of revolution (axis +z)", "# golden"]
        for v in mesh.vertices:
            lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
        for n in mesh.normals:
            lines.append(f"vn {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}")
        for f in mesh.faces:
            a, b, c = (int(i) + 1 for i in f)
            lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
        path = os.path.join(tmp_path, "golden.obj")
        export_obj(path, mesh, comment="golden")
        with open(path) as fh:
            assert fh.read() == "\n".join(lines) + "\n"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


# ---------------------------------------------------------------------------
# array-at-a-time text writers against per-value references


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 / 3.0,
                  -1.0 / 3.0, 1e16, -1e-5, math.inf, -math.inf, math.nan, -math.nan]
any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))


@st.composite
def value_arrays(draw, rows: st.SearchStrategy, cols: int) -> np.ndarray:
    """A ``(rows, cols)`` array drawn from a small pool, so values repeat."""
    pool = np.array(draw(st.lists(any_float, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pool[rng.integers(0, len(pool), size=(draw(rows), cols))]


def per_line_obj(mesh: RevolvedMesh, comment: str) -> str:
    lines = ["# weingarten surface of revolution (axis +z)", f"# {comment}"]
    lines += [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"vn {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}" for n in mesh.normals]
    for f in mesh.faces:
        a, b, c = (int(i) + 1 for i in f)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    return "\n".join(lines) + "\n"


def per_row_csv(bundle: ProfileBundle) -> str:
    lines = ["# weingarten profile", "# schema: 1"]
    lines += [f"# {k}: {bundle.metadata[k]}" for k in sorted(bundle.metadata)]
    lines.append("theta,r,r1,r2,rho,h")
    cols = [bundle.theta, bundle.r, bundle.r1, bundle.r2, bundle.rho, bundle.h]
    lines += [",".join(format(x, ".17g") for x in row) for row in zip(*cols)]
    return "\n".join(lines) + "\n"


block_rows = profile_io.CSV_BLOCK_ROWS
csv_rows = st.one_of(st.integers(0, 12), st.sampled_from(
    [block_rows - 1, block_rows, block_rows + 1, 2 * block_rows + 3]))


def bundle_of(values: np.ndarray) -> ProfileBundle:
    return ProfileBundle(*values.T.copy(), metadata={"relation": "r2 = 2*r1"})


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


@st.composite
def meshes(draw) -> RevolvedMesh:
    values = draw(value_arrays(st.integers(0, 10), 6))
    n = len(values)
    corner = st.integers(0, max(n - 1, 0))
    faces = draw(st.lists(st.tuples(corner, corner, corner), max_size=8 if n else 0))
    return RevolvedMesh(values[:, :3], values[:, 3:],
                        np.array(faces, dtype=np.int64).reshape(-1, 3))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("writers"))


class TestStreamedWriters:
    @settings(max_examples=150, deadline=None)
    @given(meshes())
    @example(RevolvedMesh(np.array([[0.0, -0.0, math.nan], [-math.nan, math.inf, -math.inf]]),
                          np.array([[5e-324, -5e-324, 1.0], [-1.0, 1.0, 0.0]]),
                          np.array([[0, 1, 1]])))
    def test_obj_matches_per_line_writer(self, out_dir, mesh):
        path = os.path.join(out_dir, "prop.obj")
        export_obj(path, mesh, comment="prop")
        with open(path) as fh:
            assert fh.read() == per_line_obj(mesh, "prop")

    @settings(max_examples=40, deadline=None)
    @given(value_arrays(csv_rows, 6))
    def test_csv_matches_per_row_writer(self, out_dir, values):
        bundle = bundle_of(values)
        path = os.path.join(out_dir, "prop.csv")
        write_profile_csv(path, bundle)
        with open(path) as fh:
            assert fh.read() == per_row_csv(bundle)

    @settings(max_examples=40, deadline=None)
    @given(value_arrays(csv_rows.filter(bool), 6))
    def test_csv_round_trip_is_bit_exact(self, out_dir, values):
        bundle = bundle_of(values)
        path = os.path.join(out_dir, "prop.csv")
        write_profile_csv(path, bundle)
        back = read_profile_csv(path)
        for name in COLUMNS:
            assert_same_bits(getattr(bundle, name), getattr(back, name))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_stream_leaves_target_alone(self, tmp_path, existing):
        path = os.path.join(tmp_path, "out.txt")
        if existing:
            with open(path, "w") as fh:
                fh.write("old bytes\n")

        def parts():
            yield "new "
            yield "bytes\n" * 10_000
            raise RuntimeError("formatting failed partway")

        with pytest.raises(RuntimeError, match="partway"):
            profile_io._atomic_write_text(path, parts())
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        if existing:
            with open(path) as fh:
                assert fh.read() == "old bytes\n"
        else:
            assert not os.path.exists(path)

    def test_streamed_parts_are_concatenated(self, tmp_path):
        path = os.path.join(tmp_path, "out.txt")
        profile_io._atomic_write_text(path, iter(["a", "", "bc\n"]))
        with open(path) as fh:
            assert fh.read() == "abc\n"


class TestCsvRows:
    @pytest.mark.parametrize("row, fields", [("1,2,3,4,5", 5), ("1,2,3,4,5,6,7", 7)])
    def test_wrong_field_count_names_the_line(self, tmp_path, row, fields):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(f"# weingarten profile\ntheta,r,r1,r2,rho,h\n1,2,3,4,5,6\n{row}\n")
        with pytest.raises(ParseError, match=f"line 4 has {fields} fields, expected 6"):
            read_profile_csv(path)
