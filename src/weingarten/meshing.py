"""OBJ export for surfaces of revolution.

The profile curve (rho(theta), h(theta)) is revolved about the +z axis
with a fixed angular segment count.  Normals come straight from the
Gauss angle: n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)).
Ends where |rho| falls below the pole tolerance are capped with a pole
vertex and a triangle fan, which makes closed profiles watertight
(Euler characteristic 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ProfileCurve3D
from .profile_io import _atomic_write_text

__all__ = ["RevolvedMesh", "revolve_profile", "export_obj", "mesh_stats"]

POLE_RHO_TOL = 1e-5


@dataclass
class RevolvedMesh:
    """Vertices and vertex normals, each ``(V, 3)``; ``faces`` is an
    ``(F, 3)`` int64 array of 0-based vertex indices, one triangle per row."""

    vertices: np.ndarray
    normals: np.ndarray
    faces: np.ndarray
    skipped_rows: int = 0


def revolve_profile(curve: ProfileCurve3D, segments: int) -> RevolvedMesh:
    """Triangulated surface of revolution from a cylindrical profile curve.

    Ring i holds vertices ``i*segments .. i*segments + segments - 1``; the
    quad between rings i and i+1 at segment j is split into the triangles
    (a+j, b+j, b+jn) and (a+j, b+jn, a+jn), rows in ring order, followed
    by the north and the south cap fans.
    """
    if segments < 3:
        raise ValueError("need at least 3 angular segments")
    grid = curve.grid
    rho = np.asarray(curve.rho, dtype=float)
    h = np.asarray(curve.h, dtype=float)
    finite = np.isfinite(rho) & np.isfinite(h) & np.isfinite(grid)
    skipped = int(np.sum(~finite))
    grid, rho, h = grid[finite], rho[finite], h[finite]
    if len(grid) < 2:
        raise ValueError("profile has fewer than two finite samples")

    # interior rows exclude degenerate (on-axis) samples
    interior = np.abs(rho) > POLE_RHO_TOL
    first, last = int(np.argmax(interior)), len(grid) - 1 - int(np.argmax(interior[::-1]))
    cap_north = first > 0 or np.abs(rho[0]) <= POLE_RHO_TOL
    cap_south = last < len(grid) - 1 or np.abs(rho[-1]) <= POLE_RHO_TOL
    grid_i, rho_i, h_i = grid[first:last + 1], rho[first:last + 1], h[first:last + 1]
    n_rows = len(grid_i)
    if n_rows < 2:
        raise ValueError("profile collapses to the axis everywhere")

    phi = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    # per-row sin/cos through libm, so the written digits do not depend on
    # numpy's vectorised transcendental kernels
    st = np.fromiter(map(math.sin, grid_i), float, n_rows)[:, None]
    ct = np.fromiter(map(math.cos, grid_i), float, n_rows)[:, None]

    shape = (n_rows, segments)
    verts = np.stack([rho_i[:, None] * cos_p, rho_i[:, None] * sin_p,
                      np.broadcast_to(h_i[:, None], shape)], axis=-1).reshape(-1, 3)
    norms = np.stack([st * cos_p, st * sin_p,
                      np.broadcast_to(ct, shape)], axis=-1).reshape(-1, 3)

    j = np.arange(segments)
    jn = (j + 1) % segments
    a0 = np.arange(n_rows - 1)[:, None] * segments
    b0 = a0 + segments
    faces = [np.stack([a0 + j, b0 + j, b0 + jn, a0 + j, b0 + jn, a0 + jn],
                      axis=-1).reshape(-1, 3)]

    extra_v = []
    extra_n = []
    if cap_north:
        # pole vertex on the axis, fan to the first ring
        hp = h[0] if np.abs(rho[0]) <= POLE_RHO_TOL else h_i[0]
        idx = n_rows * segments + len(extra_v)
        extra_v.append((0.0, 0.0, hp))
        extra_n.append((0.0, 0.0, math.cos(grid[0])))
        faces.append(np.stack([np.full(segments, idx), j, jn], axis=-1))
    if cap_south:
        hp = h[-1] if np.abs(rho[-1]) <= POLE_RHO_TOL else h_i[-1]
        idx = n_rows * segments + len(extra_v)
        extra_v.append((0.0, 0.0, hp))
        extra_n.append((0.0, 0.0, math.cos(grid[-1])))
        a_last = (n_rows - 1) * segments
        faces.append(np.stack([np.full(segments, idx), a_last + jn, a_last + j], axis=-1))
    if extra_v:
        verts = np.vstack([verts, np.asarray(extra_v)])
        norms = np.vstack([norms, np.asarray(extra_n)])
    return RevolvedMesh(verts, norms, np.concatenate(faces).astype(np.int64, copy=False),
                        skipped_rows=skipped)


def _g17_lines(prefix: str, values: np.ndarray) -> str:
    """``prefix x y z`` lines at ``%.17g``, formatting each distinct |x| once; the
    sign bit takes the ``-`` copy (``-0``, ``-inf``), except on NaN (``nan``)."""
    flat = np.asarray(values, dtype=float).ravel()
    mags, inverse = np.unique(np.abs(flat), return_inverse=True)
    table = ("%.17g\n" * len(mags) % tuple(mags.tolist())).split("\n")[:-1]
    table = np.array(table + ["-" + t for t in table], dtype=object)
    tokens = table[inverse + len(mags) * (np.signbit(flat) & ~np.isnan(flat))]
    return (f"{prefix} %s %s %s\n" * (len(flat) // 3)) % tuple(tokens.tolist())


def export_obj(path: str, mesh: RevolvedMesh, comment: str = "") -> None:
    """Write the mesh as Wavefront OBJ, atomically, one section at a time.

    Coordinates and normals carry 17 significant digits; faces are
    1-based ``f a//a b//b c//c`` (vertex//normal, same index).
    """
    header = "# weingarten surface of revolution (axis +z)\n"
    if comment:
        header += f"# {comment}\n"
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3)

    def sections():
        yield header
        yield _g17_lines("v", mesh.vertices)
        yield _g17_lines("vn", mesh.normals)
        # format each "k//k" corner once per vertex, not once per face corner
        corners = np.array([f"{k}//{k}" for k in range(1, len(mesh.vertices) + 1)], dtype=object)
        yield ("f %s %s %s\n" * len(faces)) % tuple(corners[faces].ravel().tolist())

    _atomic_write_text(path, sections())


def mesh_stats(mesh: RevolvedMesh) -> dict:
    """Vertex/edge/face counts, Euler characteristic, boundary structure."""
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3)
    n = int(faces.max()) + 1 if faces.size else 0
    # each undirected edge as one key min*n + max; sorted runs count its faces
    nxt = faces[:, [1, 2, 0]]
    keys = np.sort(np.minimum(faces, nxt) * n + np.maximum(faces, nxt), axis=None)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=len(keys))
    used = np.zeros(n, dtype=bool)
    used[faces.ravel()] = True
    V = int(np.count_nonzero(used))
    E = len(counts)
    F = len(faces)
    boundary_edges = int(np.count_nonzero(counts == 1))
    nonmanifold = int(np.count_nonzero(counts > 2))
    return {
        "V": V, "E": E, "F": F,
        "euler_characteristic": V - E + F,
        "boundary_edges": boundary_edges,
        "nonmanifold_edges": nonmanifold,
        "watertight": boundary_edges == 0 and nonmanifold == 0,
    }
