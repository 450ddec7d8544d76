"""Reference computations the benchmark checks protoreg's outputs against.

Nothing here imports protoreg, so a fault in the program cannot hide in the
reference it is compared with. Conventions follow the program's documented
ones: volumes are indexed [x, y, z], displacement fields are (3, nx, ny, nz)
in voxel units of their own grid, sampling outside the grid reads 0, and a
rigid transform maps a physical point p to R (p - c) + c + t with
R = Rz @ Ry @ Rx built from Euler angles (rx, ry, rz).

Run `python3 bench/checks.py` to self-test these functions on hand-built
cases.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.ndimage import map_coordinates


def rotation_matrix(rotation) -> np.ndarray:
    rx, ry, rz = (float(a) for a in rotation)
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rot_y = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_z = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rot_z @ rot_y @ rot_x


def rotation_angle(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Angle in radians of the rotation that takes r_a to r_b."""
    c = (float(np.trace(r_a.T @ r_b)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def voxel_grid(dims) -> np.ndarray:
    """Identity coordinates, shape (3, nx, ny, nz)."""
    return np.stack(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims),
                                indexing="ij"))


def composed_coords(dims, spacing, origin, field=None, rigid=None) -> np.ndarray:
    """Voxel coordinates that each voxel x maps to under x -> T(x + u(x)),
    for a fixed and a moving image on one grid.

    `field` is u in voxels (None for zero); `rigid` is
    (rotation, translation, center) in mm (None for the identity).
    """
    x = voxel_grid(dims)
    if field is not None:
        x = x + np.asarray(field, dtype=np.float64)
    sp = np.asarray(spacing, dtype=np.float64).reshape(3, 1, 1, 1)
    org = np.asarray(origin, dtype=np.float64).reshape(3, 1, 1, 1)
    p = x * sp + org
    if rigid is not None:
        rotation, translation, center = rigid
        c = np.asarray(center, dtype=np.float64).reshape(3, 1, 1, 1)
        t = np.asarray(translation, dtype=np.float64).reshape(3, 1, 1, 1)
        p = np.einsum("ij,jxyz->ixyz", rotation_matrix(rotation), p - c) + c + t
    return (p - org) / sp


def warp(image: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear samples of image at coords, zero outside the grid."""
    out = map_coordinates(np.asarray(image, dtype=np.float64),
                          coords.reshape(3, -1), order=1,
                          mode="grid-constant", cval=0.0, prefilter=False)
    return out.reshape(coords.shape[1:])


def ncc(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """Unweighted NCC over voxels where mask > 0."""
    sel = np.asarray(mask) > 0
    x = np.asarray(a, dtype=np.float64)[sel]
    y = np.asarray(b, dtype=np.float64)[sel]
    x = x - x.mean()
    y = y - y.mean()
    return float((x * y).sum() / math.sqrt(float((x * x).sum() * (y * y).sum())))


def endpoint_error(coords: np.ndarray, truth: np.ndarray, mask: np.ndarray):
    """(mean, p95) of |coords - truth| in voxels over voxels where mask > 0."""
    d = np.asarray(coords, dtype=np.float64) - np.asarray(truth, dtype=np.float64)
    err = np.sqrt((d * d).sum(axis=0))[np.asarray(mask) > 0]
    return float(err.mean()), float(np.percentile(err, 95))


def fold_fraction_pct(coords: np.ndarray) -> float:
    """Percent of interior voxels where the mapping's Jacobian determinant,
    by central differences, is <= 0."""
    y = np.asarray(coords, dtype=np.float64)
    jac = np.empty((3, 3) + tuple(n - 2 for n in y.shape[1:]))
    for j in range(3):
        hi = [slice(1, -1)] * 3
        lo = [slice(1, -1)] * 3
        hi[j] = slice(2, None)
        lo[j] = slice(0, -2)
        for i in range(3):
            jac[i, j] = (y[i][tuple(hi)] - y[i][tuple(lo)]) / 2.0
    det = np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)))
    return 100.0 * float((det <= 0).sum()) / float(det.size)


def nonincreasing(seq) -> bool:
    seq = list(seq)
    return all(b <= a for a, b in zip(seq, seq[1:]))


def read_raw_volume(path: str) -> tuple[np.ndarray, dict]:
    """Read `<path>.json` + `<path>.raw` with numpy alone: little-endian
    float32, x fastest, vector components interleaved per voxel."""
    with open(path + ".json", "r", encoding="utf-8") as f:
        header = json.load(f)
    dims = tuple(int(d) for d in header["dims"])
    flat = np.fromfile(path + ".raw", dtype="<f4")
    if header["components"] == 3:
        return flat.reshape((3,) + dims, order="F").astype(np.float64), header
    return flat.reshape(dims, order="F").astype(np.float64), header


# ---------------------------------------------------------------------------
# self-test

def selftest() -> None:
    """Raise AssertionError unless every reference computation reproduces
    its hand-built case."""
    dims = (6, 5, 4)
    grid = voxel_grid(dims)
    zero = np.zeros((3,) + dims)
    ones = np.ones(dims)

    # identity transform with a zero field: coordinates and EPE exactly 0
    ident = composed_coords(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), field=zero,
                            rigid=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (2.5, 2.0, 1.5)))
    assert np.array_equal(ident, grid)
    assert endpoint_error(ident, grid, ones) == (0.0, 0.0)

    # a pure translation composes exactly to that translation, in voxels
    # (dyadic values keep the float arithmetic exact)
    spacing, origin = (2.0, 1.0, 0.5), (-3.0, 0.5, 8.0)
    shifted = composed_coords(dims, spacing, origin,
                              rigid=((0.0, 0.0, 0.0), (1.0, -2.5, 0.75),
                                     (4.0, 2.0, 9.0)))
    want = grid + np.array([0.5, -2.5, 1.5]).reshape(3, 1, 1, 1)
    assert np.array_equal(shifted, want)
    assert np.allclose(endpoint_error(shifted, grid, ones),
                       math.sqrt(0.25 + 6.25 + 2.25), rtol=1e-15, atol=0.0)

    # the field is applied before the rigid transform
    fld = np.zeros((3,) + dims)
    fld[1] = 0.25
    both = composed_coords(dims, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), field=fld,
                           rigid=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert np.array_equal(both, grid + np.array([0.5, 0.25, 0.0]).reshape(3, 1, 1, 1))

    # Euler order R = Rz Ry Rx and the sense of rotation
    r = rotation_matrix((0.0, 0.0, math.pi / 2))
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
    r = rotation_matrix((math.pi / 2, math.pi / 2, 0.0))
    assert np.allclose(r @ [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], atol=1e-15)
    assert abs(rotation_angle(np.eye(3), rotation_matrix((0.0, 0.003, 0.0)))
               - 0.003) < 1e-9

    # trilinear warping is exact on a linear ramp inside the grid and reads
    # zero-padded values at and beyond the border
    ramp = grid[0] + 2.0 * grid[1] + 3.0 * grid[2] + 1.0
    half = grid.copy()
    half[:, :-1, :-1, :-1] += 0.5
    got = warp(ramp, half)
    assert np.allclose(got[:-1, :-1, :-1], ramp[:-1, :-1, :-1] + 3.0, atol=1e-12)
    edge = np.zeros((3, 1, 1, 1))
    edge[0] = -0.5
    assert warp(ramp, edge)[0, 0, 0] == 0.5 * ramp[0, 0, 0]
    edge[0] = -1.0
    assert warp(ramp, edge)[0, 0, 0] == 0.0

    # NCC: affine copies correlate perfectly, a negated copy anti-correlates
    rng = np.random.default_rng(3)
    a = rng.random(dims)
    mask = rng.random(dims) > 0.3
    assert abs(ncc(a, 2.0 * a + 1.0, mask) - 1.0) < 1e-12
    assert abs(ncc(a, -a, mask) + 1.0) < 1e-12

    # fold fraction: none for the identity, all for a mirror image
    assert fold_fraction_pct(grid) == 0.0
    mirrored = grid.copy()
    mirrored[0] = -mirrored[0]
    assert fold_fraction_pct(mirrored) == 100.0

    # loss trajectories
    assert nonincreasing([3.0, 2.0, 2.0, 1.0]) and not nonincreasing([1.0, 1.5])


if __name__ == "__main__":
    selftest()
    print("checks self-test passed")
