"""Independent brute-force oracles used to freeze expected values.

Everything here is written as plain loops / all-pairs enumeration on
purpose: the oracles must not share code paths with the implementations
they check.
"""
import numpy as np
from scipy.ndimage import distance_transform_edt


def trilinear(arr, p):
    """Scalar trilinear interpolation with zero outside the grid."""
    x, y, z = p
    x0, y0, z0 = int(np.floor(x)), int(np.floor(y)), int(np.floor(z))
    fx, fy, fz = x - x0, y - y0, z - z0
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                ix, iy, iz = x0 + dx, y0 + dy, z0 + dz
                if 0 <= ix < arr.shape[0] and 0 <= iy < arr.shape[1] \
                        and 0 <= iz < arr.shape[2]:
                    v = float(arr[ix, iy, iz])
                else:
                    v = 0.0
                w = (fx if dx else 1 - fx) * (fy if dy else 1 - fy) \
                    * (fz if dz else 1 - fz)
                total += w * v
    return total


def trilinear_arrays(arr, x, y, z, want_grad=False):
    """Vectorized trilinear interpolation with zero outside the grid: each
    corner is fetched through an inside mask, in the corner order and with
    the accumulation the program's sampler must reproduce bit for bit."""
    def gather(ix, iy, iz):
        nx, ny, nz = arr.shape
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny) & (iz >= 0) & (iz < nz)
        out = np.zeros(ix.shape, dtype=np.float64)
        out[inside] = arr[ix[inside], iy[inside], iz[inside]]
        return out

    x, y, z = (np.asarray(c, dtype=np.float64) for c in (x, y, z))
    x0, y0, z0 = (np.floor(c).astype(np.int64) for c in (x, y, z))
    fx, fy, fz = x - x0, y - y0, z - z0
    val = np.zeros(x.shape)
    gx, gy, gz = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    for dx in (0, 1):
        wx, sx = (fx, 1.0) if dx else (1.0 - fx, -1.0)
        for dy in (0, 1):
            wy, sy = (fy, 1.0) if dy else (1.0 - fy, -1.0)
            for dz in (0, 1):
                wz, sz = (fz, 1.0) if dz else (1.0 - fz, -1.0)
                c = gather(x0 + dx, y0 + dy, z0 + dz)
                val += wx * wy * wz * c
                gx += sx * wy * wz * c
                gy += wx * sy * wz * c
                gz += wx * wy * sz * c
    return (val, gx, gy, gz) if want_grad else val


def warp(arr, u):
    out = np.zeros(arr.shape)
    for idx in np.ndindex(*arr.shape):
        p = [idx[a] + u[a][idx] for a in range(3)]
        out[idx] = trilinear(arr, p)
    return out


def downsample_avg(arr):
    dims = tuple((n + 1) // 2 for n in arr.shape)
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        block = arr[2 * idx[0]:2 * idx[0] + 2,
                    2 * idx[1]:2 * idx[1] + 2,
                    2 * idx[2]:2 * idx[2] + 2]
        out[idx] = block.mean()
    return out


def downsample_avg_reduceat(arr):
    """Factor-2 average pooling as the program once did it, frozen as a bit
    reference: widen to float64, then per axis x, y, z sum each pair (and
    a trailing odd plane alone) with np.add.reduceat and divide by the
    counts; rounded to float32."""
    out = np.asarray(arr).astype(np.float64)
    for axis in range(3):
        n = out.shape[axis]
        starts = np.arange(0, n, 2)
        sums = np.add.reduceat(out, starts, axis=axis)
        counts = np.minimum(starts + 2, n) - starts
        shape = [1] * out.ndim
        shape[axis] = len(starts)
        out = sums / counts.reshape(shape)
    return out.astype(np.float32)


def masked_ncc(a, b, w):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    wsum = sum(w)
    mu_a = sum(w * a) / wsum
    mu_b = sum(w * b) / wsum
    num = sum(w * (a - mu_a) * (b - mu_b))
    da = sum(w * (a - mu_a) ** 2)
    db = sum(w * (b - mu_b) ** 2)
    if da < 1e-12 or db < 1e-12:
        return 0.0
    return num / np.sqrt(da * db)


def smoothness(u):
    total = 0.0
    nx, ny, nz = u.shape[1:]
    for c in range(3):
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    if x + 1 < nx:
                        total += (u[c, x + 1, y, z] - u[c, x, y, z]) ** 2
                    if y + 1 < ny:
                        total += (u[c, x, y + 1, z] - u[c, x, y, z]) ** 2
                    if z + 1 < nz:
                        total += (u[c, x, y, z + 1] - u[c, x, y, z]) ** 2
    return total / (nx * ny * nz)


def smoothness_two_pass(u):
    """The forward-difference energy and its adjoint 2/N * (D^T D) u, each
    from its own pass over the nine differences: the order of every sum
    and update that a fused pass must reproduce bit for bit."""
    n = float(np.prod(u.shape[1:]))
    total = 0.0
    for c in range(3):
        for ax in range(3):
            d = np.diff(u[c], axis=ax)
            total += float((d * d).sum())
    grad = np.zeros_like(u)
    for c in range(3):
        for ax in range(3):
            d = np.diff(u[c], axis=ax)
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[ax] = slice(0, -1)
            hi[ax] = slice(1, None)
            grad[c][tuple(lo)] -= d
            grad[c][tuple(hi)] += d
    return total / n, (2.0 / n) * grad


def signed_distance(mask, spacing):
    """All-pairs signed distance: each voxel to the nearest voxel center of
    the opposite phase, negative inside."""
    mask = np.asarray(mask, dtype=bool)
    coords = np.argwhere(np.ones(mask.shape, dtype=bool)).astype(np.float64)
    coords *= np.asarray(spacing)
    flat = mask.ravel()
    inside_pts = coords[flat]
    outside_pts = coords[~flat]
    out = np.zeros(mask.size)
    for i, p in enumerate(coords):
        if flat[i]:
            d = np.sqrt(((outside_pts - p) ** 2).sum(axis=1)).min()
            out[i] = -d
        else:
            d = np.sqrt(((inside_pts - p) ** 2).sum(axis=1)).min()
            out[i] = d
    return out.reshape(mask.shape)


def signed_distance_whole_grid(mask, spacing):
    """The program's signed distance as it once was, frozen as a bit
    reference: each side's exact EDT over the whole grid, outside minus
    inside, rounded to float32."""
    inside = np.asarray(mask) > 0.5
    return (distance_transform_edt(~inside, sampling=spacing)
            - distance_transform_edt(inside, sampling=spacing)).astype(np.float32)


def anatomy_map(ctv, oar_union, spacing, sigma, band, w_prox, w_band, w_oar):
    sdf = signed_distance(ctv, spacing)
    out = np.zeros(ctv.shape)
    for idx in np.ndindex(*ctv.shape):
        d = sdf[idx]
        prox = np.exp(-max(d, 0.0) ** 2 / (2 * sigma ** 2))
        bnd = 1.0 if abs(d) <= band else 0.0
        val = w_prox * prox + w_band * bnd + w_oar * oar_union[idx]
        out[idx] = min(max(val, 0.0), 1.0)
    return out


def risk_map(dose, oar_union, spacing, w_grad, w_iso, w_doseoar, iso_frac):
    dn = np.asarray(dose, dtype=np.float64) / dose.max()
    nx, ny, nz = dn.shape

    def deriv(axis, idx):
        i = idx[axis]
        n = dn.shape[axis]
        lo = list(idx)
        hi = list(idx)
        if i == 0:
            hi[axis] = 1
            return (dn[tuple(hi)] - dn[idx]) / spacing[axis]
        if i == n - 1:
            lo[axis] = n - 2
            return (dn[idx] - dn[tuple(lo)]) / spacing[axis]
        lo[axis] = i - 1
        hi[axis] = i + 1
        return (dn[tuple(hi)] - dn[tuple(lo)]) / (2 * spacing[axis])

    g = np.zeros(dn.shape)
    for idx in np.ndindex(nx, ny, nz):
        g[idx] = np.sqrt(sum(deriv(a, idx) ** 2 for a in range(3)))
    if g.max() > 0:
        g = g / g.max()
    out = np.zeros(dn.shape)
    for idx in np.ndindex(nx, ny, nz):
        iso = 1.0 if dn[idx] >= iso_frac else 0.0
        val = w_grad * g[idx] + w_iso * iso + w_doseoar * dn[idx] * oar_union[idx]
        out[idx] = min(max(val, 0.0), 1.0)
    return out


def mse(a, b, mask):
    vals = [(float(a[idx]) - float(b[idx])) ** 2
            for idx in np.ndindex(*a.shape) if mask[idx]]
    return sum(vals) / len(vals)


def ssim(a, b, mask, window=7, k1=0.01, k2=0.03):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = np.asarray(mask) > 0
    dyn = a[m].max() - a[m].min()
    c1 = (k1 * dyn) ** 2
    c2 = (k2 * dyn) ** 2
    half = window // 2
    vals = []
    for idx in np.ndindex(*a.shape):
        if not m[idx]:
            continue
        sl = tuple(slice(max(i - half, 0), min(i + half + 1, n))
                   for i, n in zip(idx, a.shape))
        wa = a[sl].ravel()
        wb = b[sl].ravel()
        mu_a, mu_b = wa.mean(), wb.mean()
        va = ((wa - mu_a) ** 2).mean()
        vb = ((wb - mu_b) ** 2).mean()
        cov = ((wa - mu_a) * (wb - mu_b)).mean()
        vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def relvoldiff(ref, prop, spacing_ref, spacing_prop):
    v_ref = int(np.count_nonzero(ref)) * spacing_ref[0] * spacing_ref[1] * spacing_ref[2]
    v_prop = int(np.count_nonzero(prop)) * spacing_prop[0] * spacing_prop[1] * spacing_prop[2]
    return 100.0 * abs(v_ref - v_prop) / v_ref


def jacobian_det_fd(u):
    """Explicit finite-difference Jacobian matrix per voxel."""
    dims = u.shape[1:]
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        J = np.eye(3)
        for i in range(3):
            for j in range(3):
                n = dims[j]
                k = idx[j]
                lo = list(idx)
                hi = list(idx)
                if k == 0:
                    hi[j] = 1
                    d = u[i][tuple(hi)] - u[i][idx]
                elif k == n - 1:
                    lo[j] = n - 2
                    d = u[i][idx] - u[i][tuple(lo)]
                else:
                    lo[j] = k - 1
                    hi[j] = k + 1
                    d = (u[i][tuple(hi)] - u[i][tuple(lo)]) / 2.0
                J[i, j] += d
        out[idx] = np.linalg.det(J)
    return out
