from dataclasses import replace

import numpy as np
import pytest

import protoreg as pr
from protoreg.errors import ValidationError

import oracles
from conftest import random_volume, lattice_safe_field


def _full_mask(dims):
    return pr.Volume(np.ones(dims, dtype=np.float32))


class TestMse:
    def test_identical(self, rng):
        a = random_volume(rng, (5, 5, 5))
        assert pr.mse(a, a, _full_mask((5, 5, 5))) == 0.0

    def test_constant_offset(self, rng):
        a = random_volume(rng, (5, 5, 5))
        b = a.with_data(a.data + 0.5)
        assert pr.mse(a, b, _full_mask((5, 5, 5))) == pytest.approx(0.25, rel=1e-5)

    def test_matches_oracle(self, rng):
        a = random_volume(rng, (5, 5, 5))
        b = random_volume(rng, (5, 5, 5))
        m = pr.Volume((rng.random((5, 5, 5)) > 0.4).astype(np.float32))
        assert pr.mse(a, b, m) == pytest.approx(
            oracles.mse(a.data, b.data, m.data), abs=1e-9)

    def test_empty_mask_rejected(self, rng):
        a = random_volume(rng, (4, 4, 4))
        with pytest.raises(ValidationError):
            pr.mse(a, a, pr.Volume(np.zeros((4, 4, 4), dtype=np.float32)))


class TestSsim:
    def test_identical_nonconstant_is_one(self, rng):
        a = random_volume(rng, (9, 9, 9))
        assert pr.ssim(a, a, _full_mask((9, 9, 9))) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric(self, rng):
        a = random_volume(rng, (9, 9, 9))
        b = random_volume(rng, (9, 9, 9))
        m = _full_mask((9, 9, 9))
        # dynamic range comes from the first argument, so fix it by using
        # images with the same masked range
        b = b.with_data((b.data - b.data.min())
                        / (b.data.max() - b.data.min())
                        * (a.data.max() - a.data.min()) + a.data.min())
        assert pr.ssim(a, b, m) == pytest.approx(pr.ssim(b, a, m), abs=1e-7)

    def test_matches_windowed_oracle(self, rng):
        a = random_volume(rng, (9, 9, 9))
        b = random_volume(rng, (9, 9, 9))
        m = pr.Volume((rng.random((9, 9, 9)) > 0.3).astype(np.float32))
        assert pr.ssim(a, b, m) == pytest.approx(
            oracles.ssim(a.data, b.data, m.data), abs=1e-6)

    def test_bounded_by_one(self, rng):
        for _ in range(5):
            a = random_volume(rng, (8, 8, 8))
            b = random_volume(rng, (8, 8, 8))
            assert abs(pr.ssim(a, b, _full_mask((8, 8, 8)))) <= 1.0 + 1e-9

    def test_zero_dynamic_range_rejected(self, rng):
        a = pr.Volume(np.ones((8, 8, 8), dtype=np.float32))
        b = random_volume(rng, (8, 8, 8))
        with pytest.raises(ValidationError):
            pr.ssim(a, b, _full_mask((8, 8, 8)))


class TestRelVolDiff:
    def test_identical(self, rng):
        m = pr.Volume((rng.random((8, 8, 8)) > 0.5).astype(np.float32))
        assert pr.relvoldiff(m, m) == 0.0

    def test_half_volume(self):
        ref = np.zeros((8, 8, 8), dtype=np.float32)
        ref[:4] = 1.0
        prop = np.zeros((8, 8, 8), dtype=np.float32)
        prop[:2] = 1.0
        assert pr.relvoldiff(pr.Volume(ref), pr.Volume(prop)) == pytest.approx(50.0)

    def test_matches_counting_oracle(self, rng):
        ref = pr.Volume((rng.random((8, 8, 8)) > 0.4).astype(np.float32))
        prop = pr.Volume((rng.random((8, 8, 8)) > 0.6).astype(np.float32))
        assert pr.relvoldiff(ref, prop) == pytest.approx(
            oracles.relvoldiff(ref.data, prop.data, (1, 1, 1), (1, 1, 1)))

    def test_equal_volume_masks_give_zero(self):
        a = np.zeros((6, 6, 6), dtype=np.float32)
        b = np.zeros((6, 6, 6), dtype=np.float32)
        a[0, :3, 0] = 1.0
        b[5, 2:5, 3] = 1.0
        assert pr.relvoldiff(pr.Volume(a), pr.Volume(b)) == 0.0
        assert pr.relvoldiff(pr.Volume(b), pr.Volume(a)) == 0.0

    def test_voxel_count_ratio_exact(self):
        ref = np.zeros((8, 8, 8), dtype=np.float32)
        prop = np.zeros((8, 8, 8), dtype=np.float32)
        ref.ravel()[:40] = 1.0
        prop.ravel()[:30] = 1.0
        assert pr.relvoldiff(pr.Volume(ref), pr.Volume(prop)) == pytest.approx(25.0)

    def test_empty_reference_rejected(self, rng):
        empty = pr.Volume(np.zeros((4, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.relvoldiff(empty, empty)


class TestEndpointError:
    def test_exact_match(self, rng):
        f = lattice_safe_field(rng, (4, 4, 4))
        stats = pr.endpoint_error(f, f)
        assert stats.mean == 0.0 and stats.median == 0.0 and stats.p95 == 0.0

    def test_constant_magnitude(self):
        u = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u[0] = 2.0
        stats = pr.endpoint_error(pr.DisplacementField(u),
                                  pr.DisplacementField(np.zeros_like(u)))
        assert stats.mean == pytest.approx(2.0)

    def test_matches_norm_oracle(self, rng):
        a = lattice_safe_field(rng, (4, 4, 4))
        b = lattice_safe_field(rng, (4, 4, 4))
        stats = pr.endpoint_error(a, b)
        err = np.sqrt(((a.data.astype(np.float64)
                        - b.data.astype(np.float64)) ** 2).sum(axis=0))
        assert stats.mean == pytest.approx(err.mean(), abs=1e-9)
        assert stats.p95 == pytest.approx(np.percentile(err, 95), abs=1e-9)

    def test_mask_restriction(self, rng):
        a = lattice_safe_field(rng, (4, 4, 4))
        truth = pr.DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        m = np.zeros((4, 4, 4), dtype=np.float32)
        m[0, 0, 0] = 1.0
        stats = pr.endpoint_error(a, truth, mask=pr.Volume(m))
        want = float(np.sqrt((a.data.astype(np.float64)[:, 0, 0, 0] ** 2).sum()))
        assert stats.mean == pytest.approx(want, abs=1e-7)


class TestFoldFraction:
    def test_zero_field(self):
        fld = pr.DisplacementField(np.zeros((3, 5, 5, 5), dtype=np.float32))
        assert pr.fold_fraction(fld) == 0.0

    def test_total_fold(self):
        u = np.zeros((3, 6, 6, 6), dtype=np.float32)
        u[0] = -2.0 * np.arange(6, dtype=np.float32)[:, None, None]
        assert pr.fold_fraction(pr.DisplacementField(u)) == 100.0

    def test_matches_determinant_oracle(self, rng):
        fld = lattice_safe_field(rng, (6, 6, 6), scale=1.2)
        det = oracles.jacobian_det_fd(fld.data.astype(np.float64))
        interior = det[1:-1, 1:-1, 1:-1]
        want = 100.0 * (interior <= 0).sum() / interior.size
        assert pr.fold_fraction(fld) == pytest.approx(want)


class TestMetricReport:
    def test_report_fields(self, rng):
        a = random_volume(rng, (9, 9, 9))
        fld = pr.zero_field(a)
        rep = pr.metric_report(a, a, pr.Volume(np.ones((9, 9, 9), dtype=np.float32)), fld)
        assert rep.ncc_pct == pytest.approx(100.0)
        assert rep.mse == 0.0
        assert rep.ssim_pct == pytest.approx(100.0)
        assert rep.fold_fraction_pct == 0.0
        d = rep.to_dict()
        assert "relvoldiff_pct" not in d and "endpoint_error" not in d

    def test_without_field(self, rng):
        a = random_volume(rng, (9, 9, 9))
        mask = pr.Volume(np.ones((9, 9, 9), dtype=np.float32))
        rep = pr.metric_report(a, a, mask, truth=pr.zero_field(a))
        assert set(rep.to_dict()) == {"ncc_pct", "mse", "ssim_pct"}

    def test_ncc_is_checked_first(self, rng):
        # an empty mask fails NCC's check before the endpoint error's
        a = random_volume(rng, (9, 9, 9))
        empty = pr.Volume(np.zeros((9, 9, 9), dtype=np.float32))
        fld = pr.zero_field(a)
        with pytest.raises(ValidationError, match="at least 2 voxels"):
            pr.metric_report(a, a, empty, fld, truth=fld, epe_mask=empty)


# each scorer with the inputs it combines; every input must share the first
# one's grid (dims, spacing and origin), as warp and the loss require
_GRID_CASES = {
    "masked_ncc": (lambda v: pr.masked_ncc(v["fixed"], v["warped"], v["mask"],
                                           v["weights"]),
                   ("warped", "mask", "weights")),
    "mse": (lambda v: pr.mse(v["fixed"], v["warped"], v["mask"]),
            ("warped", "mask")),
    "ssim": (lambda v: pr.ssim(v["fixed"], v["warped"], v["mask"]),
             ("warped", "mask")),
    "relvoldiff": (lambda v: pr.relvoldiff(v["ctv_fixed"], v["ctv_prop"]),
                   ("ctv_prop",)),
    "endpoint_error": (lambda v: pr.endpoint_error(v["fld"], v["truth"],
                                                   mask=v["mask"]),
                       ("truth", "mask")),
    "fuse_priors": (lambda v: pr.fuse_priors(v["weights"], v["warped"], 0.5),
                    ("warped",)),
    "metric_report": (lambda v: pr.metric_report(
        v["fixed"], v["warped"], v["mask"], v["fld"], v["ctv_fixed"],
        v["ctv_prop"], v["truth"], epe_mask=v["mask"]),
        ("warped", "mask", "fld", "truth", "ctv_fixed", "ctv_prop")),
}


@pytest.mark.parametrize("name,which", [(name, which)
                                        for name, (_, moved) in _GRID_CASES.items()
                                        for which in moved])
@pytest.mark.parametrize("change", [{"spacing": (2.0, 2.0, 2.0)},
                                    {"origin": (0.0, 0.0, 5.0)}])
def test_scorers_refuse_inputs_on_another_grid(rng, name, which, change):
    dims = (8, 8, 8)
    ctv = np.zeros(dims, dtype=np.float32)
    ctv[2:6, 2:6, 2:6] = 1.0
    v = dict(fixed=random_volume(rng, dims), warped=random_volume(rng, dims),
             mask=_full_mask(dims), weights=random_volume(rng, dims),
             ctv_fixed=pr.Volume(ctv), ctv_prop=pr.Volume(np.roll(ctv, 1, axis=0)),
             fld=lattice_safe_field(rng, dims), truth=lattice_safe_field(rng, dims))
    call, _ = _GRID_CASES[name]
    call(v)                                   # one grid: scored
    v[which] = replace(v[which], **change)
    with pytest.raises(ValidationError, match="grid"):
        call(v)
