import numpy as np
import pytest

import protoreg as pr
from protoreg.errors import ValidationError

import oracles


def _mask(dims, setter):
    data = np.zeros(dims, dtype=np.float32)
    setter(data)
    return pr.Volume(data)


def _sphere_mask(dims, center, radius, spacing=(1.0, 1.0, 1.0)):
    grids = np.meshgrid(*[np.arange(n) * s for n, s in zip(dims, spacing)],
                        indexing="ij")
    d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return pr.Volume((d2 <= radius ** 2).astype(np.float32), spacing=spacing)


class TestSignedDistance:
    def test_neighbor_of_single_voxel_anisotropic(self):
        m = _mask((9, 9, 9), lambda d: d.__setitem__((4, 4, 4), 1.0))
        m = pr.Volume(m.data, spacing=(2.0, 1.0, 1.0))
        sdf = pr.signed_distance(m)
        assert sdf.data[5, 4, 4] == pytest.approx(2.0, abs=1e-5)
        assert sdf.data[4, 5, 4] == pytest.approx(1.0, abs=1e-5)

    def test_cube_center_is_negative(self):
        m = _mask((9, 9, 9), lambda d: d.__setitem__(
            (slice(1, 8), slice(1, 8), slice(1, 8)), 1.0))
        sdf = pr.signed_distance(m)
        assert sdf.data[4, 4, 4] <= -3.0
        expected = oracles.signed_distance(m.data > 0, (1.0, 1.0, 1.0))
        assert sdf.data[4, 4, 4] == pytest.approx(expected[4, 4, 4], abs=1e-5)

    def test_sign_flip_symmetry(self):
        m = _sphere_mask((9, 9, 9), (4, 4, 4), 2.5)
        comp = pr.Volume(1.0 - m.data)
        np.testing.assert_allclose(pr.signed_distance(m).data,
                                   -pr.signed_distance(comp).data, atol=1e-5)

    def test_matches_all_pairs_oracle(self):
        spacing = (1.5, 1.0, 2.0)
        m = _sphere_mask((9, 8, 7), (5, 4, 5), 3.0, spacing=spacing)
        sdf = pr.signed_distance(m)
        expected = oracles.signed_distance(m.data > 0, spacing)
        np.testing.assert_allclose(sdf.data, expected, atol=1e-5)

    def test_empty_and_full_rejected(self):
        with pytest.raises(ValidationError):
            pr.signed_distance(pr.Volume(np.zeros((4, 4, 4), dtype=np.float32)))
        with pytest.raises(ValidationError):
            pr.signed_distance(pr.Volume(np.ones((4, 4, 4), dtype=np.float32)))


class TestGaussianProximity:
    def test_interior_saturates(self):
        m = _sphere_mask((9, 9, 9), (4, 4, 4), 2.5)
        prox = pr.gaussian_proximity(pr.signed_distance(m), 5.0)
        assert np.all(prox.data[m.data > 0] == 1.0)

    @pytest.mark.parametrize("mult,expected", [(1.0, np.exp(-0.5)), (3.0, np.exp(-4.5))])
    def test_analytic_values(self, mult, expected):
        sdf = pr.Volume(np.full((2, 2, 2), 4.0 * mult, dtype=np.float32))
        prox = pr.gaussian_proximity(sdf, 4.0)
        np.testing.assert_allclose(prox.data, expected, atol=1e-6)

    def test_monotone_nonincreasing_in_distance(self, rng):
        d = np.sort(rng.uniform(0, 30, size=64)).astype(np.float32).reshape(4, 4, 4)
        prox = pr.gaussian_proximity(pr.Volume(d), 7.0).data.ravel()
        assert np.all(np.diff(prox) <= 0)

    def test_bad_sigma(self):
        with pytest.raises(ValidationError):
            pr.gaussian_proximity(pr.Volume(np.zeros((2, 2, 2), dtype=np.float32)), 0.0)


class TestBoundaryBand:
    def test_zero_distance_in_band(self):
        sdf = pr.Volume(np.zeros((2, 2, 2), dtype=np.float32))
        assert np.all(pr.boundary_band(sdf, 1.0).data == 1.0)

    def test_deep_interior_outside_band(self):
        sdf = pr.Volume(np.full((2, 2, 2), -9.0, dtype=np.float32))
        assert np.all(pr.boundary_band(sdf, 3.0).data == 0.0)

    def test_band_count_matches_oracle(self):
        m = _mask((9, 9, 9), lambda d: d.__setitem__(
            (slice(2, 7), slice(2, 7), slice(2, 7)), 1.0))
        band = pr.boundary_band(pr.signed_distance(m), 1.0)
        sdf = oracles.signed_distance(m.data > 0, (1.0, 1.0, 1.0))
        assert band.data.sum() == np.count_nonzero(np.abs(sdf) <= 1.0)

    def test_negative_band_rejected(self):
        with pytest.raises(ValidationError):
            pr.boundary_band(pr.Volume(np.zeros((2, 2, 2), dtype=np.float32)), -1.0)


def _structures_16():
    ctv = _sphere_mask((16, 16, 16), (8, 8, 8), 3.0)
    oar = _sphere_mask((16, 16, 16), (4, 4, 4), 2.0)
    body = pr.Volume(np.ones((16, 16, 16), dtype=np.float32))
    return pr.StructureSet(ctv=ctv, body=body, oars=(oar,))


class TestAnatomyMap:
    def test_far_from_ctv_without_oars_is_zero(self):
        ctv = _sphere_mask((24, 24, 24), (4, 4, 4), 1.5)
        s = pr.StructureSet(ctv=ctv, body=pr.Volume(np.ones((24, 24, 24), dtype=np.float32)))
        amap = pr.anatomy_map(s, pr.PriorParams(sigma_mm=2.0, band_mm=1.0))
        assert amap.data[23, 23, 23] == pytest.approx(0.0, abs=1e-6)

    def test_ctv_interior_beyond_band(self):
        ctv = _sphere_mask((16, 16, 16), (8, 8, 8), 5.0)
        s = pr.StructureSet(ctv=ctv, body=pr.Volume(np.ones((16, 16, 16), dtype=np.float32)))
        amap = pr.anatomy_map(s, pr.PriorParams())
        assert amap.data[8, 8, 8] == pytest.approx(0.5, abs=1e-6)

    def test_matches_brute_force(self):
        s = _structures_16()
        p = pr.PriorParams(sigma_mm=4.0, band_mm=1.5)
        amap = pr.anatomy_map(s, p)
        expected = oracles.anatomy_map(
            s.ctv.data > 0, s.oar_union(), (1.0, 1.0, 1.0),
            p.sigma_mm, p.band_mm, p.w_prox, p.w_band, p.w_oar)
        np.testing.assert_allclose(amap.data, expected, atol=1e-5)

    def test_monotone_in_weights(self):
        s = _structures_16()
        lo = pr.anatomy_map(s, pr.PriorParams(w_oar=0.1))
        hi = pr.anatomy_map(s, pr.PriorParams(w_oar=0.4))
        assert np.all(hi.data >= lo.data - 1e-7)

    def test_empty_ctv_rejected(self):
        body = pr.Volume(np.ones((8, 8, 8), dtype=np.float32))
        empty = pr.Volume(np.zeros((8, 8, 8), dtype=np.float32))
        s = pr.StructureSet(ctv=empty, body=body)
        with pytest.raises(ValidationError):
            pr.anatomy_map(s, pr.PriorParams())


class TestRiskMap:
    def test_uniform_dose_no_oars(self):
        dose = pr.Volume(np.full((8, 8, 8), 30.0, dtype=np.float32))
        ctv = _sphere_mask((8, 8, 8), (4, 4, 4), 2.0)
        s = pr.StructureSet(ctv=ctv, body=pr.Volume(np.ones((8, 8, 8), dtype=np.float32)))
        rmap = pr.risk_map(dose, s, pr.PriorParams())
        np.testing.assert_allclose(rmap.data, 0.3, atol=1e-6)

    def test_dose_max_voxel_in_isodose_shell(self, small_phantom):
        img, s, dose = small_phantom
        p = pr.PriorParams()
        rmap = pr.risk_map(dose, pr.StructureSet(ctv=s.ctv, body=s.body), p)
        peak = np.unravel_index(np.argmax(dose.data), dose.dims)
        assert rmap.data[peak] >= 0.3 - 1e-6

    def test_matches_brute_force_on_ramp(self):
        ramp = np.linspace(0.1, 1.0, 16, dtype=np.float32)[:, None, None] \
            * np.ones((16, 16, 16), dtype=np.float32)
        dose = pr.Volume(ramp, spacing=(1.0, 2.0, 1.5))
        s = _structures_16()
        s = pr.StructureSet(
            ctv=pr.Volume(s.ctv.data, spacing=dose.spacing),
            body=pr.Volume(s.body.data, spacing=dose.spacing),
            oars=tuple(pr.Volume(o.data, spacing=dose.spacing) for o in s.oars))
        p = pr.PriorParams()
        rmap = pr.risk_map(dose, s, p)
        expected = oracles.risk_map(dose.data, s.oar_union(), dose.spacing,
                                    p.w_grad, p.w_iso, p.w_doseoar,
                                    p.isodose_fraction)
        np.testing.assert_allclose(rmap.data, expected, atol=1e-6)

    def test_zero_dose_rejected(self):
        s = _structures_16()
        dose = s.ctv.with_data(np.zeros(s.ctv.dims, dtype=np.float32))
        with pytest.raises(ValidationError, match="identically zero"):
            pr.risk_map(dose, s, pr.PriorParams())


class TestFusePriors:
    def test_alpha_extremes(self, rng):
        a = pr.Volume(rng.random((4, 4, 4)).astype(np.float32))
        r = pr.Volume(rng.random((4, 4, 4)).astype(np.float32))
        np.testing.assert_allclose(pr.fuse_priors(a, r, 1.0).data, a.data, atol=1e-7)
        np.testing.assert_allclose(pr.fuse_priors(a, r, 0.0).data, r.data, atol=1e-7)

    def test_midpoint(self):
        a = pr.Volume(np.full((2, 2, 2), 0.4, dtype=np.float32))
        r = pr.Volume(np.full((2, 2, 2), 0.8, dtype=np.float32))
        np.testing.assert_allclose(pr.fuse_priors(a, r, 0.5).data, 0.6, atol=1e-6)

    def test_grid_mismatch(self, rng):
        a = pr.Volume(rng.random((4, 4, 4)).astype(np.float32))
        r = pr.Volume(rng.random((5, 4, 4)).astype(np.float32))
        with pytest.raises(ValidationError):
            pr.fuse_priors(a, r, 0.5)


class TestGate:
    def test_sigmoid_midpoint(self):
        p = pr.PriorParams()
        prior = pr.Volume(np.full((4, 4, 4), p.gate_center, dtype=np.float32))
        g = pr.gate(prior, p)
        np.testing.assert_allclose(g.data, 0.75, atol=1e-6)

    def test_high_prior(self):
        p = pr.PriorParams()
        prior = pr.Volume(np.ones((4, 4, 4), dtype=np.float32))
        g = pr.gate(prior, p)
        np.testing.assert_allclose(g.data, 0.99450, atol=1e-5)

    def test_low_prior(self):
        p = pr.PriorParams()
        prior = pr.Volume(np.zeros((4, 4, 4), dtype=np.float32))
        g = pr.gate(prior, p)
        np.testing.assert_allclose(g.data, 0.59121, atol=1e-5)

    def test_range_and_monotonicity(self, rng):
        p = pr.PriorParams()
        vals = rng.random((6, 6, 6)).astype(np.float32)
        g = pr.gate(pr.Volume(vals), p)
        assert np.all(g.data >= p.gate_floor) and np.all(g.data < 1.0)
        order = np.argsort(vals.ravel())
        assert np.all(np.diff(g.data.ravel()[order]) >= -1e-7)

    def test_keeps_prior_grid(self, rng):
        prior = pr.Volume(rng.random((8, 6, 4)).astype(np.float32),
                          spacing=(2.0, 1.0, 0.5), origin=(1.0, -2.0, 3.0))
        g = pr.gate(prior, pr.PriorParams())
        assert (g.dims, g.spacing, g.origin) == (prior.dims, prior.spacing, prior.origin)


class TestStructureSet:
    def test_non_binary_rejected(self):
        bad = pr.Volume(np.full((4, 4, 4), 0.5, dtype=np.float32))
        ok = pr.Volume(np.ones((4, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.StructureSet(ctv=bad, body=ok)

    def test_all_maps_in_unit_interval(self, small_phantom):
        img, s, dose = small_phantom
        p = pr.PriorParams()
        amap = pr.anatomy_map(s, p)
        rmap = pr.risk_map(dose, s, p)
        fused = pr.fuse_priors(amap, rmap, p.fusion_alpha)
        for m in (amap, rmap, fused):
            assert np.all(m.data >= 0.0) and np.all(m.data <= 1.0)
