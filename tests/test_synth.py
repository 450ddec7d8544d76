import warnings

import numpy as np
import pytest

import protoreg as pr
from protoreg.errors import ValidationError
from protoreg.synth import counter_normal, counter_uniform

from conftest import SMALL_PHANTOM


class TestCounterRng:
    def test_counter_addressable(self):
        whole = counter_uniform(42, 0, 100)
        part = counter_uniform(42, 50, 50)
        np.testing.assert_array_equal(whole[50:], part)

    def test_uniform_range_and_spread(self):
        u = counter_uniform(7, 0, 10000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = counter_normal(7, 0, 20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_seed_sensitivity(self):
        assert not np.array_equal(counter_uniform(1, 0, 64), counter_uniform(2, 0, 64))


class TestMakePhantom:
    def test_deterministic(self):
        a_img, a_st, a_dose = pr.make_phantom(SMALL_PHANTOM)
        b_img, b_st, b_dose = pr.make_phantom(SMALL_PHANTOM)
        assert np.array_equal(a_img.data, b_img.data)
        assert np.array_equal(a_st.ctv.data, b_st.ctv.data)
        assert np.array_equal(a_dose.data, b_dose.data)

    def test_ctv_volume_close_to_analytic(self):
        spec = pr.PhantomSpec(dims=(48, 48, 48),
                              body_semi_axes_mm=(20.0, 20.0, 20.0),
                              ctv_center_mm=(0.0, 0.0, 0.0),
                              ctv_radius_mm=8.0, oars=())
        _, st, _ = pr.make_phantom(spec)
        count = int(st.ctv.data.sum())
        analytic = 4.0 / 3.0 * np.pi * 8.0 ** 3
        assert abs(count - analytic) / analytic < 0.05

    def test_body_contains_structures(self, small_phantom):
        _, st, _ = small_phantom
        body = st.body.data > 0
        assert np.all(body[st.ctv.data > 0])
        for o in st.oars:
            assert np.all(body[o.data > 0])

    def test_dose_model(self, small_phantom):
        _, st, dose = small_phantom
        assert dose.data.max() == pytest.approx(SMALL_PHANTOM.dose_max, rel=1e-6)
        # dose saturates at the max inside the CTV
        assert np.all(dose.data[st.ctv.data > 0]
                      >= SMALL_PHANTOM.dose_max * (1 - 1e-6))

    def test_ctv_outside_body_rejected(self):
        spec = pr.PhantomSpec(dims=(32, 32, 32),
                              body_semi_axes_mm=(6.0, 6.0, 6.0),
                              ctv_center_mm=(10.0, 0.0, 0.0),
                              ctv_radius_mm=3.0, oars=())
        with pytest.raises(ValidationError):
            pr.make_phantom(spec)

    @pytest.mark.parametrize("key, value", [
        ("body_semi_axes_mm", (0.0, 6.0, 7.0)),
        ("body_semi_axes_mm", (7.0, -6.0, 7.0)),
        ("dose_tau_mm", 1e-200),        # tau^2 underflows
        ("dose_tau_mm", 1e200),         # tau^2 overflows
    ])
    def test_degenerate_geometry_rejected_by_key(self, key, value):
        with pytest.raises(ValidationError, match=key):
            pr.PhantomSpec(**{key: value})

    def test_tiny_dose_tau_builds_without_warnings(self):
        # tau^2 is normal, but distance^2 / (2 tau^2) overflows: zero dose
        spec = pr.PhantomSpec(dims=(16, 16, 16), body_semi_axes_mm=(7.0, 6.0, 7.0),
                              ctv_center_mm=(1.0, 0.5, -0.5), ctv_radius_mm=2.0,
                              oars=(), dose_tau_mm=1.5e-154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, st, dose = pr.make_phantom(spec)
        assert np.all(dose.data[st.ctv.data > 0] == spec.dose_max)
        assert dose.data.min() == 0.0


class TestMakeSmoothField:
    def test_zero_max_gives_zero_field(self):
        fld = pr.make_smooth_field((8, 8, 8), pr.FieldSpec(0.0, 3.0, 1))
        assert np.all(fld.data == 0.0)

    def test_max_norm_matches_spec(self):
        for seed in (1, 2, 3):
            fld = pr.make_smooth_field((16, 16, 16), pr.FieldSpec(2.5, 4.0, seed))
            norms = np.sqrt((fld.data.astype(np.float64) ** 2).sum(axis=0))
            assert norms.max() == pytest.approx(2.5, abs=1e-6)

    def test_non_integer_dims_rejected(self):
        # int() would truncate 8.7 to 8
        with pytest.raises(ValidationError, match="dims"):
            pr.make_smooth_field((8.7, 8, 8), pr.FieldSpec(1.0, 2.0, 5))

    @pytest.mark.parametrize("shape", [(8,), (4, 8, 8)])
    def test_envelope_of_another_shape_rejected(self, shape):
        # (8,) would broadcast along z; (4, 8, 8) raised numpy's own error
        with pytest.raises(ValidationError, match="envelope shape"):
            pr.make_smooth_field((8, 8, 8), pr.FieldSpec(1.0, 2.0, 5),
                                 envelope=np.ones(shape))

    def test_deterministic(self):
        a = pr.make_smooth_field((8, 8, 8), pr.FieldSpec(1.0, 2.0, 5))
        b = pr.make_smooth_field((8, 8, 8), pr.FieldSpec(1.0, 2.0, 5))
        assert np.array_equal(a.data, b.data)

    def test_no_folding_when_max_small_vs_width(self):
        # max <= 0.25 * width keeps the Jacobian positive across seeds
        for seed in range(20):
            fld = pr.make_smooth_field((12, 12, 12), pr.FieldSpec(1.0, 4.0, seed))
            det = pr.jacobian_det(fld)
            assert np.all(det.data > 0), f"folding at seed {seed}"

    def test_envelope_concentrates_field(self):
        env = np.zeros((16, 16, 16))
        env[4:12, 4:12, 4:12] = 1.0
        fld = pr.make_smooth_field((16, 16, 16), pr.FieldSpec(2.0, 3.0, 9),
                                   envelope=env)
        norms = np.sqrt((fld.data.astype(np.float64) ** 2).sum(axis=0))
        assert norms[env == 0].max() == 0.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValidationError):
            pr.FieldSpec(-1.0, 3.0, 0)
        with pytest.raises(ValidationError):
            pr.FieldSpec(1.0, 0.0, 0)
