import math

import numpy as np
import pytest

import protoreg as pr
from protoreg import engine
from protoreg.engine import resample_rigid
from protoreg.errors import ValidationError

from conftest import lattice_safe_field


FAST = pr.RegConfig(levels=3, iterations=(20, 30, 40),
                    rigid_iterations=(80, 40))


class TestWarpContour:
    def test_zero_field_identity(self, small_phantom):
        _, st, _ = small_phantom
        out = pr.warp_contour(st.ctv, pr.zero_field(st.ctv))
        assert np.array_equal(out.data, st.ctv.data)

    def test_integer_shift(self, small_phantom):
        _, st, _ = small_phantom
        u = np.zeros((3,) + st.ctv.dims, dtype=np.float32)
        u[0] = 2.0
        out = pr.warp_contour(st.ctv, pr.DisplacementField(u))
        # sampling at x + 2 pulls the mask 2 voxels toward lower x
        expected = np.zeros_like(st.ctv.data)
        expected[:-2] = st.ctv.data[2:]
        np.testing.assert_array_equal(out.data, expected)

    def test_output_is_binary(self, small_phantom, rng):
        _, st, _ = small_phantom
        fld = lattice_safe_field(rng, st.ctv.dims)
        out = pr.warp_contour(st.ctv, fld)
        assert set(np.unique(out.data)) <= {0.0, 1.0}


class TestRigidAlign:
    def test_self_registration(self, small_phantom):
        img, st, _ = small_phantom
        t, res = pr.rigid_align(img, img, st.body, FAST)
        assert max(abs(v) for v in t.translation) < 0.1
        assert max(abs(v) for v in t.rotation) < 0.01

    def test_translation_recovery(self, small_phantom):
        img, st, _ = small_phantom
        true = pr.RigidTransform(translation=(3.0, -2.0, 1.0))
        moving = resample_rigid(img, img, true)
        t, res = pr.rigid_align(img, moving, st.body, FAST)
        # the aligning transform is the inverse of the applied one
        for got, want in zip(t.translation, true.translation):
            assert abs(got + want) < 0.25
        ncc = pr.masked_ncc(img, res, st.body)
        assert ncc > 0.98

    def test_rotation_recovery(self, small_phantom):
        img, st, _ = small_phantom
        angle = math.radians(5.0)
        center = tuple((np.array(img.dims) - 1) / 2.0)
        moving = resample_rigid(img, img, pr.RigidTransform(
            rotation=(0.0, 0.0, angle), center=center))
        before = pr.masked_ncc(img, moving, st.body)
        t, res = pr.rigid_align(img, moving, st.body, FAST)
        # pre-alignment only needs to remove most of the rotation; the
        # deformable stage absorbs the remainder
        assert abs(t.rotation[2] + angle) < 0.4 * angle
        assert pr.masked_ncc(img, res, st.body) > before

    def test_degenerate_mask_rejected(self, small_phantom):
        img, _, _ = small_phantom
        empty = img.with_data(np.zeros(img.dims, dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.rigid_align(img, img, empty)


@pytest.fixture(scope="module")
def rigid_levels():
    """16^3 and 32^3 rigid pyramid levels of the default phantom against a
    rigidly moved copy, with the binary level masks rigid_align uses."""
    img, st, _ = pr.make_phantom(pr.PhantomSpec())
    center = engine._physical_center(img)
    moving = resample_rigid(img, img, pr.RigidTransform(
        rotation=(0.1, -0.12, 0.15), translation=(2.0, -1.0, 1.5),
        center=center))
    fpyr, mpyr, kpyr = (pr.build_pyramid(v, 3) for v in (img, moving, st.body))
    return center, {fpyr[li].dims[0]: (
        fpyr[li], mpyr[li],
        kpyr[li].with_data((kpyr[li].data > 0.5).astype(np.float32)))
        for li in (1, 2)}


# angles large enough that the order of the Euler factors shows
RIGID_PARAMS = np.array([-0.05, 0.08, -0.1, -1.0, 0.5, -0.8])


class TestRigidObjective:
    @pytest.mark.parametrize("n", [16, 32])
    def test_gradient_vs_finite_differences(self, rigid_levels, n):
        center, levels = rigid_levels
        fixed, moving, mask = levels[n]
        g = engine._rigid_gradient(fixed, moving, mask, RIGID_PARAMS, center)
        h = np.array([1e-3] * 3 + [0.1] * 3)        # rad, mm
        fd = np.empty(6)
        for j in range(6):
            dp = np.zeros(6)
            dp[j] = h[j]
            fd[j] = (engine._rigid_loss(fixed, moving, mask, RIGID_PARAMS + dp, center)
                     - engine._rigid_loss(fixed, moving, mask, RIGID_PARAMS - dp, center)) \
                / (2.0 * h[j])
        # relative error per block of like units; the trilinear kinks put
        # about 1% of noise into each central difference
        for block in (slice(0, 3), slice(3, 6)):
            rel = np.linalg.norm(g[block] - fd[block]) / np.linalg.norm(fd[block])
            assert rel < 0.02, f"{g} vs {fd}"

    @pytest.mark.parametrize("n", [16, 32])
    def test_loss_is_negative_masked_ncc(self, rigid_levels, n):
        center, levels = rigid_levels
        fixed, moving, mask = levels[n]
        t = pr.RigidTransform(rotation=tuple(RIGID_PARAMS[:3]),
                              translation=tuple(RIGID_PARAMS[3:]), center=center)
        want = -pr.masked_ncc(fixed, resample_rigid(moving, fixed, t), mask)
        got = engine._rigid_loss(fixed, moving, mask, RIGID_PARAMS, center)
        assert got == pytest.approx(want, abs=1e-6)


class TestRegister:
    def test_self_registration(self, small_phantom):
        img, st, _ = small_phantom
        fld, rep = pr.register(img, img, FAST, structures=st)
        mags = np.sqrt((fld.data.astype(np.float64) ** 2).sum(axis=0))
        assert mags[st.body.data > 0].mean() < 0.05
        warped = pr.warp(img, fld)
        assert pr.masked_ncc(img, warped, st.body) >= 0.999

    def test_per_level_loss_monotone(self, small_phantom, rng):
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        fixed = pr.warp(img, g)
        _, rep = pr.register(fixed, img, FAST,
                             structures=pr.StructureSet(
                                 ctv=pr.warp_contour(st.ctv, g),
                                 body=pr.warp_contour(st.body, g)))
        for lvl in rep.levels:
            assert lvl.final_loss <= lvl.initial_loss + 1e-12
            assert np.all(np.diff(lvl.trajectory) <= 1e-12)
            assert len(lvl.trajectory) <= FAST.iterations[-1] + 1

    def test_determinism(self, small_phantom):
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(1.5, 4.0, 9),
                                 envelope=st.body.data.astype(np.float64))
        fixed = pr.warp(img, g)
        f1, r1 = pr.register(fixed, img, FAST, structures=st)
        f2, r2 = pr.register(fixed, img, FAST, structures=st)
        assert np.array_equal(f1.data, f2.data)
        assert r1.to_dict() == r2.to_dict()

    def test_feature_flag_equivalence(self, small_phantom):
        img, st, dose = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(1.5, 4.0, 9),
                                 envelope=st.body.data.astype(np.float64))
        fixed = pr.warp(img, g)
        cfg = pr.RegConfig(levels=3, iterations=(10, 15, 20))
        emb = (pr.pseudo_embedding("neck, level II nodes"),)
        f_plain, _ = pr.register(fixed, img, cfg, structures=st)
        f_extra, _ = pr.register(fixed, img, cfg, structures=st, dose=dose,
                                 embeddings=emb,
                                 adapter_weights=pr.AdapterWeights.random(1))
        assert np.array_equal(f_plain.data, f_extra.data)

    def test_priors_enabled_runs_and_reports(self, small_phantom):
        img, st, dose = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(1.5, 4.0, 9),
                                 envelope=st.body.data.astype(np.float64))
        fixed = pr.warp(img, g)
        stf = pr.StructureSet(ctv=pr.warp_contour(st.ctv, g),
                              body=pr.warp_contour(st.body, g),
                              oars=tuple(pr.warp_contour(o, g) for o in st.oars))
        cfg = pr.RegConfig(levels=3, iterations=(10, 15, 20),
                           use_anatomy=True, use_risk=True, use_gate=True,
                           use_film=True)
        fld, rep = pr.register(fixed, img, cfg, structures=stf,
                               dose=pr.warp(dose, g),
                               embeddings=(pr.pseudo_embedding("oropharynx"),),
                               adapter_weights=pr.AdapterWeights.random(1))
        assert "film_applied" in rep.flags
        assert rep.final.total <= rep.levels[0].initial_loss + 1.0

    def test_missing_dose_rejected(self, small_phantom):
        img, st, _ = small_phantom
        cfg = pr.RegConfig(use_risk=True)
        with pytest.raises(ValidationError):
            pr.register(img, img, cfg, structures=st)

    def test_missing_ctv_rejected(self, small_phantom):
        img, st, _ = small_phantom
        cfg = pr.RegConfig(use_anatomy=True)
        with pytest.raises(ValidationError):
            pr.register(img, img, cfg)

    def test_grid_mismatch_rejected(self, small_phantom, rng):
        img, _, _ = small_phantom
        other = pr.Volume(rng.random((16, 16, 16)).astype(np.float32))
        with pytest.raises(ValidationError):
            pr.register(img, other)


class TestGateUpdateProperty:
    def test_gated_update_preserves_sign_and_range(self, small_phantom, rng):
        _, st, dose = small_phantom
        p = pr.PriorParams()
        fused = pr.fuse_priors(pr.anatomy_map(st, p),
                               pr.risk_map(dose, st, p), p.fusion_alpha)
        m = pr.gate(fused, p, level=1).data.astype(np.float64)
        raw = rng.normal(size=(3,) + st.ctv.dims)
        gated = raw * m[None]
        assert np.all(np.sign(gated) == np.sign(raw))
        mag_ratio = np.abs(gated) / np.maximum(np.abs(raw), 1e-300)
        assert np.all(mag_ratio >= p.gate_floor - 1e-12)
        assert np.all(mag_ratio < 1.0)


class TestRegConfig:
    def test_round_trip(self):
        cfg = pr.RegConfig(use_anatomy=True, lambda_smooth=0.2,
                           prior_params=pr.PriorParams(sigma_mm=5.0))
        back = pr.RegConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            pr.RegConfig(levels=0)
        with pytest.raises(ValidationError):
            pr.RegConfig(step_size=0.0)
        with pytest.raises(ValidationError):
            pr.RegConfig(lambda_smooth=-1.0)
        for kwargs in ({"rigid_iterations": (-1,)}, {"beta1": -0.1},
                       {"beta2": 1.0}):
            with pytest.raises(ValidationError):
                pr.RegConfig(**kwargs)
