import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import protoreg as pr
from protoreg import volgrid
from protoreg.errors import ValidationError
from protoreg.similarity import Objective

import oracles
from conftest import random_volume, lattice_safe_field


def _full_mask(dims):
    return pr.Volume(np.ones(dims, dtype=np.float32))


class TestMaskedNcc:
    def test_identical_images(self, rng):
        a = random_volume(rng, (6, 6, 6))
        assert pr.masked_ncc(a, a, _full_mask((6, 6, 6))) == pytest.approx(1.0)

    def test_anticorrelated(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = a.with_data(-a.data)
        assert pr.masked_ncc(a, b, _full_mask((6, 6, 6))) == pytest.approx(-1.0)

    def test_affine_invariance(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = a.with_data(3.0 * a.data + 7.0)
        assert pr.masked_ncc(a, b, _full_mask((6, 6, 6))) == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_random_mask(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        m = pr.Volume((rng.random((6, 6, 6)) > 0.4).astype(np.float32))
        got = pr.masked_ncc(a, b, m)
        want = oracles.masked_ncc(a.data, b.data, m.data)
        assert got == pytest.approx(want, abs=1e-6)

    def test_weighted_matches_oracle(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        m = pr.Volume((rng.random((6, 6, 6)) > 0.4).astype(np.float32))
        p = pr.Volume(rng.random((6, 6, 6)).astype(np.float32))
        got = pr.masked_ncc(a, b, m, weights=p)
        want = oracles.masked_ncc(a.data, b.data,
                                  m.data.astype(np.float64) * (1.0 + p.data))
        assert got == pytest.approx(want, abs=1e-6)

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            a = random_volume(rng, (5, 5, 5))
            b = random_volume(rng, (5, 5, 5))
            v = pr.masked_ncc(a, b, _full_mask((5, 5, 5)))
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_degenerate_variance_returns_zero(self, rng):
        a = pr.Volume(np.full((5, 5, 5), 2.0, dtype=np.float32))
        b = random_volume(rng, (5, 5, 5))
        assert pr.masked_ncc(a, b, _full_mask((5, 5, 5))) == 0.0

    def test_background_has_no_influence(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        m = np.zeros((6, 6, 6), dtype=np.float32)
        m[2:5, 2:5, 2:5] = 1.0
        mask = pr.Volume(m)
        base = pr.masked_ncc(a, b, mask)
        a2 = a.data.copy()
        a2[m == 0] = 99.0
        assert pr.masked_ncc(a.with_data(a2), b, mask) == base

    def test_empty_mask_rejected(self, rng):
        a = random_volume(rng, (4, 4, 4))
        with pytest.raises(ValidationError):
            pr.masked_ncc(a, a, pr.Volume(np.zeros((4, 4, 4), dtype=np.float32)))

    @pytest.mark.parametrize("mask_voxel,prior_voxel", [(-63.0, 0.0), (-0.5, 0.0), (1.0, -2.0)],
                             ids=["weights-sum-to-0", "negative-mask", "prior-below-minus-1"])
    def test_negative_weight_rejected(self, rng, mask_voxel, prior_voxel):
        m = np.ones((4, 4, 4), dtype=np.float32)
        prior = np.zeros((4, 4, 4), dtype=np.float32)
        m[0, 0, 0], prior[0, 0, 0] = mask_voxel, prior_voxel
        a, b = random_volume(rng, (4, 4, 4)), random_volume(rng, (4, 4, 4))
        with pytest.raises(ValidationError, match=">= 0"):
            pr.masked_ncc(a, b, pr.Volume(m), pr.Volume(prior))

    def test_voxels_are_counted_on_positive_weights(self, rng):
        # two mask voxels, one of them weighted 1 + (-1) = 0
        m = np.zeros((4, 4, 4), dtype=np.float32)
        m[1, 1, 1] = m[2, 2, 2] = 1.0
        prior = np.zeros((4, 4, 4), dtype=np.float32)
        prior[1, 1, 1] = -1.0
        a = random_volume(rng, (4, 4, 4))
        with pytest.raises(ValidationError, match="at least 2 voxels"):
            pr.masked_ncc(a, a, pr.Volume(m), pr.Volume(prior))


class TestSmoothness:
    def test_constant_field_zero(self):
        u = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u[1] = 5.0
        assert pr.smoothness(pr.DisplacementField(u)) == 0.0

    def test_unit_ramp_matches_enumeration(self):
        u = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u[0] = np.arange(4, dtype=np.float32)[:, None, None]
        got = pr.smoothness(pr.DisplacementField(u))
        # 3 forward x-differences of 1 per (y,z) line, 16 lines, 64 voxels
        assert got == pytest.approx(3 * 16 / 64)
        assert got == pytest.approx(oracles.smoothness(u.astype(np.float64)))

    def test_quadratic_scaling(self, rng):
        fld = lattice_safe_field(rng, (4, 4, 4))
        s1 = pr.smoothness(fld)
        s2 = pr.smoothness(fld.with_data(2.0 * fld.data))
        assert s2 == pytest.approx(4.0 * s1, rel=1e-6)

    def test_matches_oracle_random(self, rng):
        fld = lattice_safe_field(rng, (4, 5, 3))
        assert pr.smoothness(fld) == pytest.approx(
            oracles.smoothness(fld.data.astype(np.float64)), abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(10):
            assert pr.smoothness(lattice_safe_field(rng, (4, 4, 4))) >= 0.0


class TestTotalLoss:
    def test_perfect_alignment(self, rng):
        a = random_volume(rng, (6, 6, 6))
        z = pr.zero_field(a)
        lb = pr.total_loss(a, a, z, _full_mask((6, 6, 6)), 0.2)
        assert lb.total == pytest.approx(-1.0)
        assert lb.ncc == pytest.approx(1.0)
        assert lb.smoothness == 0.0

    def test_lambda_zero(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        fld = lattice_safe_field(rng, (6, 6, 6))
        lb = pr.total_loss(a, b, fld, _full_mask((6, 6, 6)), 0.0)
        assert lb.total == pytest.approx(-lb.ncc)

    def test_bookkeeping_identity(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        fld = lattice_safe_field(rng, (6, 6, 6))
        lb = pr.total_loss(a, b, fld, _full_mask((6, 6, 6)), 0.2)
        assert lb.total == pytest.approx(-lb.ncc + 0.2 * lb.smoothness, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_objective_total_equals_loss_total(self, rng, lam):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        obj = Objective(a, b, _full_mask((6, 6, 6)), lam)
        for _ in range(3):
            u = rng.normal(0.0, 1.5, size=(3, 6, 6, 6))
            total, grad = obj.evaluate(u)
            assert total == obj.loss(u).total
            assert grad.shape == u.shape

    def test_evaluate_repeats_its_bits(self, rng):
        # a small chunk splits 12^3 voxels into many chunks and a ragged
        # last one, all through the one sampler the objective holds; a call
        # on another field in between must leave nothing behind
        a = random_volume(rng, (12, 12, 12))
        b = random_volume(rng, (12, 12, 12))
        with mock.patch.object(volgrid, "_CHUNK", 1000):
            obj = Objective(a, b, _full_mask((12, 12, 12)), 0.2)
        u, v = rng.normal(0.0, 1.5, size=(2, 3, 12, 12, 12))
        first = obj.evaluate(u)
        obj.evaluate(v)
        again = obj.evaluate(u)
        assert first[0] == again[0]
        assert first[1].tobytes() == again[1].tobytes()

    def test_warm_ncc_at_allocates_no_sampler_scratch(self, small_phantom):
        # numpy reports its buffers to tracemalloc; a warm call allocates
        # only the sampler's four outputs and the NCC terms (about 1.75 MB
        # at 32^3), not the chunk buffers the objective holds
        img, st, _ = small_phantom
        obj = Objective(img, img, st.body, 0.2)
        coords = np.indices(img.dims, dtype=np.float64) + 0.3
        grad = np.zeros_like(coords)
        obj.ncc_at(coords, grad)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            obj.ncc_at(coords, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_degenerate_flagged(self, rng):
        a = pr.Volume(np.full((5, 5, 5), 1.0, dtype=np.float32))
        b = random_volume(rng, (5, 5, 5))
        lb = pr.total_loss(a, b, pr.zero_field(a), _full_mask((5, 5, 5)), 0.2)
        assert lb.degenerate and lb.ncc == 0.0


@pytest.mark.parametrize("which", ["moving", "mask", "weights", "fld"])
@pytest.mark.parametrize("change", [{"spacing": (2.0, 2.0, 2.0)},
                                    {"origin": (0.0, 0.0, 5.0)}])
def test_loss_refuses_inputs_on_another_grid(rng, which, change):
    # equal dims are not one grid: warp refuses such a pair, so must the loss
    a = random_volume(rng, (6, 6, 6))
    args = dict(fixed=a, moving=random_volume(rng, (6, 6, 6)),
                fld=lattice_safe_field(rng, (6, 6, 6)), mask=_full_mask((6, 6, 6)),
                weights=random_volume(rng, (6, 6, 6)))
    args[which] = replace(args[which], **change)
    for fn in (pr.total_loss, pr.loss_gradient):
        with pytest.raises(ValidationError, match="grids differ"):
            fn(**args)


def _fd_gradient(fixed, moving, u, mask, lam, weights, h=1e-3):
    fd = np.zeros(u.shape)
    for c in range(3):
        for idx in np.ndindex(*u.shape[1:]):
            up = u.astype(np.float64).copy()
            um = u.astype(np.float64).copy()
            up[(c,) + idx] += h
            um[(c,) + idx] -= h
            lp = pr.total_loss(fixed, moving,
                               pr.DisplacementField(up.astype(np.float32)),
                               mask, lam, weights=weights).total
            lm = pr.total_loss(fixed, moving,
                               pr.DisplacementField(um.astype(np.float32)),
                               mask, lam, weights=weights).total
            fd[(c,) + idx] = (lp - lm) / (2 * h)
    return fd


def check_gradient(seed, n, with_mask, with_weights, lam):
    rng = np.random.default_rng(seed)
    fixed = random_volume(rng, (n, n, n))
    moving = random_volume(rng, (n, n, n))
    if with_mask:
        m = (rng.random((n, n, n)) > 0.3).astype(np.float32)
        if m.sum() < 2:
            m[:] = 1.0
        mask = pr.Volume(m)
    else:
        mask = _full_mask((n, n, n))
    weights = pr.Volume(rng.random((n, n, n)).astype(np.float32)) \
        if with_weights else None
    fld = lattice_safe_field(rng, (n, n, n))
    g = pr.loss_gradient(fixed, moving, fld, mask, lam,
                         weights=weights).data.astype(np.float64)
    fd = _fd_gradient(fixed, moving, fld.data, mask, lam, weights)
    scale = np.abs(fd).max()
    rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)),
                                      1e-4 * scale)
    return rel.max()


class TestLossGradient:
    def test_stationary_at_perfect_alignment(self, rng):
        a = random_volume(rng, (6, 6, 6))
        z = pr.zero_field(a)
        g = pr.loss_gradient(a, a, z, _full_mask((6, 6, 6)), 0.0)
        np.testing.assert_allclose(g.data, 0.0, atol=1e-7)

    def test_smoothness_gradient_zero_for_constant_field(self, rng):
        a = random_volume(rng, (5, 5, 5))
        b = random_volume(rng, (5, 5, 5))
        u = np.zeros((3, 5, 5, 5), dtype=np.float32)
        u[0] = 0.25
        # lambda-term only: use a constant fixed image so the NCC term is off
        const = pr.Volume(np.ones((5, 5, 5), dtype=np.float32))
        g = pr.loss_gradient(const, b, pr.DisplacementField(u),
                             _full_mask((5, 5, 5)), 0.2)
        np.testing.assert_allclose(g.data, 0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        assert check_gradient(seed, 5, with_mask=bool(seed % 2),
                              with_weights=bool(seed % 3 == 0),
                              lam=0.2 if seed % 2 else 0.0) < 1e-3

    def test_background_perturbation_bit_identical(self, rng):
        a = random_volume(rng, (6, 6, 6))
        b = random_volume(rng, (6, 6, 6))
        m = np.zeros((6, 6, 6), dtype=np.float32)
        m[1:5, 1:5, 1:5] = 1.0
        mask = pr.Volume(m)
        fld = lattice_safe_field(rng, (6, 6, 6))
        g1 = pr.loss_gradient(a, b, fld, mask, 0.0)
        a2 = a.data.copy()
        a2[m == 0] += 42.0
        g2 = pr.loss_gradient(a.with_data(a2), b, fld, mask, 0.0)
        assert np.array_equal(g1.data, g2.data)
