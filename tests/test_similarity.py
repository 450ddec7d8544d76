import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import protoreg as pr
from protoreg import similarity, volgrid
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
        with mock.patch.object(volgrid, "_SAMPLER_CHUNK", 1000):
            obj = Objective(a, b, _full_mask((12, 12, 12)), 0.2)
        u, v = rng.normal(0.0, 1.5, size=(2, 3, 12, 12, 12))
        first = obj.evaluate(u)
        kept = first[1].copy()
        obj.evaluate(v)
        again = obj.evaluate(u)
        assert first[0] == again[0]
        # against a copy: the gradient evaluate returned is no buffer that a
        # later call writes into
        assert first[1].tobytes() == kept.tobytes() == again[1].tobytes()
        assert not np.shares_memory(first[1], again[1])

    def test_warm_ncc_at_allocates_no_sampler_scratch(self, small_phantom):
        # numpy reports its buffers to tracemalloc; a warm call allocates
        # only the sampler's four outputs on the support and the NCC terms,
        # not the chunk buffers or the full-grid samples the objective holds
        img, st, _ = small_phantom
        obj = Objective(img, img, st.body, 0.2)
        coords = np.indices(img.dims, dtype=np.float64) + 0.3
        points = similarity._cut(coords, obj.support)
        grad = np.zeros_like(points)
        obj.ncc_at(points, grad)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            obj.ncc_at(points, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_warm_evaluate_allocates_only_its_gradient(self, small_phantom):
        # the objective keeps the smoothness pass's differences and float64
        # adjoint, the coordinates and the sampled values between calls, so
        # a warm evaluate allocates the float32 gradient it returns and no
        # more than a few small objects: one float64 copy of one component
        # of the 32^3 grid would be 256 KiB
        img, st, _ = small_phantom
        obj = Objective(img, img, st.body, 0.2)
        u = np.random.default_rng(3).normal(0.0, 0.5, (3,) + img.dims).astype(np.float32)
        obj.evaluate(u)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grad = obj.evaluate(u)[1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert grad.dtype == np.float32
        assert peak - grad.nbytes < 64 * 2 ** 10

    def test_warm_coords_allocate_no_cast_buffer(self, small_phantom):
        # x + u is widened into the float64 buffer before the add, so numpy
        # takes no buffer for a mixed-dtype add: that one would be 64 KiB
        img, st, _ = small_phantom
        obj = Objective(img, img, st.body, 0.2)
        u = np.random.default_rng(3).normal(0.0, 0.5, (3,) + img.dims).astype(np.float32)
        want = obj._ident + similarity._cut(u, obj.support).astype(np.float64)
        obj._coords(u)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            points = obj._coords(u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert points.tobytes() == want.tobytes()
        assert peak < 4 * 2 ** 10

    def test_evaluate_and_smoothness_leave_numpy_state_as_found(self, small_phantom):
        # the smoothness pass shrinks numpy's ufunc buffer inside errstate,
        # which puts the buffer size and the error mask back on the way out
        img, st, _ = small_phantom
        obj = Objective(img, img, st.body, 0.2)
        u = np.random.default_rng(3).normal(0.0, 0.5, (3,) + img.dims).astype(np.float32)
        with np.errstate(divide="ignore", under="warn"):
            old = np.setbufsize(16384)
            try:
                before = np.getbufsize(), np.geterr()
                obj.evaluate(u)
                pr.smoothness(pr.DisplacementField(u))
                assert (np.getbufsize(), np.geterr()) == before
            finally:
                np.setbufsize(old)

    def test_degenerate_flagged(self, rng):
        a = pr.Volume(np.full((5, 5, 5), 1.0, dtype=np.float32))
        b = random_volume(rng, (5, 5, 5))
        lb = pr.total_loss(a, b, pr.zero_field(a), _full_mask((5, 5, 5)), 0.2)
        assert lb.degenerate and lb.ncc == 0.0


def _support_case(rng, case, n=10):
    """(mask, prior) on an n^3 grid whose NCC weights mask * (1 + prior)
    are 0 on some voxels, except for the whole-grid case."""
    mask, prior = np.ones((n, n, n), dtype=np.float32), None
    if case == "holes":
        mask = (rng.random(mask.shape) > 0.4).astype(np.float32)
    elif case == "face-shell":      # one voxel thick, on every face of the grid
        mask[1:-1, 1:-1, 1:-1] = 0.0
    elif case == "prior-zeros":     # masked everywhere, weight 1 + (-1) = 0 on some
        prior = rng.random(mask.shape).astype(np.float32)
        prior[rng.random(mask.shape) < 0.3] = -1.0
    return pr.Volume(mask), None if prior is None else pr.Volume(prior)


class _FullGrid:
    """Objective's ncc_at, loss and evaluate as they were before the NCC was
    cut to the support: moving sampled at every voxel through one
    volgrid._Sampler, and every NCC sum taken over the whole grid, where
    the weights off the support are 0."""

    def __init__(self, fixed, moving, mask, lam, prior):
        self.w = similarity._weights(mask, prior)
        a = fixed.data.astype(np.float64)
        self.wsum = self.w.sum()
        self.A = a - (self.w * a).sum() / self.wsum
        self.s_aa = (self.w * self.A * self.A).sum()
        self.sample = volgrid._Sampler(moving.data)
        self.ident = np.indices(fixed.dims, dtype=np.float64)
        self.lam = lam

    def _ncc(self, b):
        B = b - (self.w * b).sum() / self.wsum
        s_ab = (self.w * self.A * B).sum()
        s_bb = (self.w * B * B).sum()
        if self.s_aa < similarity.VAR_EPS or s_bb < similarity.VAR_EPS:
            return 0.0, None
        ncc = s_ab / np.sqrt(self.s_aa * s_bb)
        return float(ncc), self.w * (self.A - (s_ab / s_bb) * B) / np.sqrt(self.s_aa * s_bb)

    def ncc_at(self, coords, grad):
        b, *db = self.sample(coords, want_grad=True)
        ncc, dncc_db = self._ncc(b)
        if dncc_db is not None:
            for g, d in zip(grad, db):
                g -= dncc_db * d
        return -ncc

    def loss_ncc(self, u):
        u = np.asarray(u, dtype=np.float32).astype(np.float64)
        return self._ncc(self.sample(self.ident + u))[0]

    def evaluate(self, u):
        u = np.asarray(u, dtype=np.float32).astype(np.float64)
        smooth, grad = oracles.smoothness_two_pass(u)
        grad = self.lam * grad
        neg_ncc = self.ncc_at(self.ident + u, grad)
        return neg_ncc + self.lam * smooth, grad


class _OnSupport(_FullGrid):
    """_FullGrid's formulas with every NCC sum taken over the support's
    values alone, in support's order, as Objective takes them: equal to
    _FullGrid when every weight is > 0."""

    def __init__(self, fixed, moving, mask, lam, prior):
        super().__init__(fixed, moving, mask, lam, prior)
        self.on = self.w.reshape(-1) > 0
        self.w = self.w.reshape(-1)[self.on]
        a = fixed.data.astype(np.float64).reshape(-1)[self.on]
        self.wsum = self.w.sum()
        self.A = a - (self.w * a).sum() / self.wsum
        self.s_aa = (self.w * self.A * self.A).sum()
        self.ident = self.ident.reshape(3, -1)[:, self.on]

    def evaluate(self, u):
        u = np.asarray(u, dtype=np.float32).astype(np.float64)
        smooth, grad = oracles.smoothness_two_pass(u)
        grad = (self.lam * grad).reshape(3, -1)
        rows = grad[:, self.on]
        neg_ncc = self.ncc_at(self.ident + u.reshape(3, -1)[:, self.on], rows)
        grad[:, self.on] = rows
        return neg_ncc + self.lam * smooth, grad.reshape(u.shape)


# the k-vector NCC against the whole grid's sums: on 200 random 10^3 cases
# of these kinds the loss did not differ and the NCC gradient differed by at
# most 5.9e-16 of its largest entry
LOSS_ABS, GRAD_REL = 1e-15, 1e-12


def assert_gradient_close(grad, want):
    """grad within GRAD_REL of want's largest entry; a float32 grad is also
    allowed want's float32 rounding (relative 2**-24)."""
    atol = GRAD_REL * np.abs(want).max()
    rtol = 2.0 ** -24 if grad.dtype == np.float32 else 0.0
    np.testing.assert_allclose(grad, want, rtol=rtol, atol=atol)


SUPPORT_CASES = ["holes", "face-shell", "prior-zeros", "whole-grid"]


class TestSupportSampling:
    """The objective samples moving and sums the NCC only where the weight
    is > 0, and matches sampling and summing over every voxel to the last
    bits."""

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_evaluate_and_loss_match_the_full_grid(self, rng, case):
        a, b = random_volume(rng, (10, 10, 10)), random_volume(rng, (10, 10, 10))
        mask, prior = _support_case(rng, case)
        obj = Objective(a, b, mask, 0.2, prior)
        ref = _FullGrid(a, b, mask, 0.2, prior)
        for _ in range(3):
            # displacements of 1.5 voxels send some samples past the grid faces
            u = rng.normal(0.0, 1.5, size=(3, 10, 10, 10))
            total, grad = obj.evaluate(u)
            want_total, want_grad = ref.evaluate(u)
            assert total == pytest.approx(want_total, rel=0, abs=LOSS_ABS)
            assert grad.dtype == np.float32
            assert_gradient_close(grad, want_grad)
            lb = obj.loss(u)
            assert lb.ncc == pytest.approx(ref.loss_ncc(u), rel=0, abs=LOSS_ABS)
            assert lb.total == total

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_ncc_at_matches_the_full_grid(self, rng, case):
        a, b = random_volume(rng, (10, 10, 10)), random_volume(rng, (10, 10, 10))
        mask, prior = _support_case(rng, case)
        obj = Objective(a, b, mask, 0.0, prior)
        ref = _FullGrid(a, b, mask, 0.0, prior)
        coords = np.indices((10, 10, 10), dtype=np.float64) + rng.normal(
            0.0, 1.5, size=(3, 10, 10, 10))
        start = rng.normal(size=coords.shape)      # ncc_at adds into grad
        want_grad = start.copy()
        # ncc_at's gradient lives on the support: (3, k) in support's order
        grad = similarity._cut(start, obj.support)
        got = obj.ncc_at(similarity._cut(coords, obj.support), grad)
        assert got == pytest.approx(ref.ncc_at(coords, want_grad), rel=0, abs=LOSS_ABS)
        assert_gradient_close(grad - similarity._cut(start, obj.support),
                              similarity._cut(want_grad - start, obj.support))

    @pytest.mark.parametrize("case", ["holes", "whole-grid"])
    def test_evaluate_keeps_the_formulas_bits_across_slabs(self, rng, case):
        # slabs of 3 x-planes split the 10^3 grid into four, the last of one
        # plane; the smoothness streams each into the float32 gradient and
        # the support rows, and the gradient must keep the bits of the
        # formulas rounded once
        a, b = random_volume(rng, (10, 10, 10)), random_volume(rng, (10, 10, 10))
        mask, prior = _support_case(rng, case)
        with mock.patch.object(volgrid, "_CHUNK", 3 * 10 * 10):
            obj = Objective(a, b, mask, 0.2, prior)
        ref = _OnSupport(a, b, mask, 0.2, prior)
        for _ in range(3):
            u = rng.normal(0.0, 1.5, size=(3, 10, 10, 10))
            total, grad = obj.evaluate(u)
            want_total, want_grad = ref.evaluate(u)
            assert grad.tobytes() == want_grad.astype(np.float32).tobytes()
            # and before the rounding, the support rows in float64
            assert obj._rows.tobytes() == want_grad.reshape(3, -1)[:, ref.on].tobytes()
            assert total == pytest.approx(want_total, rel=0, abs=LOSS_ABS)

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_objective_keeps_the_support_coordinates_alone(self, rng, case):
        a, b = random_volume(rng, (10, 10, 10)), random_volume(rng, (10, 10, 10))
        mask, prior = _support_case(rng, case)
        obj = Objective(a, b, mask, 0.2, prior)
        ident = np.indices((10, 10, 10), dtype=np.float64).reshape(3, -1)
        want = ident[:, similarity._weights(mask, prior).reshape(-1) > 0]
        assert obj._ident.tobytes() == want.tobytes()

    def test_lambda_0_gradient_differs_at_most_in_signed_zeros_off_the_support(self, rng):
        # at lambda 0 the smoothness term leaves -0.0 entries, and off the
        # support the full grid subtracts 0 * gradient of moving, whose sign
        # of zero the support cannot know; the values are equal
        a, b = random_volume(rng, (10, 10, 10)), random_volume(rng, (10, 10, 10))
        mask, prior = _support_case(rng, "holes")
        obj = Objective(a, b, mask, 0.0, prior)
        u = rng.normal(0.0, 1.5, size=(3, 10, 10, 10))
        grad = obj.evaluate(u)[1]
        want = _FullGrid(a, b, mask, 0.0, prior).evaluate(u)[1].astype(np.float32)
        assert np.array_equal(grad, want)
        differs = grad.view(np.int32) != want.view(np.int32)
        assert not np.any(differs & (mask.data[None] > 0)) and np.all(grad[differs] == 0)

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
    """Central differences of total_loss at the float32 field u, each
    element moved by +-h in float64 and rounded to float32 in place, on one
    objective that scores every trial."""
    obj = similarity._objective(fixed, moving, pr.DisplacementField(u), mask, lam, weights)
    v = u.copy()
    fd = np.zeros(u.shape)
    for i in np.ndindex(*u.shape):
        v[i] = float(u[i]) + h
        lp = obj.loss(v).total
        v[i] = float(u[i]) - h
        lm = obj.loss(v).total
        v[i] = u[i]
        fd[i] = (lp - lm) / (2 * h)
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
