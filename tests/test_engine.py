import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.ndimage import correlate1d, gaussian_filter

import protoreg as pr
from protoreg import engine, similarity, volgrid
from protoreg.engine import resample_rigid
from protoreg.errors import ValidationError
from protoreg.volgrid import _Sampler

import oracles
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

    @pytest.mark.parametrize("rigid", [None, pr.RigidTransform()])
    def test_image_rejected(self, small_phantom, rigid):
        img, _, _ = small_phantom
        with pytest.raises(ValidationError, match="0/1"):
            pr.warp_contour(img, pr.zero_field(img), rigid)

    @pytest.mark.parametrize("rigid", [None, pr.RigidTransform()])
    def test_contour_is_checked_before_it_is_warped(self, small_phantom, rigid):
        # a 0.5-valued mask on a grid other than the field's is refused as a
        # contour, and neither warp nor resample_rigid samples it first
        _, st, _ = small_phantom
        half = pr.Volume(np.full((4, 4, 4), 0.5, dtype=np.float32))
        with mock.patch.object(engine, "warp") as warp, \
                mock.patch.object(engine, "resample_rigid") as resample:
            with pytest.raises(ValidationError, match="0/1"):
                pr.warp_contour(half, pr.zero_field(st.ctv), rigid)
        assert not warp.called and not resample.called


class TestWarpRigid:
    def test_zero_field_is_resample_rigid(self, small_phantom):
        img, _, _ = small_phantom
        t = pr.RigidTransform(rotation=(0.05, -0.02, 0.1), translation=(1.5, -1.0, 0.5),
                              center=engine._physical_center(img))
        got = resample_rigid(img, pr.zero_field(img), t)
        assert got.data.tobytes() == resample_rigid(img, img, t).data.tobytes()

    def test_identity_transform_is_warp(self, small_phantom, rng):
        img, _, _ = small_phantom
        fld = lattice_safe_field(rng, img.dims)
        got = resample_rigid(img, fld, pr.RigidTransform(center=(3.0, -2.0, 1.0)))
        np.testing.assert_allclose(got.data, pr.warp(img, fld).data, atol=1e-5)

    def test_moving_on_fewer_voxels(self, small_phantom):
        # an unpadded moving mask: sampled in mm, onto the field's grid
        _, st, _ = small_phantom
        cut = pr.Volume(st.ctv.data[:, :, :20].copy(), spacing=st.ctv.spacing,
                        origin=st.ctv.origin)
        got = pr.warp_contour(cut, pr.zero_field(st.ctv), pr.RigidTransform())
        assert got.dims == st.ctv.dims
        assert np.array_equal(got.data[:, :, :19], st.ctv.data[:, :, :19])
        assert not got.data[:, :, 20:].any()

    def test_moving_on_fewer_voxels_equals_oracle(self, small_phantom, rng):
        img, _, _ = small_phantom
        cut = pr.Volume(img.data[:, :, :20].copy(), spacing=img.spacing, origin=img.origin)
        fld = lattice_safe_field(rng, img.dims, scale=1.5)
        t = pr.RigidTransform(rotation=(0.05, -0.02, 0.1), translation=(1.5, -1.0, 0.5),
                              center=engine._physical_center(img))
        index = np.indices(fld.dims, dtype=np.float64)
        voxels = engine._rigid_mapping(cut, fld, t.center, index)[-1]
        want = oracles.trilinear_arrays(
            cut.data, *voxels(t.matrix(), t.translation, fld.data.astype(np.float64)))
        got = resample_rigid(cut, fld, t)
        assert got.data.tobytes() == want.astype(np.float32).tobytes()

    def test_blocks_keep_the_whole_grid_bits(self):
        # at 64^3 resample_rigid maps and samples 8 x-planes at a time; a
        # 3 deg / 3 mm set-up error, with and without a field, must give
        # the bytes of mapping every voxel at once, and so must the
        # contour warped through them
        img, st, _ = pr.make_phantom(pr.PhantomSpec())
        assert img.dims == (64, 64, 64)
        center = engine._physical_center(img)
        t = pr.RigidTransform(rotation=(0.03, -0.025, 0.035),
                              translation=(1.8, -1.7, 1.6), center=center)
        fld = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 6.0, 5),
                                   envelope=st.body.data)
        voxels = engine._rigid_mapping(img, img, center,
                                       np.indices(img.dims, dtype=np.float64))[-1]
        for vol in (img, st.ctv):
            for like, u in ((img, None), (fld, fld.data.astype(np.float64))):
                want = _Sampler(vol.data)(voxels(t.matrix(), t.translation, u))
                want = want.astype(np.float32)
                assert resample_rigid(vol, like, t).data.tobytes() == want.tobytes()
        # want is the CTV through the field now, which warp_contour binarizes
        got = pr.warp_contour(st.ctv, fld, t).data
        assert got.tobytes() == (want >= 0.5).astype(np.float32).tobytes()


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

    def test_non_numeric_transform_rejected(self):
        with pytest.raises(ValidationError):
            pr.RigidTransform(rotation=("a", 0, 0))


@pytest.fixture(scope="module")
def rigid_levels():
    """16^3 and 32^3 rigid pyramid levels of the default phantom against a
    rigidly moved copy, with the level masks rigid_align uses."""
    img, st, _ = pr.make_phantom(pr.PhantomSpec())
    center = engine._physical_center(img)
    moving = resample_rigid(img, img, pr.RigidTransform(
        rotation=(0.1, -0.12, 0.15), translation=(2.0, -1.0, 1.5),
        center=center))
    levels = engine._level_inputs(img, moving, st.body, engine.RIGID_LEVELS)
    return center, {levels[li][0].dims[0]: levels[li][:3] for li in (1, 2)}


class TestLevelInputs:
    """One foreground rule for the rigid stages and the pyramid levels."""

    def test_mask_is_pooled_body(self):
        img, st, _ = pr.make_phantom(pr.PhantomSpec())
        levels = engine._level_inputs(img, img, st.body, 5)
        pooled = pr.build_pyramid(st.body, 5)
        assert len(levels) == len(pooled) == 5
        for (f_l, m_l, k_l, degenerate), want in zip(levels, pooled):
            assert not degenerate
            assert k_l.data.tobytes() == want.data.tobytes()
            assert f_l.dims == m_l.dims == k_l.dims == want.dims
        # the pooled masks hold fractional weights, not just 0 and 1
        assert np.any((pooled[1].data > 0) & (pooled[1].data < 1))

    def test_one_voxel_body_is_whole_grid(self, small_phantom):
        img, _, _ = small_phantom
        body = np.zeros(img.dims, dtype=np.float32)
        body[16, 16, 16] = 1.0
        for _, _, k_l, degenerate in engine._level_inputs(img, img, img.with_data(body), 3):
            assert degenerate
            assert np.all(k_l.data == 1.0)

    def test_rigid_align_and_register_share_level_masks(self, small_phantom, monkeypatch):
        img, st, _ = small_phantom
        seen = {"rigid": {}, "register": {}}
        stage = ["rigid"]

        def recording(fixed, moving, mask, *args, **kwargs):
            seen[stage[0]][mask.dims] = mask.data
            return similarity.Objective(fixed, moving, mask, *args, **kwargs)
        monkeypatch.setattr(engine, "Objective", recording)
        config = pr.RegConfig(levels=3, iterations=(2, 2, 2), rigid_iterations=(2, 2))
        pr.rigid_align(img, img, st.body, config)
        stage[0] = "register"
        pr.register(img, img, config, structures=st)
        shared = seen["rigid"].keys() & seen["register"].keys()
        assert shared == {(8, 8, 8), (16, 16, 16)}
        for dims in shared:
            assert np.array_equal(seen["rigid"][dims], seen["register"][dims])


# angles large enough that the order of the Euler factors shows
RIGID_PARAMS = np.array([-0.05, 0.08, -0.1, -1.0, 0.5, -0.8])


class TestRigidObjective:
    @pytest.mark.parametrize("n", [16, 32])
    def test_gradient_vs_finite_differences(self, rigid_levels, n):
        center, levels = rigid_levels
        fixed, moving, mask = levels[n]
        evaluate = engine._rigid_evaluator(
            pr.similarity.Objective(fixed, moving, mask, 0.0), center)

        def loss(p):
            return evaluate(p)[0]
        value, g = evaluate(RIGID_PARAMS)
        assert value == loss(RIGID_PARAMS)
        h = np.array([1e-3] * 3 + [0.1] * 3)        # rad, mm
        fd = np.empty(6)
        for j in range(6):
            dp = np.zeros(6)
            dp[j] = h[j]
            fd[j] = (loss(RIGID_PARAMS + dp) - loss(RIGID_PARAMS - dp)) / (2.0 * h[j])
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
        evaluate = engine._rigid_evaluator(
            pr.similarity.Objective(fixed, moving, mask, 0.0), center)
        got, g = evaluate(RIGID_PARAMS)
        assert g.shape == (6,)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("n", [16, 32])
    def test_loss_is_ncc_at_rigid_coordinates(self, rigid_levels, n):
        # a trial is scored where T maps each voxel, with nothing rounded
        # to float32 on the way, so the loss matches the NCC core's on the
        # support bit for bit
        center, levels = rigid_levels
        fixed, moving, mask = levels[n]
        t = pr.RigidTransform(rotation=tuple(RIGID_PARAMS[:3]),
                              translation=tuple(RIGID_PARAMS[3:]), center=center)
        voxels = engine._rigid_mapping(moving, fixed, center,
                                       np.indices(fixed.dims, dtype=np.float64))[-1]
        b = _Sampler(moving.data)(voxels(t.matrix(), t.translation))
        w = similarity._weights(mask, None)
        support = np.flatnonzero(w)
        w, b = similarity._cut(w, support), similarity._cut(b, support)
        fixed_side = similarity._fixed_side(
            similarity._cut(fixed.data, support).astype(np.float64), w)
        ncc, degenerate, _, _ = similarity._ncc_core(fixed_side, b, w, np.empty_like(b))
        assert not degenerate
        evaluate = engine._rigid_evaluator(
            pr.similarity.Objective(fixed, moving, mask, 0.0), center)
        assert evaluate(RIGID_PARAMS)[0] == -ncc

    @pytest.mark.parametrize("n", [16, 32])
    def test_support_coordinates_keep_the_full_grid_bits(self, rigid_levels, n):
        # the rigid stages map only the objective's support through T; the
        # coordinates, the loss and its gradient must keep the bits of
        # mapping every voxel and cutting to the support afterwards
        center, levels = rigid_levels
        fixed, moving, mask = levels[n]
        obj = pr.similarity.Objective(fixed, moving, mask, 0.0)
        assert obj.support.size < mask.data.size
        t = pr.RigidTransform(rotation=tuple(RIGID_PARAMS[:3]),
                              translation=tuple(RIGID_PARAMS[3:]), center=center)
        full = engine._rigid_mapping(moving, fixed, center,
                                     np.indices(fixed.dims, dtype=np.float64))[1](
            t.matrix(), t.translation)
        index = np.array(np.unravel_index(obj.support, fixed.dims), dtype=np.float64)
        cut = engine._rigid_mapping(moving, fixed, center, index[..., None, None])[1](
            t.matrix(), t.translation)
        full = similarity._cut(full, obj.support)
        assert cut.tobytes() == full.tobytes()
        g_full, g_cut = np.zeros((2, 3, obj.support.size))
        assert obj.ncc_at(full, g_full) == obj.ncc_at(cut, g_cut)
        assert g_full.tobytes() == g_cut.tobytes()


# a quadratic bowl with minimum 1 at C, in the shape of its argument: a
# vector, or FIELD, a field of four components on a one-voxel grid, as
# _descend takes it
C = np.array([1.0, -2.0, 0.5, 3.0])
FIELD = (4, 1, 1, 1)


def _bowl(x):
    return float(((x - C.reshape(x.shape)) ** 2).sum()) + 1.0


def _bowl_evaluate(x):
    return _bowl(x), 2.0 * (x - C.reshape(x.shape))


def _plain_descend(loss, gradient, x, lr, iterations, eps, scale=1.0, passes=0):
    """_descend's step rule at tol 0, step lr and epsilon eps, evaluated
    plainly: a fresh gradient every iteration, one step over the whole of x,
    smoothed by `passes` binomial passes, and every trial scored by loss
    alone."""
    cur = loss(x)
    trajectory = [cur]
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    start, streak = 0, 0
    for it in range(iterations):
        g = gradient(x)
        m1 = 0.9 * m1 + (1.0 - 0.9) * g
        m2 = 0.999 * m2 + (1.0 - 0.999) * g * g
        step = (lr * (m1 / (1.0 - 0.9 ** (it + 1)))
                / (np.sqrt(m2 / (1.0 - 0.999 ** (it + 1))) + eps) * scale)
        engine._binomial(step, passes, np.empty_like(step))
        for k in range(start, len(engine.STEP_FACTORS)):
            cand = x - engine.STEP_FACTORS[k] * step
            val = loss(cand)
            if math.isfinite(val) and val <= cur:
                x, cur = cand, val
                if k > start:
                    start, streak = k, 0
                else:
                    streak += 1
                    if streak == engine.STEP_UP_AFTER:
                        start, streak = max(start - 1, 0), 0
                break
        else:
            streak = 0
        trajectory.append(cur)
    return x, trajectory


def _level_constants(monkeypatch, step, eps=engine.LEVEL_EPS):
    """_descend's step and epsilon set to step and eps for one test."""
    monkeypatch.setattr(engine, "LEVEL_STEP", step)
    monkeypatch.setattr(engine, "LEVEL_EPS", eps)


class TestDescend:
    def test_trajectory_and_window_rule(self, monkeypatch):
        _level_constants(monkeypatch, 0.1, 1e-8)
        x0 = np.zeros(FIELD)
        x, traj, counters = engine._descend(_bowl_evaluate, x0, 200, 1e-5)
        assert traj[0] == _bowl(x0)
        assert traj[-1] == _bowl(x)
        assert np.all(np.diff(traj) <= 0.0)
        assert np.abs(x - C.reshape(FIELD)).max() < 0.01
        # stopped early, by the window rule
        assert len(traj) < 200 + 1
        prev = traj[-1 - engine.LEVEL_WINDOW]
        assert abs(prev - traj[-1]) / abs(prev) < 1e-5
        assert counters["stop_reason"] == "converged"
        assert sum(counters["accepted"].values()) + counters["rejected"] == len(traj) - 1

    def test_rigid_rule_runs_full_budget(self, monkeypatch):
        # started at the minimum the loss never changes, so only tol 0
        # keeps the descent going
        _level_constants(monkeypatch, 0.1, 1e-12)
        _, traj, counters = engine._descend(_bowl_evaluate, C.reshape(FIELD), 30, 0.0)
        assert traj == [1.0] * 31
        assert counters["stop_reason"] == "iteration_cap"
        _, traj, counters = engine._descend(_bowl_evaluate, C.reshape(FIELD), 30, 1e-5)
        assert len(traj) == engine.LEVEL_WINDOW + 1
        assert counters["stop_reason"] == "converged"

    def test_evaluations_count_the_calls(self, monkeypatch):
        _level_constants(monkeypatch, 0.1, 1e-8)
        calls = []

        def evaluate(x):
            calls.append(x)
            return _bowl_evaluate(x)
        _, traj, counters = engine._descend(evaluate, np.zeros(FIELD), 200, 1e-5)
        assert counters["evaluations"] == len(calls) >= len(traj)

    def test_non_finite_trials_rejected(self, monkeypatch):
        _level_constants(monkeypatch, 0.1, 1e-8)

        def loss(x):
            return math.inf if x.flat[0] > 0.5 else _bowl(x)
        def evaluate(x):
            return loss(x), _bowl_evaluate(x)[1]
        x, traj, _ = engine._descend(evaluate, np.zeros(FIELD), 50, 0.0)
        assert x.flat[0] <= 0.5
        assert all(math.isfinite(v) for v in traj)
        assert np.all(np.diff(traj) <= 0.0)

    def test_start_is_never_written(self, monkeypatch):
        # the descent steps in buffers of its own and swaps trial and
        # iterate; rejected trials (a loss of inf past x[0] = 0.5) run the
        # same swap-free path
        _level_constants(monkeypatch, 0.1, 1e-8)
        x0 = np.array([0.3, -0.7, 0.1, 0.9]).reshape(FIELD)
        before = x0.copy()

        def evaluate(x):
            return (math.inf if x.flat[0] > 0.5 else _bowl(x)), _bowl_evaluate(x)[1]
        x, _, counters = engine._descend(evaluate, x0, 30, 0.0)
        assert x0.tobytes() == before.tobytes()
        assert not np.shares_memory(x, x0) and not np.array_equal(x, x0)
        assert counters["evaluations"] > 31

    def test_non_finite_initial_loss_raises(self, monkeypatch):
        _level_constants(monkeypatch, 0.1, 1e-8)
        with pytest.raises(ValidationError, match="non-finite"):
            engine._descend(lambda x: (math.nan, x), np.zeros(FIELD), 10, 1e-5)


    def test_fused_trials_match_the_plain_rule(self, small_phantom, monkeypatch):
        # reusing a taken first trial's gradient, and the one of an
        # all-rejected iteration, changes no bit of the descent
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        obj = similarity.Objective(pr.warp(img, g), img, st.body, 0.2)
        x0 = np.zeros((3,) + img.dims)
        # a step of 0.5 voxels, large enough that some trials are rejected
        _level_constants(monkeypatch, 0.5)
        x, traj, counters = engine._descend(obj.evaluate, x0, 25, 0.0)
        want_x, want_traj = _plain_descend(lambda u: obj.loss(u).total,
                                           lambda u: obj.evaluate(u)[1],
                                           x0, 0.5, 25, engine.LEVEL_EPS)
        assert x.tobytes() == want_x.tobytes()
        assert traj == want_traj
        # every iteration took a trial, so each call beyond the start and
        # one per iteration was a rejected trial before a later one was taken
        assert sum(counters["accepted"].values()) == 25
        assert counters["evaluations"] > 1 + 25

    def test_blocked_float32_trials_match_the_plain_rule(self, small_phantom, monkeypatch):
        # a level's float32 descent under a float32 gate, stepped in x-slabs
        # of 3 planes per component, the last of each 2 planes; at a step of
        # 0.5 voxels some trials are rejected, and each retried trial
        # recomputes its step from the moments
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        obj = similarity.Objective(pr.warp(img, g), img, st.body, 0.2)
        x0 = np.zeros((3,) + img.dims, dtype=np.float32)
        gate = np.random.default_rng(5).uniform(0.5, 1.0, img.dims).astype(np.float32)
        assert img.dims[0] % 3 == 2
        _level_constants(monkeypatch, 0.5)
        with mock.patch.object(volgrid, "_CHUNK", 3 * img.dims[1] * img.dims[2]):
            x, traj, counters = engine._descend(obj.evaluate, x0, 25, 0.0, gate)
        want_x, want_traj = _plain_descend(lambda u: obj.loss(u).total,
                                           lambda u: obj.evaluate(u)[1],
                                           x0, 0.5, 25, engine.LEVEL_EPS, gate)
        assert x.dtype == want_x.dtype == np.float32
        assert x.tobytes() == want_x.tobytes()
        assert traj == want_traj
        assert counters["evaluations"] > 1 + 25

    def test_window_of_rejected_iterations_is_a_failed_line_search(self, monkeypatch):
        # the loss stays put because no trial is taken, not because the
        # descent converged; a window in which one trial of equal loss was
        # taken did converge
        _level_constants(monkeypatch, 0.1, 1e-8)
        x0 = np.zeros(FIELD)

        def evaluate(x):
            return (1.0 if np.array_equal(x, x0) else 2.0), _bowl_evaluate(x)[1]
        _, traj, counters = engine._descend(evaluate, x0, 30, 1e-5)
        assert traj == [1.0] * (engine.LEVEL_WINDOW + 1)
        assert counters["rejected"] == engine.LEVEL_WINDOW
        assert counters["stop_reason"] == "line_search_failed"
        taken = iter([False, True] + [False] * 100)

        def one_taken(x):
            return (1.0 if np.array_equal(x, x0) or next(taken) else 2.0), \
                _bowl_evaluate(x)[1]
        _, traj, counters = engine._descend(one_taken, x0, 30, 1e-5)
        assert len(traj) == engine.LEVEL_WINDOW + 1 and counters["rejected"] < engine.LEVEL_WINDOW
        assert counters["stop_reason"] == "converged"

    def test_rejected_iteration_reuses_its_gradient(self, monkeypatch):
        _level_constants(monkeypatch, 0.1, 1e-8)
        x0 = np.zeros(FIELD)
        at_start = []

        def evaluate(x):
            at_start.append(np.array_equal(x, x0))
            return (1.0 if at_start[-1] else 2.0), _bowl_evaluate(x)[1]
        x, traj, counters = engine._descend(evaluate, x0, 6, 0.0)
        assert np.array_equal(x, x0) and traj == [1.0] * 7
        # the start is scored once, then only the trials, four per iteration
        assert at_start == [True] + [False] * 24
        assert counters["evaluations"] == 25
        assert counters["rejected"] == 6
        assert counters["stop_reason"] == "iteration_cap"

    def test_start_factor_stays_then_steps_up(self, monkeypatch):
        # loss -x[0] with gradient -1, so Adam steps by about +1 and a
        # trial's factor is its distance from the current x; allowed[i] is
        # the largest factor iteration i accepts
        allowed = [0.25, 1, 1, 1, 1, 1, 1, 0.5, 1, 1, 1]
        tried = []                              # (iteration, factor)
        state = {"x": 0.0, "taken": 0}

        def loss(c):
            f = c.flat[0] - state["x"]
            if abs(f) < 1e-9:                   # the current x itself
                return -c.flat[0]
            f = min(engine.STEP_FACTORS, key=lambda s: abs(s - f))
            it = state["taken"]
            tried.append((it, f))
            if f > allowed[it]:
                return math.inf
            state["x"], state["taken"] = c.flat[0], it + 1
            return -c.flat[0]

        _level_constants(monkeypatch, 1.0, 1e-12)
        _, _, counters = engine._descend(lambda c: (loss(c), -np.ones(c.shape)),
                                         np.zeros((1, 1, 1, 1)), len(allowed), 0.0)
        first = [next(f for i, f in tried if i == it) for it in range(len(allowed))]
        assert first == [1, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 1, 0.5, 0.5, 0.5]
        assert counters["accepted"] == {"1": 0, "0.5": 7, "0.25": 4, "0.125": 0}
        # the start, then the 14 trials: one per iteration and 3 rejected
        assert counters["evaluations"] == 15


class TestFloat32Descent:
    """Each level descends in float32, the dtype of the field it starts from."""

    def test_descent_runs_in_the_start_dtype(self, monkeypatch):
        dims = (4, 5, 6)
        target = np.linspace(-1.0, 1.0, 3 * 4 * 5 * 6).reshape((3,) + dims)
        seen = []

        def evaluate(x):
            seen.append(x.dtype)
            d = x.astype(np.float64) - target
            return float((d * d).sum()), (2.0 * d).astype(np.float32)
        gate = np.full(dims, 0.75, dtype=np.float32)
        x0 = np.zeros((3,) + dims, dtype=np.float32)
        for passes in (0, 2):       # the step as it is, and smoothed
            seen.clear()
            x, traj, _ = engine._descend(evaluate, x0, 12, 0.0, gate, passes)
            assert x.dtype == np.float32 and set(seen) == {np.dtype(np.float32)}
            assert traj[-1] < traj[0] and not x0.any()      # the start is not written
        # the step's scalars are Python floats, each level's step included:
        # a numpy float64 one would promote the step to float64 (NEP 50)
        assert [type(v) for v in (engine.LEVEL_STEP, engine.MIDDLE_STEP, engine.LEVEL_EPS)] \
            == [float] * 3
        # a float64 start stays float64
        _level_constants(monkeypatch, 0.1, 1e-12)
        p, _, _ = engine._descend(_bowl_evaluate, np.zeros(FIELD), 5, 0.0)
        assert p.dtype == np.float64

    def test_register_hands_every_level_float32(self, small_phantom, monkeypatch):
        img, st, dose = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        calls = []
        descend = engine._descend

        def recorded(evaluate, x, iterations, tol, gate=None, passes=0):
            out = descend(evaluate, x, iterations, tol, gate, passes)
            calls.append((x.dtype, out[0].dtype,
                          gate if gate is None else (gate.dtype, gate.shape == x.shape[1:]),
                          passes))
            return out
        monkeypatch.setattr(engine, "_descend", recorded)
        f32 = np.dtype(np.float32)
        # under use_gate a float32 gate over each level's grid; prior-free,
        # none; three levels smooth no step
        gated = replace(FAST, use_anatomy=True, use_risk=True, use_gate=True)
        for cfg, want_gate in ((gated, (f32, True)), (FAST, None)):
            calls.clear()
            fld, rep = pr.register(pr.warp(img, g), img, cfg, structures=st, dose=dose)
            assert len(calls) == len(rep.levels)
            assert calls == [(f32, f32, want_gate, 0)] * len(calls)
            assert fld.data.dtype == f32
        # by pyramid position, coarse first: the two coarsest and the finest
        # level take the step as it is, every other level smooths it, and
        # stays float32 (a 49^3 grid allows 5 levels, 97^3 allows 6)
        want = {1: [0], 2: [0, 0], 3: [0, 0, 0], 4: [0, 0, 2, 0], 5: [0, 0, 2, 2, 0],
                6: [0, 0, 2, 2, 2, 0]}
        assert engine.MIDDLE_STEP_PASSES == 2
        rng = np.random.default_rng(3)
        for n, sizes in ((49, range(1, 6)), (97, (6,))):
            vol = pr.Volume(gaussian_filter(rng.random((n,) * 3), 2.0).astype(np.float32))
            for levels in sizes:
                calls.clear()
                cfg = pr.RegConfig(levels=levels, iterations=(1,), convergence_tol=0.0)
                fld, rep = pr.register(pr.warp(vol, pr.make_smooth_field(
                    vol.dims, pr.FieldSpec(1.0, 4.0, 5))), vol, cfg)
                assert len(rep.levels) == levels and not rep.flags
                assert calls == [(f32, f32, None, k) for k in want[levels]]
                assert fld.data.dtype == f32

    def test_float32_descent_stays_near_the_float64_one(self, small_phantom):
        # the same descent from a float64 start rounds every trial to
        # float32 only where evaluate scores it; on this setup the largest
        # |dx| is 2e-5 voxel and the relative loss gap 2.5e-9 after 25 iterations
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        obj = similarity.Objective(pr.warp(img, g), img, st.body, 0.2)
        runs = [engine._descend(obj.evaluate, np.zeros((3,) + img.dims, dtype=dtype), 25, 0.0)
                for dtype in (np.float32, np.float64)]
        (x32, traj32, counters32), (x64, traj64, counters64) = runs
        assert x32.dtype == np.float32 and x64.dtype == np.float64
        assert counters32 == counters64
        diff = np.abs(x32 - x64)
        assert diff.max() < 5e-3 and diff.mean() < 1e-5
        assert traj32[-1] == pytest.approx(traj64[-1], rel=1e-7)


class TestSmoothedStep:
    """The middle levels smooth the Adam step with _binomial."""

    @pytest.mark.parametrize("shape", [(3, 5, 7, 9), (3, 1, 6, 5), (2, 7, 1, 3),
                                       (3, 4, 3, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    def test_binomial_matches_correlate1d(self, shape, passes):
        a = np.random.default_rng(len(shape) + passes).normal(size=shape).astype(np.float32)
        want = a.astype(np.float64)
        for _ in range(passes):
            for axis in (1, 2, 3):
                want = correlate1d(want, [0.25, 0.5, 0.25], axis=axis, mode="nearest")
        scratch = np.empty_like(a)
        engine._binomial(a, passes, scratch)
        assert a.dtype == np.float32
        # within float32 rounding of the largest value
        np.testing.assert_allclose(a, want, rtol=0, atol=4e-7 * np.abs(want).max())

    def test_binomial_refuses_a_strided_array(self):
        # its flat strides would not be the array's, or its flat views copies
        a = np.zeros((3, 4, 5, 12), dtype=np.float32)
        for bad, scratch in ((a[..., ::2], np.empty((3, 4, 5, 6), np.float32)),
                             (a, np.empty((3, 4, 5, 24), np.float32)[..., ::2])):
            with pytest.raises(ValueError, match="C-contiguous"):
                engine._binomial(bad, 1, scratch)

    def test_smoothed_trials_match_the_plain_rule(self, small_phantom, monkeypatch):
        # a float32 descent under a gate with two passes: at a step of 4
        # voxels some trials are rejected (at 0.5 to 2 none is), and each
        # retried trial forms and smooths its step again from the moments
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        obj = similarity.Objective(pr.warp(img, g), img, st.body, 0.2)
        x0 = np.zeros((3,) + img.dims, dtype=np.float32)
        gate = np.random.default_rng(5).uniform(0.5, 1.0, img.dims).astype(np.float32)
        # a smoothed descent steps by MIDDLE_STEP, whatever LEVEL_STEP is
        monkeypatch.setattr(engine, "MIDDLE_STEP", 4.0)
        with mock.patch.object(volgrid, "_CHUNK", 3 * img.dims[1] * img.dims[2]):
            x, traj, counters = engine._descend(obj.evaluate, x0, 25, 0.0, gate, 2)
        want_x, want_traj = _plain_descend(lambda u: obj.loss(u).total,
                                           lambda u: obj.evaluate(u)[1],
                                           x0, 4.0, 25, engine.LEVEL_EPS, gate, 2)
        assert x.dtype == want_x.dtype == np.float32
        assert x.tobytes() == want_x.tobytes()
        assert traj == want_traj
        assert counters["evaluations"] > 1 + 25
        # and the smoothing moved the descent, at the same step
        _level_constants(monkeypatch, 4.0)
        unsmoothed, _, _ = engine._descend(obj.evaluate, x0, 25, 0.0, gate)
        assert not np.array_equal(x, unsmoothed)

    def test_smoothed_descent_stops_by_the_middle_tolerance(self, monkeypatch):
        # on a bowl with a uniform minimum the smoothing leaves the uniform
        # step as it is, so at one step size the two descents agree until
        # the smoothed one stops, on a window tolerance MIDDLE_TOL_SCALE
        # times looser; the unsmoothed one runs on. The bowl's floor is
        # high, so that the relative change falls under the looser
        # tolerance halfway down
        monkeypatch.setattr(engine, "MIDDLE_STEP", engine.LEVEL_STEP)
        target = np.full((3, 4, 4, 4), 2.0)

        def evaluate(x):
            d = x - target
            return float((d * d).sum()) + 3e5, 2.0 * d
        tol = 1e-5
        x0 = np.zeros_like(target)
        _, smoothed, counters = engine._descend(evaluate, x0, 200, tol, None, 2)
        _, plain, _ = engine._descend(evaluate, x0, 200, tol)
        assert counters["stop_reason"] == "converged"
        assert smoothed == plain[:len(smoothed)] and len(smoothed) < len(plain)
        prev = smoothed[-1 - engine.LEVEL_WINDOW]
        assert tol <= (prev - smoothed[-1]) / prev < engine.MIDDLE_TOL_SCALE * tol

    @pytest.mark.parametrize("passes,fields", [(0, 4), (2, 5)])
    def test_descent_holds_four_fields_and_a_fifth_to_smooth(self, passes, fields):
        # the iterate, the trial and the two moments, and _binomial's
        # scratch at a smoothed level; the rest (a slab of scratch, a third
        # of a field at 32^3, and temporaries) stays under one field more
        x0 = np.zeros((3, 32, 32, 32), dtype=np.float32)
        g = np.full_like(x0, 0.5)
        tracemalloc.start()
        try:
            engine._descend(lambda x: (0.0, g), x0, 3, 0.0, None, passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fields * x0.nbytes <= peak < (fields + 1) * x0.nbytes


# a bowl whose curvatures span 1 to 1000 across its six axes
BOWL_CURVATURE = np.geomspace(1.0, 1000.0, 6)
BOWL_MIN = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])


def _steep_bowl(x):
    d = x - BOWL_MIN
    return 0.5 * float((BOWL_CURVATURE * d * d).sum()) + 1.0, BOWL_CURVATURE * d


class TestQuasiNewton:
    def test_reaches_an_ill_conditioned_minimum(self):
        x0 = np.zeros(6)
        x, traj, counters = engine._quasi_newton(_steep_bowl, x0, 100)
        # 37 iterations here, each taking its first trial
        assert len(traj) - 1 <= 40
        assert np.abs(x - BOWL_MIN).max() < 1e-5
        assert traj[0] == _steep_bowl(x0)[0] and traj[-1] == _steep_bowl(x)[0]
        assert np.all(np.diff(traj) <= 0.0)
        assert counters["evaluations"] >= len(traj)
        assert not x0.any()                     # the start is not written

    def test_gradient_stop(self):
        # a plain bowl stops on the gradient rule, as does a start at its
        # minimum, before any trial
        x, traj, counters = engine._quasi_newton(_bowl_evaluate, np.zeros(4), 100)
        assert counters["stop_reason"] == "gradient"
        assert np.abs(_bowl_evaluate(x)[1]).max() <= engine.QN_GRADIENT_TOL
        _, traj, counters = engine._quasi_newton(_bowl_evaluate, C.copy(), 100)
        assert traj == [1.0]
        assert counters == {"stop_reason": "gradient", "evaluations": 1}

    def test_relative_decrease_stop(self):
        # an offset of 1e12 makes each step's decrease about 1e-12 of the loss
        def evaluate(x):
            loss, grad = _bowl_evaluate(x)
            return loss + 1e12, grad
        _, traj, counters = engine._quasi_newton(evaluate, np.zeros(4), 100)
        assert len(traj) == 2 and traj[1] < traj[0]
        assert counters == {"stop_reason": "relative_decrease", "evaluations": 2}

    def test_iteration_cap(self):
        _, traj, counters = engine._quasi_newton(_steep_bowl, np.zeros(6), 3)
        assert len(traj) == 4
        assert counters["stop_reason"] == "iteration_cap"

    def test_line_search_failure(self):
        # every trial is non-finite: each is halved, and none is taken
        def evaluate(x):
            return (1.0 if not x.any() else math.nan), np.ones(4)
        x, traj, counters = engine._quasi_newton(evaluate, np.zeros(4), 100)
        assert not x.any() and traj == [1.0]
        assert counters == {"stop_reason": "line_search_failed",
                            "evaluations": 2 + engine.QN_HALVINGS}

    def test_non_finite_trials_backtracked(self):
        # the minimum lies behind a wall of inf at x[0] > 0.5
        def evaluate(x):
            loss, grad = _bowl_evaluate(x)
            return (math.inf if x[0] > 0.5 else loss), grad
        x, traj, counters = engine._quasi_newton(evaluate, np.zeros(4), 100)
        assert x[0] <= 0.5
        assert all(math.isfinite(v) for v in traj)
        assert np.all(np.diff(traj) <= 0.0)
        assert traj[-1] < traj[0]
        # some trial was refused: more calls than the start and one per step
        assert counters["evaluations"] > len(traj)

    def test_non_finite_start_raises(self):
        with pytest.raises(ValidationError,
                           match="^non-finite loss at the start of a descent$"):
            engine._quasi_newton(lambda x: (math.inf, x), np.zeros(4), 10)

    def test_zero_budget_returns_the_start(self):
        x0 = np.array([0.3, -0.7, 0.1, 0.9])
        x, traj, counters = engine._quasi_newton(_bowl_evaluate, x0, 0)
        assert x.tobytes() == x0.tobytes() and not np.shares_memory(x, x0)
        assert traj == [_bowl(x0)]
        assert counters == {"stop_reason": "iteration_cap", "evaluations": 1}

    def test_rigid_stages_evaluation_budget(self, small_phantom):
        # a 2 deg / 2 mm set-up error on the 32^3 phantom: the stages at 8^3
        # and 16^3 make 88 and 82 evaluations here, where Adam at 150 + 75
        # iterations made at least one per iteration plus its backtracking
        img, st, _ = small_phantom
        center = engine._physical_center(img)
        moving = resample_rigid(img, img, pr.RigidTransform(
            rotation=(0.0, 0.0, math.radians(2.0)), translation=(1.2, 0.0, 1.6),
            center=center))
        t, aligned, stages = engine._rigid_align(img, moving, st.body, pr.RegConfig())
        assert [s["dims"] for s in stages] == [[8, 8, 8], [16, 16, 16]]
        for s in stages:
            assert s["evaluations"] <= 100
            assert s["final_loss"] < s["initial_loss"] and not s["degenerate"]
        assert pr.masked_ncc(img, aligned, st.body) > pr.masked_ncc(img, moving, st.body)
        # rigid_align returns the same transform and image
        t2, aligned2 = pr.rigid_align(img, moving, st.body)
        assert t2 == t and aligned2.data.tobytes() == aligned.data.tobytes()


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

    def test_level_counters_add_up(self, small_phantom, monkeypatch):
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.0, 4.0, 3),
                                 envelope=st.body.data.astype(np.float64))
        shapes = []
        scored = similarity.Objective.evaluate

        def counted(self, u):
            shapes.append(u.shape)
            return scored(self, u)
        monkeypatch.setattr(similarity.Objective, "evaluate", counted)
        _, rep = pr.register(pr.warp(img, g), img, FAST, structures=st)
        levels = rep.to_dict()["levels"]
        for lvl in levels:
            assert lvl["stop_reason"] in ("converged", "iteration_cap")
            assert sum(lvl["accepted"].values()) + lvl["rejected"] == lvl["iterations_used"]
            # the start, then at least one trial per iteration
            assert type(lvl["evaluations"]) is int
            assert lvl["evaluations"] > lvl["iterations_used"]
            assert lvl["evaluations"] == shapes.count((3, *lvl["dims"]))
        assert sum(lvl["evaluations"] for lvl in levels) == len(shapes)

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

    @pytest.mark.parametrize("guided", [False, True])
    def test_returns_the_field_it_scored(self, small_phantom, guided):
        # the finest level's last accepted trial is the returned field, so
        # the final loss is that level's last trajectory entry, bit for bit
        img, st, dose = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(1.5, 4.0, 9),
                                 envelope=st.body.data.astype(np.float64))
        cfg = pr.RegConfig(levels=3, iterations=(10, 15, 20), use_anatomy=guided,
                           use_risk=guided, use_gate=guided, use_film=guided)
        fld, rep = pr.register(pr.warp(img, g), img, cfg, structures=st, dose=dose,
                               embeddings=(pr.pseudo_embedding("oropharynx"),),
                               adapter_weights=pr.AdapterWeights.random(1))
        assert ("film_applied" in rep.flags) == guided
        assert rep.levels[-1].iterations_used > 0
        assert rep.final.total == rep.levels[-1].final_loss

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

    def test_film_without_adapter_rejected(self, small_phantom):
        # without weights FiLM would change nothing, yet flag film_applied
        img, st, _ = small_phantom
        cfg = pr.RegConfig(use_anatomy=True, use_film=True)
        with pytest.raises(ValidationError, match="adapter weights"):
            pr.register(img, img, cfg, structures=st,
                        embeddings=(pr.pseudo_embedding("oropharynx"),))

    def test_grid_mismatch_rejected(self, small_phantom, rng):
        img, _, _ = small_phantom
        other = pr.Volume(rng.random((16, 16, 16)).astype(np.float32))
        with pytest.raises(ValidationError):
            pr.register(img, other)

    def test_default_levels_on_16_cubed(self):
        # a fourth level would be 2^3, under the pyramid's 4-voxel floor
        spec = replace(pr.PhantomSpec(), dims=(16, 16, 16), spacing=(2.0, 2.0, 2.0))
        img, st, _ = pr.make_phantom(spec)
        moving = pr.warp(img, pr.make_smooth_field(
            img.dims, pr.FieldSpec(1.0, 3.0, 5), spacing=img.spacing))
        fld, rep = pr.register(img, moving, pr.RegConfig(), structures=st)
        assert fld.dims == img.dims
        assert "levels_reduced_to_3" in rep.flags
        assert [lv.dims for lv in rep.levels] == [(4, 4, 4), (8, 8, 8), (16, 16, 16)]

    @pytest.mark.parametrize("config,want,n", [
        # the last budget repeats for extra levels, coarse to fine ...
        (pr.RegConfig(levels=3, iterations=(2, 3), convergence_tol=0.0), [2, 3, 3], 16),
        # ... and budgets beyond the clipped level count go unused ...
        (pr.RegConfig(iterations=(1, 2, 3, 4, 5), convergence_tol=0.0), [1, 2, 3], 16),
        # ... and at tolerance 0 every level runs its whole budget, the
        # smoothed middle levels of five (13^3 and 25^3) too
        (pr.RegConfig(iterations=(2, 3, 40, 40, 1), convergence_tol=0.0),
         [2, 3, 40, 40, 1], 49),
    ], ids=["last-repeats", "extra-unused", "five-levels-full"])
    def test_iteration_schedule(self, config, want, n):
        spec = replace(pr.PhantomSpec(), dims=(n,) * 3, spacing=(32.0 / n,) * 3)
        img, st, _ = pr.make_phantom(spec)
        moving = pr.warp(img, pr.make_smooth_field(
            img.dims, pr.FieldSpec(1.0, 3.0, 5), spacing=img.spacing))
        _, rep = pr.register(img, moving, config, structures=st)
        assert [lv.iterations_used for lv in rep.levels] == want

    def test_degenerate_finest_mask_reaches_report(self):
        # a one-voxel body is degenerate at both levels, so each runs on an
        # all-ones mask; the final loss is scored on that mask too
        spec = replace(pr.PhantomSpec(), dims=(16, 16, 16), spacing=(2.0, 2.0, 2.0))
        img, _, _ = pr.make_phantom(spec)
        body = np.zeros(img.dims, dtype=np.float32)
        body[8, 8, 8] = 1.0
        st = pr.StructureSet(ctv=img.with_data(body), body=img.with_data(body))
        moving = pr.warp(img, pr.make_smooth_field(
            img.dims, pr.FieldSpec(1.0, 3.0, 5), spacing=img.spacing))
        _, rep = pr.register(img, moving, pr.RegConfig(levels=2, iterations=(5, 5)),
                             structures=st)
        assert "mask_degenerate_at_level_2" in rep.flags
        assert "mask_degenerate_at_level_1" in rep.flags
        assert math.isfinite(rep.final.total)
        assert rep.final.masked_voxels == 16 ** 3

    def test_no_level_rejects_every_iteration(self, small_phantom):
        # an un-enveloped acceptance-5 field: with a step too large for the
        # line search, levels rejected every trial until the window rule
        # ended them flat, the finest one after 5 iterations
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.5, 4.0, 102))
        st_f = pr.StructureSet(ctv=pr.warp_contour(st.ctv, g),
                               body=pr.warp_contour(st.body, g),
                               oars=tuple(pr.warp_contour(o, g) for o in st.oars))
        _, rep = pr.register(pr.warp(img, g), img, pr.RegConfig(), structures=st_f)
        for lvl in rep.levels:
            assert lvl.rejected < lvl.iterations_used, lvl
        assert rep.levels[-1].iterations_used > engine.LEVEL_WINDOW

    def test_a_level_flat_on_rejected_iterations_reports_a_failed_line_search(
            self, small_phantom):
        # on this un-enveloped field the 4^3 level takes no trial, so the
        # window rule ends it with the loss where it started: that is a
        # failed line search, not convergence (the finer levels do not run)
        img, st, _ = small_phantom
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.5, 4.0, 104))
        st_f = pr.StructureSet(ctv=pr.warp_contour(st.ctv, g),
                               body=pr.warp_contour(st.body, g),
                               oars=tuple(pr.warp_contour(o, g) for o in st.oars))
        _, rep = pr.register(pr.warp(img, g), img, pr.RegConfig(iterations=(40, 0)),
                             structures=st_f)
        lvl = rep.levels[0]
        assert (lvl.dims, lvl.iterations_used, lvl.evaluations, lvl.rejected) \
            == ((4, 4, 4), engine.LEVEL_WINDOW, 21, engine.LEVEL_WINDOW)
        assert lvl.stop_reason == "line_search_failed"
        assert lvl.final_loss == lvl.initial_loss

    def test_folds_count_the_foreground_border_included(self):
        # a bump of -3 in u_x one voxel up x folds the voxel below it, where
        # the central difference gives 1 - 1.5; on the border the
        # one-sided one gives 1 - 3
        u = np.zeros((3, 6, 6, 6), dtype=np.float32)
        u[0, 3, 2, 2] = -3.0
        u[0, 1, 4, 4] = -3.0
        fld = pr.DisplacementField(u)
        det = pr.jacobian_det(fld).data
        assert sorted(zip(*np.nonzero(det <= 0))) == [(0, 4, 4), (2, 2, 2)]
        # fold_fraction counts the 4^3 interior, the folded voxels the mask
        whole = pr.Volume(np.ones((6, 6, 6), dtype=np.float32))
        assert engine._folds(fld, whole) == (100.0 / 64, 2)
        inner = np.zeros((6, 6, 6), dtype=np.float32)
        inner[2, 2, 2] = 1.0
        assert engine._folds(fld, pr.Volume(inner)) == (100.0 / 64, 1)

    def test_report_counts_the_folded_body_voxels(self, small_phantom, monkeypatch):
        # the finest level hands back a field folded at two body voxels and
        # at one outside the body
        img, st, _ = small_phantom
        folds = [(16, 16, 16), (16, 16, 22), (2, 2, 2)]
        assert [st.body.data[p] for p in folds] == [1.0, 1.0, 0.0]
        u = np.zeros((3,) + img.dims, dtype=np.float32)
        for x, y, z in folds:
            u[0, x + 1, y, z] = -3.0
        descend = engine._descend

        def finest_folds(evaluate, x, *args, **kwargs):
            x, trajectory, counters = descend(evaluate, x, *args, **kwargs)
            return (u.copy() if x.shape == u.shape else x), trajectory, counters
        monkeypatch.setattr(engine, "_descend", finest_folds)
        _, rep = pr.register(img, img, FAST, structures=st)
        assert rep.folded_voxels == 2
        assert rep.to_dict()["folded_voxels"] == 2
        assert rep.fold_fraction_pct == 100.0 * 3 / 30 ** 3

    def test_jittered_recovery_leaves_no_fold(self):
        # acceptance criterion 3's case with a jitter of 0.6 voxels (the
        # guided benchmark's field for seed 2002, warped here by pr.warp):
        # without a smoothed step at the middle levels the default register
        # folded 4 body voxels
        img, st, _ = pr.make_phantom(pr.PhantomSpec())
        env = gaussian_filter(st.body.data.astype(np.float64), 3.0)
        env /= env.max()
        g = pr.DisplacementField(sum(
            pr.make_smooth_field(img.dims, spec, envelope=env).data
            for spec in (pr.FieldSpec(4.0, 6.0, 11), pr.FieldSpec(0.6, 6.0, 1000003 * 2003))))
        st_fixed = pr.StructureSet(ctv=pr.warp_contour(st.ctv, g),
                                   body=pr.warp_contour(st.body, g),
                                   oars=tuple(pr.warp_contour(o, g) for o in st.oars))
        _, rep = pr.register(pr.warp(img, g), img, pr.RegConfig(), structures=st_fixed)
        assert rep.folded_voxels == 0

    def test_flat_grid_rejected_before_any_iteration(self, rng, monkeypatch):
        def no_trial(self, u):
            raise AssertionError("a trial was evaluated")
        monkeypatch.setattr(similarity.Objective, "loss", no_trial)
        monkeypatch.setattr(similarity.Objective, "evaluate", no_trial)
        vol = pr.Volume(rng.random((32, 32, 1)).astype(np.float32))
        with pytest.raises(ValidationError,
                           match="smoothness needs at least 2 voxels per axis"):
            pr.register(vol, vol)


@pytest.mark.parametrize("change", [{"spacing": (2.0, 2.0, 2.0)},
                                    {"origin": (0.0, 0.0, 5.0)},
                                    {"data": np.zeros((16, 16, 16), dtype=np.float32)}])
class TestGridMetadataMismatch:
    """Volumes of other dims, or of equal dims but a different voxel size
    or origin, do not share a grid, so registering them voxel by voxel
    would be wrong."""

    def test_register_rejects(self, small_phantom, change):
        img, st, _ = small_phantom
        with pytest.raises(ValidationError, match="fixed/moving grids differ"):
            pr.register(img, replace(img, **change))
        moved = pr.StructureSet(ctv=replace(st.ctv, **change),
                                body=replace(st.body, **change))
        with pytest.raises(ValidationError, match="mask grid differs"):
            pr.register(img, img, structures=moved)

    def test_rigid_align_rejects(self, small_phantom, change):
        img, st, _ = small_phantom
        for fixed, moving, mask in ((img, replace(img, **change), st.body),
                                    (img, img, replace(st.body, **change))):
            with pytest.raises(ValidationError, match="one shared grid"):
                pr.rigid_align(fixed, moving, mask)

    def test_register_rejects_dose(self, small_phantom, change):
        img, st, dose = small_phantom
        with pytest.raises(ValidationError, match="dose grid differs from image grid"):
            pr.register(img, img, pr.RegConfig(use_risk=True), structures=st,
                        dose=replace(dose, **change))

    def test_structure_set_rejects(self, small_phantom, change):
        _, st, _ = small_phantom
        for ctv, oars in ((replace(st.ctv, **change), st.oars),
                          (st.ctv, (replace(st.oars[0], **change),))):
            with pytest.raises(ValidationError, match="structure grids differ"):
                pr.StructureSet(ctv=ctv, body=st.body, oars=oars)


class TestGateUpdateProperty:
    def test_gated_update_preserves_sign_and_range(self, small_phantom, rng):
        _, st, dose = small_phantom
        p = pr.PriorParams()
        fused = pr.fuse_priors(pr.anatomy_map(st, p),
                               pr.risk_map(dose, st, p), p.fusion_alpha)
        m = pr.gate(fused, p).data.astype(np.float64)
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
            pr.RegConfig(lambda_smooth=-1.0)
        # the window rule's relative change could never fall below it
        for tol in (-1.0, -1e300):
            with pytest.raises(ValidationError, match="convergence_tol must be >= 0"):
                pr.RegConfig(convergence_tol=tol)
        pr.RegConfig(convergence_tol=0.0)
        # rigid_align runs at most two stages, so a third budget is refused
        for kwargs in ({"rigid_iterations": (-1,)}, {"rigid_iterations": (2, 1, 30)},
                       {"iterations": (40, 1.5)}):
            with pytest.raises(ValidationError):
                pr.RegConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"use_gate": True}, {"use_film": True}, {"use_gate": True, "use_film": True}])
    def test_gate_or_film_without_prior_rejected(self, kwargs):
        # both act on the fused prior; a run without one would drop them silently
        with pytest.raises(ValidationError, match="require use_anatomy or use_risk"):
            pr.RegConfig(**kwargs)
        for prior in ("use_anatomy", "use_risk"):
            pr.RegConfig(**kwargs, **{prior: True})

    @pytest.mark.parametrize("kwargs", [
        {"levels": 1.5}, {"convergence_tol": math.nan}, {"lambda_smooth": 10 ** 400}])
    def test_non_integer_or_non_finite_numbers_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            pr.RegConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        ({"use_anatomy": "no"}, "use_anatomy must be a bool"),
        ({"use_risk": 1}, "use_risk must be a bool"),
        ({"use_anatomy": True, "use_gate": np.True_}, "use_gate must be a bool"),
        ({"use_film": None, "use_risk": True}, "use_film must be a bool"),
        ({"prior_params": {"sigma_mm": 5.0}}, "prior_params must be a PriorParams"),
        ({"prior_params": None}, "prior_params must be a PriorParams")])
    def test_malformed_flags_and_prior_params_rejected(self, kwargs, match):
        # to_dict would write a flag from_dict refuses, and a guided
        # register would fail on the prior_params
        with pytest.raises(ValidationError, match=match):
            pr.RegConfig(**kwargs)

    @pytest.mark.parametrize("doc,kind", [
        ({"use_anatomy": "no"}, "boolean"), ({"levels": True}, "integer"),
        ({"lambda_smooth": "0.2"}, "number"), ({"iterations": 40}, "list"),
        ({"prior_params": None}, "object")])
    def test_from_dict_rejects_wrong_json_types(self, doc, kind):
        # a truthy string would silently turn a flag on, and a null
        # prior_params fall back to the defaults
        with pytest.raises(ValidationError, match=f"must be a JSON {kind}"):
            pr.RegConfig.from_dict(doc)


# a prior-free 64^3 register of five iterations per level, alone in a fresh
# interpreter (as BENCH_level_workspace.json scale measures it); prints the
# bytes per voxel by which it raised the process's peak RSS
SCALE_64 = """
import resource
import protoreg as pr
n = 64
img, st, _ = pr.make_phantom(pr.PhantomSpec(dims=(n,) * 3, spacing=(64 / n,) * 3))
fld = pr.make_smooth_field(img.dims, pr.FieldSpec(4 * n / 64, 6 * n / 64, 11),
                           spacing=img.spacing, envelope=st.body.data)
structures = pr.StructureSet(ctv=pr.warp_contour(st.ctv, fld),
                             body=pr.warp_contour(st.body, fld))
fixed = pr.warp(img, fld)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
pr.register(fixed, img, pr.RegConfig(iterations=(5,), convergence_tol=0),
            structures=structures)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / n ** 3)     # ru_maxrss is in KiB on Linux
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_64_cubed_level_adds_at_most_94_bytes_per_voxel():
    # a level keeps its images, the support's k-vectors, the descent's four
    # float32 fields and one slab of smoothness scratch, and sets the peak:
    # 83-86 bytes per voxel here. The upsampling before it (the new field
    # and a float64 scratch of the coarse one) and the fold count after it
    # (in x-slabs) stay below that, so one float32 field more in the level
    # (12 bytes per voxel, 96-97 measured) fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCALE_64], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 94


# a small rigid_align and register in a fresh interpreter; prints whether
# either imported scipy.optimize, which alone raises a process's RSS by about
# 21.5 MB
SCIPY_OPTIMIZE = """
import sys
import protoreg as pr
img, st, _ = pr.make_phantom(pr.PhantomSpec(
    dims=(16, 16, 16), body_semi_axes_mm=(7.0, 6.0, 7.0), ctv_center_mm=(1.0, 0.5, -0.5),
    ctv_radius_mm=2.0, oars=(((-2.0, -1.0, 1.0), 1.5),), dose_tau_mm=3.0, seed=7))
moving = pr.engine.resample_rigid(img, img, pr.RigidTransform(translation=(1.0, 0.0, 0.5)))
_, aligned = pr.rigid_align(img, moving, st.body)
pr.register(img, aligned, pr.RegConfig(levels=2, iterations=(3,)), structures=st)
print("scipy.optimize" in sys.modules)
"""


def test_no_scipy_optimize_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCIPY_OPTIMIZE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
