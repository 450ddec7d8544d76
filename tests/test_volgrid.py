import functools
import itertools
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import protoreg as pr
from protoreg.errors import ValidationError
from protoreg.volgrid import _Sampler

import oracles
from conftest import random_volume, lattice_safe_field


def _traced_peak(f, *args):
    """The tracemalloc peak, in bytes, of the call f(*args), its result
    included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrilinearSample:
    def test_integer_coordinate_returns_stored_value(self, rng):
        vol = random_volume(rng, (5, 5, 5))
        assert pr.trilinear_sample(vol, (2, 3, 1)) == pytest.approx(
            float(vol.data[2, 3, 1]), abs=0)

    def test_midpoint_along_x(self):
        data = np.zeros((4, 3, 3), dtype=np.float32)
        data[1, 1, 1] = 4.0
        data[2, 1, 1] = 10.0
        vol = pr.Volume(data)
        assert pr.trilinear_sample(vol, (1.5, 1, 1)) == pytest.approx(7.0)

    def test_outside_is_zero(self, rng):
        vol = random_volume(rng, (4, 4, 4))
        assert pr.trilinear_sample(vol, (-5.0, 0.0, 0.0)) == 0.0

    def test_non_finite_coordinate_rejected(self, rng):
        vol = random_volume(rng, (4, 4, 4))
        with pytest.raises(ValidationError):
            pr.trilinear_sample(vol, (np.nan, 0, 0))

    @pytest.mark.parametrize("p", [("a", 0, 0), (0, {}, 0), (0, 0, 10 ** 400), ((0, 1), 0, 0)],
                             ids=["string", "object", "huge-int", "ragged"])
    def test_non_numeric_coordinate_rejected(self, rng, p):
        with pytest.raises(ValidationError):
            pr.trilinear_sample(random_volume(rng, (4, 4, 4)), p)

    def test_all_corners_outside_read_exact_zero(self):
        # a coordinate below -1 or above n puts both corners of that axis
        # outside; clamping the base index instead of each corner would
        # pull the far corner back onto a real voxel
        arr = np.full((4, 5, 6), 7.0, dtype=np.float32)
        sample = _Sampler(arr)
        inside = [1.25, 2.5, 3.75]
        for axis, n in enumerate(arr.shape):
            for c in (-1.5, -1.0 - 1e-9, -7.3, -1e3,
                      n + 1e-9, n + 0.25, n + 5.5, 1e3):
                p = np.array(inside).reshape(3, 1)
                p[axis] = c
                val, gx, gy, gz = sample(p, want_grad=True)
                for out in (val, gx, gy, gz):
                    assert out.tobytes() == np.zeros(1).tobytes(), (axis, c)

    def test_matches_oracle_at_random_points(self, rng):
        vol = random_volume(rng, (6, 5, 4))
        for _ in range(50):
            p = rng.uniform(-1.5, 6.5, size=3)
            assert pr.trilinear_sample(vol, p) == pytest.approx(
                oracles.trilinear(vol.data, p), abs=1e-6)

    def test_bits_equal_oracle_on_edges_and_outside(self, rng):
        # signed data, so a zero weight on a negative voxel gives -0.0
        vol = pr.Volume(rng.normal(size=(4, 3, 5)).astype(np.float32))
        axes = [[-1e300, -1.5, -1.0, -0.25, 0.0, 0.5, n - 1.0, n - 0.75,
                 float(n), n + 0.5, 1e300, rng.uniform(-2.0, n + 1.0)]
                for n in vol.dims]
        for p in itertools.product(*axes):
            got = pr.trilinear_sample(vol, p)
            want = oracles.trilinear(vol.data, p)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), p


class TestSamplerMemory:
    @pytest.mark.parametrize("want_grad", [False, True])
    def test_temporaries_stay_bounded_at_64(self, want_grad):
        # the sampler works through cache-sized chunks of points, so its
        # chunk buffers do not grow with the grid (34 MB when unchunked);
        # it is built inside the traced block, so its buffers and its
        # 2.5 MB zero-ringed copy count towards the peak
        r = np.random.default_rng(0)
        n = 64
        arr = r.random((n, n, n), dtype=np.float32)
        coords = np.indices((n, n, n), dtype=np.float64)
        coords += r.normal(0.0, 2.0, coords.shape)
        tracemalloc.start()
        try:
            out = _Sampler(arr)(coords, want_grad=want_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(o.nbytes for o in (out if want_grad else (out,)))
        assert peak - kept < 8 * 2**20


class TestWarp:
    def test_zero_field_is_bit_exact_identity(self, rng):
        vol = random_volume(rng, (6, 6, 6))
        out = pr.warp(vol, pr.zero_field(vol))
        assert np.array_equal(out.data, vol.data)

    def test_constant_shift_on_ramp(self):
        n = 8
        ramp = np.broadcast_to(
            np.arange(n, dtype=np.float32)[:, None, None], (n, n, n)).copy()
        vol = pr.Volume(ramp)
        u = np.zeros((3, n, n, n), dtype=np.float32)
        u[0] = -1.0
        out = pr.warp(vol, pr.DisplacementField(u))
        interior = out.data[1:, :, :]
        expected = ramp[1:, :, :] - 1.0
        np.testing.assert_allclose(interior, expected, atol=1e-6)

    def test_constant_image_stays_constant_in_interior(self, rng):
        vol = pr.Volume(np.full((8, 8, 8), 3.25, dtype=np.float32))
        fld = lattice_safe_field(rng, (8, 8, 8))
        out = pr.warp(vol, fld)
        np.testing.assert_allclose(out.data[1:-1, 1:-1, 1:-1], 3.25, atol=1e-6)

    def test_matches_brute_force_oracle(self, rng):
        vol = random_volume(rng, (8, 8, 8))
        fld = lattice_safe_field(rng, (8, 8, 8), scale=1.5)
        out = pr.warp(vol, fld)
        expected = oracles.warp(vol.data, fld.data.astype(np.float64))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_bits_equal_oracle(self, rng):
        vol = pr.Volume(rng.normal(size=(9, 7, 6)).astype(np.float32))
        fld = pr.DisplacementField(rng.normal(0.0, 2.0, (3, 9, 7, 6)).astype(np.float32))
        x = np.indices(vol.dims, dtype=np.float64) + fld.data.astype(np.float64)
        want = oracles.trilinear_arrays(vol.data, *x).astype(np.float32)
        assert pr.warp(vol, fld).data.tobytes() == want.tobytes()

    def test_dims_mismatch_rejected(self, rng):
        vol = random_volume(rng, (4, 4, 4))
        fld = pr.DisplacementField(np.zeros((3, 5, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.warp(vol, fld)

    @pytest.mark.parametrize("change", [{"spacing": (2.0, 1.0, 1.0)},
                                        {"origin": (0.0, 0.0, 3.0)}])
    def test_field_on_another_grid_of_equal_dims_rejected(self, rng, change):
        # the field's voxel displacements mean nothing on another voxel grid
        vol = random_volume(rng, (4, 4, 4))
        fld = replace(pr.zero_field(vol), **change)
        with pytest.raises(ValidationError, match="field grid differs from input grid"):
            pr.warp(vol, fld)
        # a contour is checked for 0/1 values first, so this one is binary
        contour = vol.with_data((vol.data > 0.5).astype(np.float32))
        with pytest.raises(ValidationError, match="field grid differs from input grid"):
            pr.warp_contour(contour, fld)


class TestDownsampleAvg:
    def test_constant_image(self):
        vol = pr.Volume(np.full((6, 4, 8), 2.5, dtype=np.float32))
        out = pr.downsample_avg(vol)
        assert out.dims == (3, 2, 4)
        assert np.all(out.data == 2.5)
        assert out.spacing == (2.0, 2.0, 2.0)

    def test_2x2x2_block_mean(self):
        vol = pr.Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
        out = pr.downsample_avg(vol)
        assert out.dims == (1, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(3.5)

    def test_odd_axis_partial_block(self, rng):
        vol = random_volume(rng, (3, 2, 2))
        out = pr.downsample_avg(vol)
        expected = oracles.downsample_avg(vol.data.astype(np.float64))
        assert out.dims == (2, 1, 1)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_mean_preserved_for_even_dims(self, rng):
        vol = random_volume(rng, (8, 6, 4))
        out = pr.downsample_avg(vol)
        assert float(out.data.mean()) == pytest.approx(
            float(vol.data.astype(np.float64).mean()), abs=1e-6)

    def test_64_cubed_peak_stays_under_1_75_mib(self):
        # three strided passes, x straight from the float32 data: the x- and
        # y-pooled float64 grids (1 and 0.5 MiB) are the most alive at once,
        # 1.63 MiB measured, so a whole-grid float64 copy (2 MiB) fails
        vol = pr.Volume(np.random.default_rng(0).random((64, 64, 64), dtype=np.float32))
        assert _traced_peak(pr.downsample_avg, vol) <= 1.75 * 2**20


class TestUpsampleField:
    def test_zero_field(self):
        fld = pr.DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        out = pr.upsample_field(fld, (8, 8, 8))
        assert out.dims == (8, 8, 8)
        assert np.all(out.data == 0)

    def test_constant_field_doubles_exactly(self):
        u = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u[0] = 1.0
        out = pr.upsample_field(pr.DisplacementField(u), (8, 8, 8))
        assert np.all(out.data[0] == 2.0)
        assert np.all(out.data[1:] == 0.0)

    def test_linear_field_interior(self):
        u = np.zeros((3, 4, 4, 4), dtype=np.float32)
        u[0] = 0.1 * np.arange(4, dtype=np.float32)[:, None, None]
        out = pr.upsample_field(pr.DisplacementField(u), (8, 8, 8))
        for i in range(7):  # interior of the interpolation range
            np.testing.assert_allclose(out.data[0, i], 0.1 * i, atol=1e-6)

    # odd and even target axes; an even one's last voxel i = 2n - 1 maps
    # past the coarse grid and is clamped to n - 1
    @pytest.mark.parametrize("src, target", [((33, 17, 9), (65, 34, 17)),
                                             ((4, 5, 3), (8, 10, 6))])
    def test_bits_equal_oracle(self, rng, src, target):
        fld = pr.DisplacementField(rng.normal(0.0, 2.0, (3,) + src).astype(np.float32))
        out = pr.upsample_field(fld, target)
        coords = np.meshgrid(*[np.minimum(np.arange(t) / 2.0, n - 1)
                               for t, n in zip(target, src)], indexing="ij")
        for u, got in zip(fld.data, out.data):
            want = (2.0 * oracles.trilinear_arrays(u, *coords)).astype(np.float32)
            assert got.tobytes() == want.tobytes()

    def test_32_to_64_cubed_peak_stays_under_4_75_mib(self):
        # the 3 MiB float32 result, one float64 scratch of the coarse field
        # (0.75 MiB) and the result's finiteness check: 4.50 MiB measured,
        # so a second scratch, or float64 coordinates of an x-slab, fails
        fld = pr.DisplacementField(
            np.random.default_rng(0).normal(0.0, 2.0, (3, 32, 32, 32)).astype(np.float32))
        assert _traced_peak(pr.upsample_field, fld, (64, 64, 64)) <= 4.75 * 2**20

    def test_bad_target_dims_rejected(self):
        fld = pr.DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.upsample_field(fld, (9, 8, 8))

    def test_non_integer_target_dims_rejected(self):
        fld = pr.DisplacementField(np.zeros((3, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValidationError, match="dims"):
            pr.upsample_field(fld, (8.7, 8, 8))


class TestComposeAdditive:
    def test_zero_identities(self, rng):
        u = lattice_safe_field(rng, (4, 4, 4))
        z = pr.zero_field(pr.Volume(np.zeros((4, 4, 4), dtype=np.float32)))
        assert np.array_equal(pr.compose_additive(u, z).data, u.data)
        assert np.array_equal(pr.compose_additive(z, u).data, u.data)

    def test_constants_add(self):
        a = np.zeros((3, 4, 4, 4), dtype=np.float32)
        b = np.zeros((3, 4, 4, 4), dtype=np.float32)
        a[0] = 1.0
        b[1] = 2.0
        out = pr.compose_additive(pr.DisplacementField(a), pr.DisplacementField(b))
        assert np.all(out.data[0] == 1.0) and np.all(out.data[1] == 2.0) \
            and np.all(out.data[2] == 0.0)

    def test_associative(self, rng):
        f1 = lattice_safe_field(rng, (4, 4, 4))
        f2 = lattice_safe_field(rng, (4, 4, 4))
        f3 = lattice_safe_field(rng, (4, 4, 4))
        lhs = pr.compose_additive(pr.compose_additive(f1, f2), f3)
        rhs = pr.compose_additive(f1, pr.compose_additive(f2, f3))
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-6)

    def test_dims_mismatch(self, rng):
        a = lattice_safe_field(rng, (4, 4, 4))
        b = lattice_safe_field(rng, (5, 4, 4))
        with pytest.raises(ValidationError):
            pr.compose_additive(a, b)


class TestJacobianDet:
    def test_zero_field_gives_one(self):
        fld = pr.DisplacementField(np.zeros((3, 5, 5, 5), dtype=np.float32))
        det = pr.jacobian_det(fld)
        assert np.all(det.data == 1.0)

    def test_constant_field_gives_one(self, rng):
        u = np.zeros((3, 5, 5, 5), dtype=np.float32)
        u[0], u[1], u[2] = 0.7, -0.3, 1.9
        det = pr.jacobian_det(pr.DisplacementField(u))
        np.testing.assert_allclose(det.data, 1.0, atol=1e-6)

    def test_affine_expansion(self):
        u = np.zeros((3, 6, 6, 6), dtype=np.float32)
        u[0] = 0.1 * np.arange(6, dtype=np.float32)[:, None, None]
        det = pr.jacobian_det(pr.DisplacementField(u))
        np.testing.assert_allclose(det.data[1:-1], 1.1, atol=1e-6)

    def test_negative_determinant_detected(self):
        u = np.zeros((3, 6, 6, 6), dtype=np.float32)
        u[0] = -2.0 * np.arange(6, dtype=np.float32)[:, None, None]
        det = pr.jacobian_det(pr.DisplacementField(u))
        np.testing.assert_allclose(det.data[1:-1], -1.0, atol=1e-5)
        expected = oracles.jacobian_det_fd(u.astype(np.float64))
        np.testing.assert_allclose(det.data, expected, atol=1e-5)

    def test_matches_fd_oracle_random(self, rng):
        fld = lattice_safe_field(rng, (5, 5, 5))
        det = pr.jacobian_det(fld)
        expected = oracles.jacobian_det_fd(fld.data.astype(np.float64))
        np.testing.assert_allclose(det.data, expected, atol=1e-5)

    def test_small_smooth_field_stays_positive(self):
        for seed in range(5):
            fld = pr.make_smooth_field(
                (12, 12, 12), pr.FieldSpec(0.4, 3.0, seed))
            det = pr.jacobian_det(fld)
            assert np.all(det.data[1:-1, 1:-1, 1:-1] > 0)


class TestBuildPyramid:
    def test_single_level(self, rng):
        vol = random_volume(rng, (8, 8, 8))
        pyr = pr.build_pyramid(vol, 1)
        assert len(pyr) == 1
        assert np.array_equal(pyr[0].data, vol.data)

    def test_repeated_halving(self, rng):
        vol = random_volume(rng, (64, 64, 64))
        pyr = pr.build_pyramid(vol, 5)
        assert [l.dims[0] for l in pyr] == [64, 32, 16, 8, 4]

    def test_ceil_halving_odd_dims(self, rng):
        vol = random_volume(rng, (48, 35, 32))
        pyr = pr.build_pyramid(vol, 5)
        # 35 -> 18 -> 9 -> 5; a fifth level would leave the last axis 2 voxels
        assert [lv.dims for lv in pyr] == [(48, 35, 32), (24, 18, 16), (12, 9, 8),
                                           (6, 5, 4)]

    def test_zero_levels_rejected(self, rng):
        with pytest.raises(ValidationError):
            pr.build_pyramid(random_volume(rng, (8, 8, 8)), 0)

    def test_too_many_levels_clipped_without_logging(self, rng, caplog):
        # register records the clip in its flags, so the pyramid logs nothing
        vol = random_volume(rng, (8, 8, 8))
        with caplog.at_level(logging.DEBUG):
            pyr = pr.build_pyramid(vol, 6)
        assert len(pyr) == 2            # 8, 4: a third level would be 2^3
        assert caplog.records == []


class TestPadToShape:
    def test_noop_when_equal(self, rng):
        vol = random_volume(rng, (4, 4, 4))
        out = pr.pad_to_shape(vol, (4, 4, 4))
        assert np.array_equal(out.data, vol.data)

    def test_zeros_added(self):
        vol = pr.Volume(np.ones((2, 2, 2), dtype=np.float32))
        out = pr.pad_to_shape(vol, (4, 4, 4))
        assert out.data.sum() == 8.0
        assert np.array_equal(out.data[:2, :2, :2], vol.data)

    def test_round_trip(self, rng):
        vol = random_volume(rng, (3, 5, 2))
        out = pr.pad_to_shape(vol, (6, 6, 6))
        assert np.array_equal(out.data[:3, :5, :2], vol.data)

    def test_shrink_rejected(self, rng):
        with pytest.raises(ValidationError):
            pr.pad_to_shape(random_volume(rng, (4, 4, 4)), (3, 4, 4))

    def test_non_integer_target_rejected(self, rng):
        # int() would truncate 6.9 to 6
        with pytest.raises(ValidationError, match="dims"):
            pr.pad_to_shape(random_volume(rng, (4, 4, 4)), (6.9, 4, 4))


class TestTypeInvariants:
    def test_non_finite_rejected(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            pr.Volume(data)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValidationError):
            pr.Volume(np.zeros((2, 2, 2), dtype=np.float32), spacing=(0, 1, 1))

    @pytest.mark.parametrize("data", [[[["a", "b"]]], [[[{}]]], [[[1.0], [1.0, 2.0]]],
                                      [[[10 ** 400]]], np.full((2, 2, 2), 1e300),
                                      # deeper than numpy's 64 dimensions and than
                                      # Python's recursion limit
                                      functools.reduce(lambda v, _: [v], range(3000), 1.0)],
                             ids=["string", "object", "ragged", "huge-int", "float32-overflow",
                                  "nested-3000-deep"])
    def test_non_numeric_data_rejected(self, data):
        with pytest.raises(ValidationError):
            pr.Volume(data)

    @pytest.mark.parametrize("make", [pr.Volume, lambda v: pr.DisplacementField([v] * 3)],
                             ids=["volume", "field"])
    @pytest.mark.parametrize("data,named", [([[["1.5"]]], "'1.5'"), ([[[True]]], "True"),
                                            (np.ones((1, 1, 1), dtype=bool), "True"),
                                            # numpy would promote these to 1.0 and 1
                                            ([[[True, 1.5]]], "True"), ([[[True, 2]]], "True"),
                                            ([[[10 ** 20, True]]], "True")],
                             ids=["string", "bool", "bool-array", "bool-beside-float",
                                  "bool-beside-int", "bool-beside-huge-int"])
    def test_bools_and_strings_rejected(self, make, data, named):
        # numpy would read "1.5" as 1.5 and True as 1.0
        with pytest.raises(ValidationError, match=f"array of numbers, got .*{named}"):
            make(data)

    @pytest.mark.parametrize("data", [np.ones((2, 2, 2), dtype=np.uint8),
                                      np.ones((2, 2, 2), dtype=np.int64),
                                      np.ones((2, 2, 2), dtype=np.float16), [[[1, 2]]]],
                             ids=["uint8", "int64", "float16", "int-list"])
    def test_integers_and_floats_accepted(self, data):
        assert pr.Volume(data).data.dtype == np.float32

    @pytest.mark.parametrize("data", [[[[10 ** 20]]], [[[10 ** 20, 1.5]]],
                                      np.array([[[10 ** 20]]], dtype=object)],
                             ids=["alone", "beside-float", "object-array"])
    def test_integers_past_int64_accepted(self, data):
        # finite as floats, as _values takes them; numpy reads them alone
        # as an object array
        assert pr.Volume(data).data[0, 0, 0] == np.float32(1e20)

    def test_field_shape_checked(self):
        with pytest.raises(ValidationError):
            pr.DisplacementField(np.zeros((2, 4, 4, 4), dtype=np.float32))

    def test_field_needs_a_voxel_per_axis(self):
        with pytest.raises(ValidationError):
            pr.DisplacementField(np.zeros((3, 0, 4, 4)))

    @pytest.mark.parametrize("cls,shape", [(pr.Volume, (2, 2, 2)),
                                           (pr.DisplacementField, (3, 2, 2, 2))])
    @pytest.mark.parametrize("grid", [
        {"spacing": ("a", 1, 1)}, {"spacing": (np.nan, 1.0, 1.0)},
        {"spacing": (True, 1, 1)}, {"spacing": (1.0, 1.0)}, {"spacing": 1.0},
        {"spacing": (10 ** 400, 1, 1)},
        {"origin": ("x", 0, 0)}, {"origin": (0.0, np.inf, 0.0)},
        {"origin": (0.0, 0.0, 0.0, 0.0)},
    ])
    def test_spacing_and_origin_must_be_three_finite_numbers(self, cls, shape, grid):
        with pytest.raises(ValidationError):
            cls(np.zeros(shape, dtype=np.float32), **grid)

    def test_spacing_and_origin_stored_as_floats(self):
        vol = pr.Volume(np.zeros((2, 2, 2), dtype=np.float32),
                        spacing=np.array([1, 2, 3]), origin=[0, -1, 2.5])
        assert vol.spacing == (1.0, 2.0, 3.0) and vol.origin == (0.0, -1.0, 2.5)
        assert all(type(v) is float for v in vol.spacing + vol.origin)
