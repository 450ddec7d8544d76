"""Property tests for the grid algebra and serialization."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import protoreg as pr
from protoreg import io
from protoreg.errors import ValidationError
from protoreg.volgrid import _trilinear_arrays, _zero_ring

import oracles

SETTINGS = settings(max_examples=30, deadline=None)

finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
small_dims = st.tuples(*[st.integers(1, 6)] * 3)


def triples(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3)


@st.composite
def grids(draw, field=False):
    dims = draw(small_dims)
    data = draw(arrays(np.float32, ((3,) if field else ()) + dims, elements=finite32))
    cls = pr.DisplacementField if field else pr.Volume
    return cls(data, spacing=draw(triples(1e-3, 1e3)),
               origin=draw(triples(-1e4, 1e4)))


@SETTINGS
@given(obj=st.one_of(grids(), grids(field=True)))
def test_read_write_round_trip_is_identity(obj):
    kind = "field" if isinstance(obj, pr.DisplacementField) else "image"
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "v")
        io.write_volume(path, obj, kind=kind)
        back = io.read_volume(path)
    assert type(back) is type(obj)
    assert back.data.tobytes() == obj.data.tobytes()
    assert (back.dims, back.spacing, back.origin) == (obj.dims, obj.spacing, obj.origin)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
# near misses of the three-element dims, spacing and origin
json_triples = st.lists(st.one_of(st.integers(-3, 40), st.floats(), st.booleans(),
                                  st.text(max_size=2)), min_size=2, max_size=4)
HEADER_KEYS = ("dims", "spacing", "origin", "components", "dtype", "order", "kind")
DELETE = object()


@st.composite
def header_mutations(draw):
    """(key, value) pairs to set (a DELETE value deletes the key), or the
    bytes that replace the whole header."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
    keys = st.sampled_from(HEADER_KEYS) | st.text(max_size=6)
    values = st.just(DELETE) | json_values | json_triples
    return draw(st.lists(st.tuples(keys, values), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(obj=st.one_of(grids(), grids(field=True)), mutation=header_mutations())
def test_read_volume_rejects_mutated_headers_cleanly(obj, mutation):
    kind = "field" if isinstance(obj, pr.DisplacementField) else "image"
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "v")
        io.write_volume(path, obj, kind=kind)
        if isinstance(mutation, bytes):
            text = mutation
        else:
            header = json.loads(Path(path + ".json").read_text())
            for key, value in mutation:
                if value is DELETE:
                    header.pop(key, None)
                else:
                    header[key] = value
            text = json.dumps(header).encode()
        Path(path + ".json").write_bytes(text)
        try:
            io.read_volume(path)
        except (ValidationError, OSError):
            pass


@SETTINGS
@given(dims=st.tuples(*[st.integers(2, 40)] * 3), levels=st.integers(1, 8))
def test_pyramid_levels_keep_two_voxels_and_ceil_halve(dims, levels):
    pyr = pr.build_pyramid(pr.Volume(np.zeros(dims, dtype=np.float32)), levels)
    assert 1 <= len(pyr) <= levels
    assert pyr[0].dims == dims
    for fine, coarse in zip(pyr, pyr[1:]):
        assert coarse.dims == tuple(math.ceil(d / 2) for d in fine.dims)
    assert all(min(lv.dims) >= 2 for lv in pyr)
    # clipped only where one more level would leave an axis a single voxel
    assert len(pyr) == levels or min(math.ceil(d / 2) for d in pyr[-1].dims) < 2


@SETTINGS
@given(target=st.tuples(*[st.integers(1, 12)] * 3), data=st.data())
def test_upsample_field_returns_requested_dims(target, data):
    src = tuple(math.ceil(t / 2) for t in target)
    u = data.draw(arrays(np.float32, (3,) + src,
                         elements=st.floats(-4, 4, width=32)))
    up = pr.upsample_field(pr.DisplacementField(u, spacing=(2.0, 2.0, 2.0)), target)
    assert up.dims == target
    assert up.spacing == (1.0, 1.0, 1.0)


@SETTINGS
@given(vol=grids())
def test_zero_field_warp_is_identity(vol):
    out = pr.warp(vol, pr.zero_field(vol))
    assert out.data.tobytes() == vol.data.tobytes()
    assert (out.spacing, out.origin) == (vol.spacing, vol.origin)


@st.composite
def sample_points(draw, dims, count):
    """count coordinates per axis: anywhere in +-1e3, near the grid, or
    exactly on -1, 0, n - 1 and n, where a corner meets the zero ring."""
    def axis(n):
        return draw(st.lists(st.one_of(
            st.sampled_from([-1.0, 0.0, n - 1.0, float(n)]),
            st.floats(-1e3, 1e3), st.floats(-2.0, n + 1.0)),
            min_size=count, max_size=count))
    return tuple(np.array(axis(n)) for n in dims)


@settings(max_examples=200, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 7)] * 3), count=st.integers(1, 24),
       want_grad=st.booleans(), data=st.data())
def test_sampler_is_bit_identical_to_masked_gather(dims, count, want_grad, data):
    arr = data.draw(arrays(np.float32, dims, elements=st.floats(-1e6, 1e6, width=32)))
    x, y, z = data.draw(sample_points(dims, count))
    got = _trilinear_arrays(_zero_ring(arr), x, y, z, want_grad=want_grad)
    want = oracles.trilinear_arrays(arr, x, y, z, want_grad=want_grad)
    for g, w in zip(got if want_grad else [got], want if want_grad else [want]):
        # bytes, so a -0.0 against a 0.0 counts as a difference too
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
