"""Property tests for the grid algebra, serialization and config checks."""
import json
import math
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import protoreg as pr
from protoreg import io, similarity, volgrid
from protoreg.errors import ValidationError, _finite_number, _known_keys
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
@given(dims=st.tuples(*[st.integers(1, 40)] * 3), levels=st.integers(1, 8))
def test_pyramid_levels_keep_four_voxels_and_ceil_halve(dims, levels):
    pyr = pr.build_pyramid(pr.Volume(np.zeros(dims, dtype=np.float32)), levels)
    assert 1 <= len(pyr) <= levels
    assert pyr[0].dims == dims
    for fine, coarse in zip(pyr, pyr[1:]):
        assert coarse.dims == tuple(math.ceil(d / 2) for d in fine.dims)
    # a grid with an axis under 4 voxels is not pooled
    assert len(pyr) == 1 or all(min(lv.dims) >= 4 for lv in pyr)
    # clipped only where one more level would leave an axis under 4 voxels
    assert len(pyr) == levels or min(math.ceil(d / 2) for d in pyr[-1].dims) < 4


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
    _assert_same_bits(got, want, want_grad)


def _assert_same_bits(got, want, want_grad):
    for g, w in zip(got if want_grad else [got], want if want_grad else [want]):
        # bytes, so a -0.0 against a 0.0 counts as a difference too
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple)


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 7)] * 3), chunk=st.integers(1, 7),
       shapes=st.tuples(shapes, shapes), want_grad=st.booleans(), data=st.data())
def test_sampler_bits_do_not_depend_on_chunking(dims, chunk, shapes, want_grad, data):
    # a chunk of a few points splits a multi-axis set of coordinates into
    # many chunks and a ragged last one; a second, separately drawn set
    # goes through the same scratch, so nothing may carry over between
    # calls
    arr = data.draw(arrays(np.float32, dims, elements=st.floats(-1e6, 1e6, width=32)))
    ringed = _zero_ring(arr)
    with mock.patch.object(volgrid, "_CHUNK", chunk):
        scratch = volgrid._SamplerScratch(math.prod(shapes[0]))
        for shape in shapes:
            x, y, z = (c.reshape(shape) for c in
                       data.draw(sample_points(dims, math.prod(shape))))
            got = _trilinear_arrays(ringed, x, y, z, want_grad=want_grad,
                                    scratch=scratch)
            want = oracles.trilinear_arrays(arr, x, y, z, want_grad=want_grad)
            _assert_same_bits(got, want, want_grad)


# JSON numbers, including what Python's JSON parser takes beyond the
# standard: NaN, +-Infinity and integers too large for a float
json_numbers = st.one_of(
    st.integers(1, 40), st.floats(0.5, 50.0), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]))
config_values = st.recursive(
    st.none() | st.booleans() | json_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)


def shaped_like(default):
    """JSON values nested as default is, each number drawn anew."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, (int, float)):
        return json_numbers
    return st.tuples(*map(shaped_like, default)).map(list)


def config_docs(cls):
    """JSON objects over the keys of the dataclass cls, each value drawn
    either shaped like the key's default or as any JSON value."""
    def entry(f):
        shaped = (config_docs(pr.PriorParams) if f.name == "prior_params"
                  else shaped_like(f.default))
        return st.tuples(st.just(f.name), shaped | config_values)
    return st.lists(st.sampled_from(fields(cls)).flatmap(entry), max_size=6).map(dict)


def _phantom_spec(doc):
    # the CLI's path: top-level lists become tuples
    doc = _known_keys(pr.PhantomSpec, doc, "phantom spec")
    return pr.PhantomSpec(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in doc.items()})


def _leaves(obj):
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


BUILDS = {
    "config": (config_docs(pr.RegConfig), pr.RegConfig.from_dict),
    "prior params": (config_docs(pr.PriorParams), lambda d: pr.PriorParams(
        **_known_keys(pr.PriorParams, d, "prior params"))),
    "phantom spec": (config_docs(pr.PhantomSpec), _phantom_spec),
    "field spec": (config_docs(pr.FieldSpec), lambda d: pr.FieldSpec(
        **_known_keys(pr.FieldSpec, d, "field spec"))),
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), what=st.sampled_from(sorted(BUILDS)))
def test_config_builds_hold_only_finite_numbers(data, what):
    # objects are only built, never run: a drawn dims could ask for terabytes
    docs, build = BUILDS[what]
    doc = data.draw(docs)
    try:
        obj = build(doc)
    except ValidationError:
        return
    for leaf in _leaves(obj):
        assert isinstance(leaf, bool) or _finite_number(leaf), (what, doc, leaf)


@SETTINGS
@given(u=st.tuples(*[st.integers(2, 7)] * 3).flatmap(
    lambda dims: arrays(np.float64, (3,) + dims, elements=st.floats(-1e3, 1e3))))
def test_fused_smoothness_matches_two_passes(u):
    energy, grad = similarity._smoothness(u, True)
    want_energy, want_grad = oracles.smoothness_two_pass(u)
    assert energy == want_energy == similarity._smoothness(u)[0]
    assert grad.tobytes() == want_grad.tobytes()
    assert similarity._smoothness(u)[1] is None
