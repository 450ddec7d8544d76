"""Property tests for the grid algebra, serialization and config checks."""
import json
import math
import tempfile
from contextlib import redirect_stderr
from dataclasses import fields, is_dataclass
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import protoreg as pr
from protoreg import engine, io, similarity, volgrid
from protoreg.cli import cli
from protoreg.errors import ValidationError, _finite_number, _known_keys
from protoreg.volgrid import _Sampler

import oracles

# derandomized, so every tier-1 run draws the same examples
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

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


@settings(max_examples=200, deadline=None, derandomize=True)
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


# float32 values whose double is finite (DisplacementField refuses inf), of
# every exponent, subnormals and both zeros among them
HALF_MAX32 = float(np.finfo(np.float32).max) / 2
transfer_values = st.floats(-HALF_MAX32, HALF_MAX32, width=32)
SUBNORMALS32 = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39], dtype=np.float32)


@st.composite
def upsample_cases(draw):
    """A target grid of 1-12 voxels per axis, odd and even, and a field on
    the coarse grid it refines."""
    target = draw(st.tuples(*[st.integers(1, 12)] * 3))
    src = tuple(math.ceil(t / 2) for t in target)
    return target, draw(arrays(np.float32, (3,) + src, elements=transfer_values))


@SETTINGS
@given(case=upsample_cases())
@example(case=((1, 2, 5), np.resize(SUBNORMALS32, (3, 1, 1, 3))))
@example(case=((4, 3, 2), np.full((3, 2, 2, 1), -0.0, dtype=np.float32)))
@example(case=((3, 4, 6), np.resize(np.array([HALF_MAX32, -HALF_MAX32, 1e-30, -0.0, 7e5],
                                             dtype=np.float32), (3, 2, 2, 3))))
def test_upsample_field_returns_requested_dims(case):
    target, u = case
    up = pr.upsample_field(pr.DisplacementField(u, spacing=(2.0, 2.0, 2.0)), target)
    assert up.dims == target
    assert up.spacing == (1.0, 1.0, 1.0)
    # the bits of trilinear sampling at i/2, clamped to the coarse grid,
    # doubled and rounded to float32
    coords = np.meshgrid(*[np.minimum(np.arange(t) / 2.0, n - 1)
                           for t, n in zip(target, u.shape[1:])], indexing="ij")
    for c, got in zip(u, up.data):
        want = (2.0 * oracles.trilinear_arrays(c, *coords)).astype(np.float32)
        assert got.tobytes() == want.tobytes()


@SETTINGS
@given(vol=st.tuples(*[st.integers(1, 9)] * 3).flatmap(
    lambda dims: arrays(np.float32, dims, elements=finite32)))
@example(vol=np.resize(SUBNORMALS32, (3, 1, 5)))
@example(vol=np.full((2, 3, 1), -0.0, dtype=np.float32))
@example(vol=np.resize(np.array([np.finfo(np.float32).max, -1e-38, 3.0, -0.0, 1e-45],
                                dtype=np.float32), (5, 4, 3)))
def test_downsample_avg_keeps_the_reduceat_bits(vol):
    out = pr.downsample_avg(pr.Volume(vol, spacing=(1.0, 0.5, 2.0)))
    assert out.data.tobytes() == oracles.downsample_avg_reduceat(vol).tobytes()
    assert out.spacing == (2.0, 1.0, 4.0)


@st.composite
def two_phase_masks(draw):
    """A 0/1 mask with both phases: random voxels inside a random box, the
    box's complement taken or not, so either side can fill a small box."""
    dims = draw(st.tuples(*[st.integers(1, 10)] * 3))
    box = []
    for n in dims:
        lo = draw(st.integers(0, n - 1))
        box.append(slice(lo, draw(st.integers(lo + 1, n))))
    fill = np.zeros(dims, dtype=bool)
    fill[tuple(box)] = draw(arrays(np.bool_, fill[tuple(box)].shape))
    if draw(st.booleans()):
        fill = ~fill
    assume(fill.any() and not fill.all())
    return fill.astype(np.float32)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mask=two_phase_masks(), spacing=st.sampled_from(
    [(1.0, 1.0, 1.0), (1.0, 1.0, 3.0), (0.7, 1.3, 2.9)]) | triples(0.1, 10.0))
@example(mask=np.pad(np.ones((1, 1, 1), np.float32), 3), spacing=(2.0, 1.0, 1.0))
def test_signed_distance_keeps_the_whole_grid_bits(mask, spacing):
    # each side's EDT on its box plus a one-voxel margin
    got = pr.signed_distance(pr.Volume(mask, spacing=spacing)).data
    assert got.tobytes() == oracles.signed_distance_whole_grid(mask, spacing).tobytes()


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dims=st.tuples(*[st.integers(1, 7)] * 3), count=st.integers(1, 24),
       want_grad=st.booleans(), data=st.data())
def test_sampler_is_bit_identical_to_masked_gather(dims, count, want_grad, data):
    arr = data.draw(arrays(np.float32, dims, elements=st.floats(-1e6, 1e6, width=32)))
    x, y, z = data.draw(sample_points(dims, count))
    got = _Sampler(arr)(np.stack([x, y, z]), want_grad=want_grad)
    want = oracles.trilinear_arrays(arr, x, y, z, want_grad=want_grad)
    _assert_same_bits(got, want, want_grad)


def _assert_same_bits(got, want, want_grad):
    for g, w in zip(got if want_grad else [got], want if want_grad else [want]):
        # bytes, so a -0.0 against a 0.0 counts as a difference too
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dims=st.tuples(*[st.integers(1, 7)] * 3), chunk=st.integers(1, 7),
       shapes=st.tuples(shapes, shapes), want_grad=st.booleans(), into=st.booleans(),
       data=st.data())
def test_sampler_bits_do_not_depend_on_chunking(dims, chunk, shapes, want_grad, into, data):
    # a chunk of a few points splits a multi-axis set of coordinates into
    # many chunks and a ragged last one; a second, separately drawn set
    # goes through the same sampler, so nothing may carry over between
    # calls, nor through one output buffer that starts as NaN
    arr = data.draw(arrays(np.float32, dims, elements=st.floats(-1e6, 1e6, width=32)))
    with mock.patch.object(volgrid, "_SAMPLER_CHUNK", chunk):
        sample = _Sampler(arr)
    out = np.full((4, 4 ** 3), np.nan)
    for shape in shapes:
        coords = np.stack(data.draw(sample_points(dims, math.prod(shape)))).reshape(
            (3,) + shape)
        got = sample(coords, want_grad=want_grad,
                     out=out[:, :math.prod(shape)] if into else None)
        want = oracles.trilinear_arrays(arr, *coords, want_grad=want_grad)
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


@settings(max_examples=400, deadline=None, derandomize=True)
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


def _smoothness(u):
    """S(u) and its float64 adjoint 2/N * (D^T D) u, from the pass that
    writes the adjoint."""
    grad = np.empty(u.shape)
    return similarity._Smoothness(u.shape[1:])(u, grad), grad


@SETTINGS
@given(u=st.tuples(*[st.integers(2, 7)] * 3).flatmap(
    lambda dims: arrays(np.float64, (3,) + dims, elements=st.floats(-1e3, 1e3))))
def test_fused_smoothness_matches_two_passes(u):
    energy, grad = _smoothness(u)
    want_energy, want_grad = oracles.smoothness_two_pass(u)
    assert energy == want_energy == similarity._Smoothness(u.shape[1:])(u)
    assert grad.tobytes() == want_grad.tobytes()


@st.composite
def slabbed_fields(draw):
    """(planes, u): a field of float32 or float64 whose grid of at least 2
    x-planes spans 1-6 slabs of `planes` x-planes, the last one possibly
    short."""
    planes, slabs = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    nx = draw(st.integers(max(2, (slabs - 1) * planes + 1), max(2, slabs * planes)))
    dims = (nx,) + draw(st.tuples(st.integers(2, 5), st.integers(2, 5)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    return planes, draw(arrays(dtype, (3,) + dims,
                               elements=st.floats(-1e3, 1e3, width=width)))


@SETTINGS
@given(case=slabbed_fields())
def test_slabbed_smoothness_matches_two_passes(case):
    # volgrid._CHUNK sets the slab: one of `planes` x-planes of ny * nz voxels
    planes, u = case
    with mock.patch.object(volgrid, "_CHUNK", planes * u.shape[2] * u.shape[3]):
        energy, grad = _smoothness(u)
        alone = similarity._Smoothness(u.shape[1:])(u)
    want_energy, want_grad = oracles.smoothness_two_pass(u.astype(np.float64))
    # the adjoint keeps its bits; the energy adds up per-slab sums
    assert grad.tobytes() == want_grad.tobytes()
    assert energy == alone
    assert abs(energy - want_energy) <= 2e-15 * abs(want_energy)


def _slabbed(planes, dims, f, *args, **kwargs):
    """f(*args, **kwargs) with every whole-grid pass cut into x-slabs of
    `planes` planes of a grid of dims."""
    with mock.patch.object(volgrid, "_CHUNK", planes * dims[1] * dims[2]):
        return f(*args, **kwargs)


def _field_example(nx):
    u = np.linspace(-1e3, 1e3, 3 * nx * 3 * 4).reshape(3, nx, 3, 4)
    return np.sin(u) * u


@SETTINGS
@given(case=slabbed_fields(), odd=st.tuples(*[st.booleans()] * 3))
# the halo's edge cases: a grid of 2 planes in two one-plane slabs, and a
# one-plane last slab at the high face
@example(case=(1, _field_example(2)), odd=(True, False, True))
@example(case=(3, _field_example(7)), odd=(False, True, False))
def test_slabbed_passes_keep_the_one_slab_bits(case, odd):
    # each whole-grid pass, cut into slabs of 1 plane up to the whole grid,
    # returns the bytes of the one-slab pass (these grids are one slab of
    # volgrid._CHUNK); the field moves voxels by up to 4, so warps sample
    # both inside the grid and off it
    planes, u = case
    dims = u.shape[1:]
    fld = pr.DisplacementField(u / 250.0, spacing=(1.0, 2.0, 1.5), origin=(3.0, -1.0, 0.5))
    img = pr.Volume(u[0], spacing=fld.spacing, origin=fld.origin)
    t = pr.RigidTransform(rotation=(0.2, -0.1, 0.3), translation=(1.0, -0.5, 2.0),
                          center=engine._physical_center(img))
    passes = [(pr.jacobian_det, fld), (pr.warp, img, fld),
              (engine.resample_rigid, img, fld, t), (engine.resample_rigid, img, img, t)]
    for f, *args in passes:
        assert _slabbed(planes, dims, f, *args).data.tobytes() == f(*args).data.tobytes()
    # upsampled onto a grid of twice the voxels per axis, or one fewer, cut there
    target = tuple(2 * n - o for n, o in zip(dims, odd))
    want = pr.upsample_field(fld, target).data
    assert _slabbed(planes, target, pr.upsample_field, fld, target).data.tobytes() \
        == want.tobytes()

    # a few descent steps on a bowl at u, under a gate in u's dtype
    def evaluate(x):
        d = x - u
        return float((d.astype(np.float64) ** 2).sum()), 2 * d
    gate = (1.0 + np.abs(u[0]) / 2e3).astype(u.dtype)
    args = (evaluate, np.zeros_like(u), 4, 0.0, gate)
    with mock.patch.object(engine, "LEVEL_STEP", 0.5):
        want = engine._descend(*args)
        got = _slabbed(planes, dims, engine._descend, *args)
    assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


# a report that `protoreg warp --rigid` takes, on a 6^3 grid of 2 mm voxels
VALID_RIGID = {"rotation": [0.05, -0.1, 0.2], "translation": [1.5, -2.0, 0.5],
               "center": [5.0, 5.0, 5.0]}
RIGID_KEYS = sorted(VALID_RIGID)


@st.composite
def rigid_reports(draw):
    """register's report, its rigid_transform mutated up to three times: a
    key dropped, added or retyped, a number replaced by any JSON number
    (non-finite, or an integer too large for a float), a list of another
    length, a list of finite numbers near the float range's ends, or the
    whole transform replaced."""
    doc = {"levels": [], "rigid_transform": json.loads(json.dumps(VALID_RIGID))}
    for _ in range(draw(st.integers(0, 3))):
        rt = doc.get("rigid_transform")
        kind = draw(st.sampled_from(["drop", "add", "retype", "number", "length", "huge",
                                     "whole"]))
        if kind == "whole" or not isinstance(rt, dict):
            if draw(st.booleans()):
                doc["rigid_transform"] = draw(config_values)
            else:
                doc.pop("rigid_transform", None)
            continue
        key = draw(st.sampled_from(RIGID_KEYS))
        if kind == "drop":
            rt.pop(key, None)
        elif kind == "add":
            rt[draw(st.sampled_from(["scale", "rotation", "", "centre"]))] = draw(config_values)
        elif kind == "retype":
            rt[key] = draw(config_values)
        elif kind == "number" and isinstance(rt.get(key), list) and rt[key]:
            rt[key][draw(st.integers(0, len(rt[key]) - 1))] = draw(json_numbers)
        elif kind == "length":
            rt[key] = draw(st.lists(json_numbers, max_size=5))
        elif kind == "huge":
            rt[key] = draw(st.lists(st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
                                    min_size=3, max_size=3))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=rigid_reports())
def test_warp_rigid_report_exits_0_or_2(doc):
    # whatever the report holds, warp --rigid either warps (exit 0, silent)
    # or refuses it as a validation error (exit 2); nothing escapes cli()
    img = pr.Volume(np.arange(216, dtype=np.float32).reshape(6, 6, 6), spacing=(2.0,) * 3)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        io.write_volume(str(tmp / "img"), img, kind="image")
        io.write_volume(str(tmp / "fld"), pr.zero_field(img), kind="field")
        (tmp / "report.json").write_text(json.dumps(doc))
        err = StringIO()
        with redirect_stderr(err):
            rc = cli(["warp", "--image", str(tmp / "img"), "--field", str(tmp / "fld"),
                      "--rigid", str(tmp / "report.json"), "--out", str(tmp / "out")])
        if rc == 0:
            assert err.getvalue() == ""
            assert io.read_volume(str(tmp / "out")).dims == img.dims
        else:
            assert rc == 2, (doc, err.getvalue())
            assert err.getvalue().startswith("validation error: "), (doc, err.getvalue())
