import contextlib
import importlib
import io as stdio
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import protoreg as pr
from protoreg import engine, io
from protoreg.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, cli
from protoreg.errors import FormatError

from conftest import (SMALL_PHANTOM, lattice_safe_field, number_paths, random_volume,
                      with_numbers)


class TestVolumeIO:
    def test_round_trip_volume(self, tmp_path, rng):
        vol = pr.Volume(rng.random((4, 5, 6)).astype(np.float32),
                        spacing=(1.0, 1.5, 2.0), origin=(-3.0, 0.0, 7.5))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        back = io.read_volume(str(tmp_path / "v"))
        assert isinstance(back, pr.Volume)
        assert back.spacing == vol.spacing and back.origin == vol.origin
        assert np.array_equal(back.data, vol.data)

    def test_round_trip_field(self, tmp_path, rng):
        fld = lattice_safe_field(rng, (3, 4, 5))
        io.write_volume(str(tmp_path / "f"), fld, kind="field")
        back = io.read_volume(str(tmp_path / "f"))
        assert isinstance(back, pr.DisplacementField)
        assert np.array_equal(back.data, fld.data)

    def test_known_byte_fixture(self, tmp_path):
        # dims 2x1x1, values [1.0, 2.0] -> exactly these 8 bytes
        vol = pr.Volume(np.array([1.0, 2.0], dtype=np.float32).reshape(2, 1, 1))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        raw = (tmp_path / "v.raw").read_bytes()
        assert raw == bytes.fromhex("0000803f00000040")

    def test_byte_fixture_reads_back(self, tmp_path):
        (tmp_path / "v.raw").write_bytes(bytes.fromhex("0000803f00000040"))
        (tmp_path / "v.json").write_text(json.dumps({
            "dims": [2, 1, 1], "spacing": [1.0, 1.0, 1.0],
            "origin": [0.0, 0.0, 0.0], "components": 1,
            "dtype": "f32le", "order": "x-fastest", "kind": "image"}))
        back = io.read_volume(str(tmp_path / "v"))
        assert back.data[0, 0, 0] == 1.0 and back.data[1, 0, 0] == 2.0

    def test_raw_is_x_fastest(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        io.write_volume(str(tmp_path / "v"), pr.Volume(data), kind="image")
        flat = np.frombuffer((tmp_path / "v.raw").read_bytes(), dtype="<f4")
        # x varies fastest: (0,0,0),(1,0,0),(0,1,0),(1,1,0),...
        np.testing.assert_array_equal(flat, data.ravel(order="F"))

    def test_field_raw_length(self, tmp_path, rng):
        fld = lattice_safe_field(rng, (3, 4, 5))
        io.write_volume(str(tmp_path / "f"), fld, kind="field")
        assert (tmp_path / "f.raw").stat().st_size == 12 * 3 * 4 * 5

    def test_header_keys_sorted(self, tmp_path, rng):
        vol = random_volume(rng, (2, 2, 2))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        text = (tmp_path / "v.json").read_text()
        keys = list(json.loads(text).keys())
        assert keys == sorted(keys)

    def test_write_is_deterministic(self, tmp_path, rng):
        vol = random_volume(rng, (4, 4, 4))
        io.write_volume(str(tmp_path / "a"), vol, kind="image")
        io.write_volume(str(tmp_path / "b"), vol, kind="image")
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truncated_raw_rejected(self, tmp_path, rng):
        vol = random_volume(rng, (4, 4, 4))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        raw = (tmp_path / "v.raw").read_bytes()
        (tmp_path / "v.raw").write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            io.read_volume(str(tmp_path / "v"))

    def test_long_raw_refused_before_it_is_read(self, tmp_path):
        # a 1-voxel header over a raw file padded by 1 MiB: its size alone
        # refuses it, so nothing near the file's length is read into memory
        vol = pr.Volume(np.ones((1, 1, 1), dtype=np.float32))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        io.write_volume(str(tmp_path / "f"), pr.zero_field(vol), kind="field")
        with open(tmp_path / "v.raw", "ab") as f:
            f.write(bytes(2 ** 20))
        assert _exit_code_contract(["warp", "--image", str(tmp_path / "v"), "--field",
                                    str(tmp_path / "f"), "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="1048580 bytes, expected 4"):
                io.read_volume(str(tmp_path / "v"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 10

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("dims, sent, refusal, peak_bound", [
        # a 1-voxel header over a pipe fed 1 MiB: refused after a few bytes,
        # not read whole (a link to /dev/zero would never end)
        ((1, 1, 1), 2 ** 20, "more than 4 bytes", 64 * 2 ** 10),
        # a header claiming a 1 GiB grid over a pipe that carries 100 bytes:
        # what is held grows with the bytes that arrive (64 KiB pieces), not
        # with the header's dims
        ((1024, 512, 512), 100, "has 100 bytes, expected 1073741824", 128 * 2 ** 10)],
        ids=["long", "short-under-huge-dims"])
    def test_raw_pipe_refused_after_a_bounded_read(self, tmp_path, dims, sent, refusal,
                                                   peak_bound):
        # a pipe's size is not known before it is read
        vol = pr.Volume(np.ones((1, 1, 1), dtype=np.float32))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        header = json.loads((tmp_path / "v.json").read_text())
        header["dims"] = list(dims)
        (tmp_path / "v.json").write_text(json.dumps(header))
        (tmp_path / "v.raw").unlink()
        os.mkfifo(tmp_path / "v.raw")
        payload = bytes(sent)

        def feed():
            # the reader may close the pipe early, which breaks it
            try:
                with open(tmp_path / "v.raw", "wb") as f:
                    f.write(payload)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=refusal):
                io.read_volume(str(tmp_path / "v"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=30)
        assert peak < peak_bound

    def test_bad_components_rejected(self, tmp_path, rng):
        vol = random_volume(rng, (2, 2, 2))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        header = json.loads((tmp_path / "v.json").read_text())
        header["components"] = 2
        (tmp_path / "v.json").write_text(json.dumps(header))
        with pytest.raises(FormatError):
            io.read_volume(str(tmp_path / "v"))

    def test_unknown_header_key_rejected(self, tmp_path, rng):
        io.write_volume(str(tmp_path / "v"), random_volume(rng, (2, 2, 2)), kind="image")
        header = json.loads((tmp_path / "v.json").read_text())
        header["nope"] = 1
        (tmp_path / "v.json").write_text(json.dumps(header))
        with pytest.raises(FormatError):
            io.read_volume(str(tmp_path / "v"))

    def test_malformed_json_rejected(self, tmp_path, rng):
        vol = random_volume(rng, (2, 2, 2))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        (tmp_path / "v.json").write_text("{not json")
        with pytest.raises(FormatError):
            io.read_volume(str(tmp_path / "v"))

    @pytest.mark.parametrize("written, edited", [("image", "field"), ("field", "mask")])
    def test_header_kind_must_match_components(self, tmp_path, rng, written, edited):
        obj = (lattice_safe_field(rng, (2, 2, 2)) if written == "field"
               else random_volume(rng, (2, 2, 2)))
        io.write_volume(str(tmp_path / "v"), obj, kind=written)
        header = json.loads((tmp_path / "v.json").read_text())
        (tmp_path / "v.json").write_text(json.dumps({**header, "kind": edited}))
        with pytest.raises(FormatError, match="v.json: kind"):
            io.read_volume(str(tmp_path / "v"))

    def test_kind_type_mismatch_rejected(self, tmp_path, rng):
        with pytest.raises(pr.ValidationError):
            io.write_volume(str(tmp_path / "v"), random_volume(rng, (2, 2, 2)),
                            kind="field")
        with pytest.raises(pr.ValidationError):
            io.write_volume(str(tmp_path / "v"), lattice_safe_field(rng, (2, 2, 2)),
                            kind="image")


def _write_spec(path, dims=(24, 24, 24)):
    doc = {
        "dims": list(dims),
        "body_semi_axes_mm": [10.0, 9.0, 10.0],
        "ctv_center_mm": [2.0, 1.0, -1.0],
        "ctv_radius_mm": 3.0,
        "oars": [[[-4.0, -2.0, 2.0], 2.0]],
        "dose_tau_mm": 4.0,
        "seed": 7,
    }
    path.write_text(json.dumps(doc))
    return path


# Malformed JSON documents: (the CLI option that reads it, case name,
# contents). Bytes are written as they are, anything else as JSON; a "header"
# dict is merged into a valid volume header, where None deletes the key.
ROW = [0.0] * 512
MALFORMED = [
    *[(doc, name, bad) for doc in ("spec", "params", "config", "embeddings",
                                   "adapter", "header")
      for name, bad in (("bad-json", b"{broken"), ("non-utf8", b'{"seed": "\xff"}'),
                        ("utf8-bom", b"\xef\xbb\xbf{}"), ("empty", b""))],
    ("spec", "list", [1, 2]), ("spec", "unknown-key", {"nope": 1}),
    ("spec", "string-seed", {"seed": "7"}), ("spec", "float-dims", {"dims": [24.5, 24, 24]}),
    ("params", "string", "text"), ("params", "unknown-key", {"nope": 1}),
    ("params", "string-sigma", {"sigma_mm": "5"}),
    ("config", "null", None), ("config", "unknown-key", {"nope": 1}),
    ("config", "bool-levels", {"levels": True}),
    # gate and FiLM act on a prior, so without one they are refused
    ("config", "gate-without-prior", {"use_gate": True}),
    ("config", "film-without-prior", {"use_film": True}),
    ("embeddings", "list", ROW),
    ("embeddings", "string-values", {"dim": 512, "values": ["0"] * 512}),
    ("embeddings", "bool-values", {"dim": 512, "values": [True] * 512}),
    ("embeddings", "short-values", {"dim": 512, "values": ROW[1:]}),
    ("embeddings", "object-values", {"dim": 512, "values": {"a": 1}}),
    ("embeddings", "nan-value", {"dim": 512, "values": [float("nan")] + ROW[1:]}),
    ("embeddings", "huge-int-value", {"dim": 512, "values": [10 ** 400] + ROW[1:]}),
    ("embeddings", "missing-values", {"dim": 512}),
    ("embeddings", "missing-dim", {"values": ROW}),
    ("embeddings", "float-dim", {"dim": 512.0, "values": ROW}),
    ("embeddings", "unknown-key", {"dim": 512, "values": ROW, "nope": 1}),
    ("embeddings", "list-source", {"dim": 512, "values": ROW, "source": ["anatomy"]}),
    ("adapter", "list", [ROW]),
    ("adapter", "string-matrix", {"matrix": [["0"] * 512] * 2, "bias": [0.0, 0.0]}),
    ("adapter", "ragged-matrix", {"matrix": [ROW, ROW[:3]], "bias": [0.0, 0.0]}),
    ("adapter", "inf-matrix", {"matrix": [ROW, [float("inf")] + ROW[1:]],
                               "bias": [0.0, 0.0]}),
    ("adapter", "huge-int-bias", {"matrix": [ROW] * 2, "bias": [10 ** 400, 0]}),
    ("adapter", "string-bias", {"matrix": [ROW] * 2, "bias": ["0", "0"]}),
    ("adapter", "number-bias", {"matrix": [ROW] * 2, "bias": 0.0}),
    ("adapter", "short-bias", {"matrix": [ROW] * 2, "bias": [0.0]}),
    ("adapter", "odd-rows", {"matrix": [ROW] * 3, "bias": [0.0] * 3}),
    ("adapter", "missing-matrix", {"bias": [0.0, 0.0]}),
    ("adapter", "missing-bias", {"matrix": [ROW] * 2}),
    ("adapter", "unknown-key", {"matrix": [ROW] * 2, "bias": [0.0, 0.0], "nope": 1}),
    ("header", "list", [1]), ("header", "missing-dims", {"dims": None}),
    ("header", "missing-dtype", {"dtype": None}),
    ("header", "float-dims", {"dims": [24.7, 24, 24]}),
    ("header", "number-dims", {"dims": 24}), ("header", "two-dims", {"dims": [24, 24]}),
    ("header", "string-dim", {"dims": [24, 24, "24"]}),
    ("header", "bool-components", {"components": True}),
    ("header", "field-components", {"components": 3}),
    ("header", "string-components", {"components": "1"}),
    ("header", "list-dtype", {"dtype": ["f32le"]}),
    ("header", "string-spacing", {"spacing": ["a", 1, 1]}),
    ("header", "nan-spacing", {"spacing": [float("nan"), 1, 1]}),
    ("header", "zero-spacing", {"spacing": [0, 1, 1]}),
    ("header", "number-spacing", {"spacing": 1}),
    ("header", "string-origin", {"origin": ["x", 0, 0]}),
    ("header", "inf-origin", {"origin": [0, float("inf"), 0]}),
    ("header", "two-origin", {"origin": [0, 0]}),
    ("header", "missing-origin", {"origin": None}),
    ("header", "unknown-key", {"nope": 1}), ("header", "missing-kind", {"kind": None}),
    ("header", "unlisted-kind", {"kind": "bogus"}),
    ("header", "field-kind", {"kind": "field"}),
    # numbers that are not finite or do not fit in a float
    ("config", "nan-convergence-tol", {"convergence_tol": float("nan")}),
    ("params", "nan-gate-center", {"gate_center": float("nan")}),
    ("spec", "inf-dose-tau", {"dose_tau_mm": float("inf")}),
    ("spec", "inf-texture-corr", {"texture_corr_mm": float("inf")}),
    ("spec", "huge-int-ctv-radius", {"ctv_radius_mm": 10 ** 400}),
    ("config", "huge-int-lambda", {"lambda_smooth": 10 ** 400}),
    ("spec", "huge-int-spacing", {"spacing": [1, 1, 10 ** 400]}),
    ("spec", "inf-body-semi-axis", {"dims": [16, 16, 16], "ctv_radius_mm": 2.0,
                                    "ctv_center_mm": [0, 0, 0], "oars": [],
                                    "body_semi_axes_mm": [6, float("inf"), 6]}),
]


@pytest.mark.parametrize("key, value", [("body_semi_axes_mm", [0, 6, 7]),
                                        ("dose_tau_mm", 1e-200),
                                        # kernels and grids numpy refuses to index
                                        ("texture_corr_mm", 1e300),
                                        ("texture_corr_mm", 1e308),
                                        ("spacing", [1e-300, 1, 1]),
                                        ("dims", [8, 8, 2 ** 62]),
                                        # radii whose square overflows a float
                                        ("ctv_radius_mm", 1e300),
                                        ("oars", [[[-4.0, -2.0, 2.0], 1e300]])])
def test_degenerate_phantom_spec_names_key(tmp_path, capsys, key, value):
    path = _write_spec(tmp_path / "spec.json", dims=(16, 16, 16))
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli(["phantom", "--spec", str(path), "--out", str(tmp_path / "ph")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and key in err
    assert not (tmp_path / "ph").exists()


def _exit_code_contract(argv):
    """cli(argv) in-process: exit 0 with nothing on stderr, or exit 2 or 3
    with its stderr prefix; an exception escaping cli() fails the caller."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli(argv)
    out = err.getvalue()
    prefix = {EXIT_VALIDATION: "validation error: ", EXIT_RUNTIME: "runtime error: "}
    assert (rc == EXIT_OK and out == "") or (
        rc in prefix and out.startswith(prefix[rc])), (rc, out)
    return rc


# a valid 6^3 spec; each drawn example replaces a few of its numbers by
# values from PROBES only. No entry of PROBES makes a grid or a texture
# kernel this machine could allocate: a mid-sized texture_corr_mm (say 1e6)
# would build a kernel of megabytes and a slow filter
TINY_SPEC = {"dims": [6, 6, 6], "spacing": [1.0, 1.0, 1.0],
             "body_semi_axes_mm": [2.5, 2.5, 2.5], "ctv_center_mm": [0.0, 0.0, 0.0],
             "ctv_radius_mm": 1.0, "oars": [[[-1.0, -1.0, 0.5], 0.8]],
             "texture_amplitude": 0.25, "texture_corr_mm": 1.0, "dose_max": 60.0,
             "dose_tau_mm": 2.0, "seed": 7}
PROBES = [0, -1, 5e-324, 1e-300, 1e300, 2 ** 62, math.nan]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(changes=st.dictionaries(st.sampled_from(number_paths(TINY_SPEC)),
                               st.sampled_from(PROBES), max_size=3))
def test_phantom_spec_probes_keep_the_exit_code_contract(changes):
    doc = with_numbers(TINY_SPEC, changes)
    with tempfile.TemporaryDirectory() as d:
        spec = Path(d, "spec.json")
        spec.write_text(json.dumps(doc))
        _exit_code_contract(["phantom", "--spec", str(spec), "--out", str(Path(d, "ph"))])


# a valid register --config with every prior on and small budgets, and the
# 8^3 phantom, embedding and adapter it runs on. Each drawn example replaces
# up to three of its numbers by CONFIG_PROBES, changes one list's length,
# then drops, adds or retypes one key
TINY_CONFIG = {"levels": 2, "iterations": [2, 2], "lambda_smooth": 0.2,
               "use_anatomy": True, "use_risk": True, "use_gate": True, "use_film": True,
               "prior_params": asdict(pr.PriorParams()), "convergence_tol": 1e-5,
               "rigid_iterations": [2, 1]}
CONFIG_PROBES = [math.nan, 1e300, -1e300, 1e-300, 2 ** 62, -1, 0]
CONFIG_RETYPED = [None, True, "x", 512, 0.5, [], {}]
CONFIG_LISTS = [None, ("iterations", 0), ("iterations", 7), ("rigid_iterations", 0),
                ("rigid_iterations", 3)]


@pytest.fixture(scope="module")
def tiny_phantom(tmp_path_factory):
    """The paths of the 8^3 phantom's volumes by name, and of an embedding
    ("emb") and an adapter ("adapter") for it."""
    d = tmp_path_factory.mktemp("tiny_phantom")
    spec = d / "spec.json"
    spec.write_text(json.dumps({
        "dims": [8, 8, 8], "body_semi_axes_mm": [3.5, 3.5, 3.5],
        "ctv_center_mm": [0.0, 0.0, 0.0], "ctv_radius_mm": 1.5,
        "oars": [[[-1.5, -1.5, 1.0], 1.0]], "dose_tau_mm": 2.0, "seed": 7}))
    assert cli(["phantom", "--spec", str(spec), "--out", str(d / "ph")]) == EXIT_OK
    pr.condition.save_embedding(str(d / "emb.json"), pr.pseudo_embedding("oropharynx"))
    pr.condition.save_adapter(str(d / "adapter.json"), pr.AdapterWeights.random(1))
    return {name: str(d / "ph" / name) for name in ("image", "body", "ctv", "oar_0", "dose")} \
        | {"emb": str(d / "emb.json"), "adapter": str(d / "adapter.json")}


@pytest.fixture(scope="module")
def register_inputs(tiny_phantom):
    ph = tiny_phantom
    return ["register", "--fixed", ph["image"], "--moving", ph["image"],
            "--body", ph["body"], "--ctv", ph["ctv"], "--oars", ph["oar_0"],
            "--dose", ph["dose"], "--embeddings", ph["emb"], "--adapter", ph["adapter"]]


# each drawn example replaces up to three numbers of the default priors
# --params document by CONFIG_PROBES, then drops, adds or retypes one key
PARAMS = asdict(pr.PriorParams())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_prior_params_probes_keep_the_exit_code_contract(tiny_phantom, data):
    doc = with_numbers(PARAMS, data.draw(st.dictionaries(
        st.sampled_from(number_paths(PARAMS)), st.sampled_from(CONFIG_PROBES), max_size=3)))
    op, key, value = data.draw(st.tuples(st.sampled_from(["keep", "drop", "add", "retype"]),
                                         st.sampled_from(sorted(PARAMS)),
                                         st.sampled_from(CONFIG_RETYPED)))
    if op == "drop":
        del doc[key]
    elif op != "keep":
        doc["extra" if op == "add" else key] = value
    ph = tiny_phantom
    with tempfile.TemporaryDirectory() as d:
        Path(d, "params.json").write_text(json.dumps(doc))
        _exit_code_contract(["priors", "--ctv", ph["ctv"], "--body", ph["body"],
                             "--oars", ph["oar_0"], "--dose", ph["dose"],
                             "--params", str(Path(d, "params.json")),
                             "--out", str(Path(d, "o"))])


# a 4 x 5 x 6 image or field written by write_volume; each drawn example sets
# up to three header values to HEADER_PROBES, then cuts or pads its raw
# file, or resizes it to the length the header asks for. Every grid the
# probes make either needs under 64 KiB or is refused for its raw length,
# so none is allocated
HEADER_PROBES = [0, 1, 3, 7, -1, 2 ** 40, 10 ** 400, 2.0, 1e-320, 1e308, math.nan, True,
                 "field", "mask"]
RAW_CHANGES = ["keep", "header", -4, -1, 1, 4]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_header_and_raw_length_probes_keep_the_exit_code_contract(data):
    img = pr.Volume(np.arange(120, dtype=np.float32).reshape(4, 5, 6), spacing=(1.0, 2.0, 1.5))
    fld = pr.DisplacementField(np.full((3,) + img.dims, 0.5, dtype=np.float32),
                               spacing=img.spacing)
    which = data.draw(st.sampled_from(["image", "field"]))
    raw_change = data.draw(st.sampled_from(RAW_CHANGES))
    with tempfile.TemporaryDirectory() as d:
        io.write_volume(str(Path(d, "image")), img, kind="image")
        io.write_volume(str(Path(d, "field")), fld, kind="field")
        header_path, raw_path = Path(d, which + ".json"), Path(d, which + ".raw")
        header = json.loads(header_path.read_text())
        header = with_numbers(header, data.draw(st.dictionaries(
            st.sampled_from(number_paths(header)), st.sampled_from(HEADER_PROBES),
            max_size=3)))
        header_path.write_text(json.dumps(header))
        raw = raw_path.read_bytes()
        counts = [header["components"], *header["dims"]]
        if raw_change == "header" and all(type(c) is int for c in counts) \
                and 0 <= 4 * math.prod(counts) <= 65536:
            raw = np.resize(np.frombuffer(raw, dtype=np.uint8), 4 * math.prod(counts)).tobytes()
        elif raw_change not in ("keep", "header"):
            raw = raw[:raw_change] if raw_change < 0 else raw + bytes(raw_change)
        raw_path.write_bytes(raw)
        _exit_code_contract(["warp", "--image", str(Path(d, "image")),
                             "--field", str(Path(d, "field")), "--out", str(Path(d, "o"))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_probes_keep_the_exit_code_contract(register_inputs, data):
    doc = with_numbers(TINY_CONFIG, data.draw(st.dictionaries(
        st.sampled_from(number_paths(TINY_CONFIG)), st.sampled_from(CONFIG_PROBES),
        max_size=3)))
    resized = data.draw(st.sampled_from(CONFIG_LISTS))
    if resized is not None:
        key, n = resized
        doc[key] = (doc[key] * n)[:n]
    op, key, value = data.draw(st.tuples(st.sampled_from(["keep", "drop", "add", "retype"]),
                                         st.sampled_from(sorted(TINY_CONFIG)),
                                         st.sampled_from(CONFIG_RETYPED)))
    if op == "drop":
        del doc[key]
    elif op != "keep":
        doc["extra" if op == "add" else key] = value
    with tempfile.TemporaryDirectory() as d:
        config = Path(d, "cfg.json")
        config.write_text(json.dumps(doc))
        rc = _exit_code_contract(register_inputs + ["--config", str(config),
                                                    "--out", str(Path(d, "o"))])
    assert rc != EXIT_RUNTIME, doc


@pytest.mark.parametrize("change, refused", [
    ({}, None),     # the base every probe mutates is valid
    # a rigid stage whose loss keeps falling may run its whole budget, so 2**62
    # iterations need never end
    ({"rigid_iterations": [2 ** 62]}, "iteration counts must lie in [0, 10000]"),
    # so does a level at convergence_tol 0
    ({"iterations": [2, 10_001], "convergence_tol": 0.0},
     "iteration counts must lie in [0, 10000]"),
    # a level's window rule could never meet it, so every level ran its budget
    ({"convergence_tol": -1}, "convergence_tol must be >= 0"),
    # 2 * sigma_mm**2 underflows to 0, and 0 / 0 gave a NaN proximity
    ({"prior_params": {"sigma_mm": 1e-300}}, "sigma_mm must be > 0 with a square > 0"),
    # sigma_mm**2 raised OverflowError (exit 3); a band_mm past float32 and
    # an extreme gate overflowed with a RuntimeWarning
    ({"prior_params": {"sigma_mm": 1e300}}, None),
    ({"prior_params": {"band_mm": 1e300}}, None),
    ({"prior_params": {"gate_steepness": -1e300}}, None),
    ({"prior_params": {"gate_steepness": 1e300, "gate_center": -1e300}}, None),
], ids=["base", "endless-rigid-budget", "level-budget", "negative-tol", "tiny-sigma",
        "huge-sigma", "huge-band", "steep-gate", "far-gate"])
def test_config_point_probes(register_inputs, tmp_path, capsys, change, refused):
    (tmp_path / "cfg.json").write_text(json.dumps({**TINY_CONFIG, **change}))
    rc = cli(register_inputs + ["--config", str(tmp_path / "cfg.json"),
                                "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if refused is None:
        assert rc == EXIT_OK and err == ""
    else:
        assert rc == EXIT_VALIDATION and err.startswith("validation error: ") and refused in err


@pytest.fixture()
def phantom_dir(tmp_path):
    spec = _write_spec(tmp_path / "spec.json")
    out = tmp_path / "ph"
    assert cli(["phantom", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    return out


class TestCli:
    def test_phantom_outputs(self, phantom_dir):
        for name in ("image", "body", "ctv", "oar_0", "dose"):
            assert (phantom_dir / f"{name}.json").exists()
            assert (phantom_dir / f"{name}.raw").exists()
        img = io.read_volume(str(phantom_dir / "image"))
        assert img.dims == (24, 24, 24)

    def test_priors_outputs(self, phantom_dir, tmp_path):
        out = tmp_path / "pri"
        rc = cli(["priors", "--ctv", str(phantom_dir / "ctv"),
                  "--body", str(phantom_dir / "body"),
                  "--oars", str(phantom_dir / "oar_0"),
                  "--dose", str(phantom_dir / "dose"),
                  "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("anatomy", "risk", "fused"):
            vol = io.read_volume(str(out / name))
            assert np.all(vol.data >= 0.0) and np.all(vol.data <= 1.0)

    def test_warp_image_and_mask(self, phantom_dir, tmp_path, rng):
        img = io.read_volume(str(phantom_dir / "image"))
        fld = lattice_safe_field(rng, img.dims)
        io.write_volume(str(tmp_path / "fld"), fld, kind="field")
        rc = cli(["warp", "--image", str(phantom_dir / "image"),
                  "--field", str(tmp_path / "fld"), "--out", str(tmp_path / "wi")])
        assert rc == EXIT_OK
        got = io.read_volume(str(tmp_path / "wi"))
        assert np.array_equal(got.data, pr.warp(img, fld).data)
        rc = cli(["warp", "--mask", str(phantom_dir / "ctv"),
                  "--field", str(tmp_path / "fld"), "--out", str(tmp_path / "wm")])
        assert rc == EXIT_OK
        got = io.read_volume(str(tmp_path / "wm"))
        assert set(np.unique(got.data)) <= {0.0, 1.0}

    def test_warp_mask_refuses_an_image(self, phantom_dir, tmp_path, capsys):
        img = io.read_volume(str(phantom_dir / "image"))
        io.write_volume(str(tmp_path / "fld"), pr.zero_field(img), kind="field")
        rc = cli(["warp", "--mask", str(phantom_dir / "image"),
                  "--field", str(tmp_path / "fld"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not list(tmp_path.glob("o.*"))

    def test_warp_rigid_applies_the_whole_mapping(self, tmp_path):
        # a moving CTV rigidly offset from the phantom by A, and a report
        # whose T = A^-1; warping it through T(x + g(x)) should recover the
        # fixed CTV, warp_contour(ctv, g), where g alone misses by A
        img, st, _ = pr.make_phantom(SMALL_PHANTOM)
        center = engine._physical_center(img)
        angle, shift = math.radians(5.0), np.array([3.0, -2.0, 1.0])
        moved = engine.resample_rigid(st.ctv, st.ctv, pr.RigidTransform(
            rotation=(0.0, 0.0, angle), translation=tuple(shift), center=center))
        io.write_volume(str(tmp_path / "ctv"),
                        moved.with_data((moved.data >= 0.5).astype(np.float32)), kind="mask")
        inverse = engine._axis_rotations((0.0, 0.0, -angle))[2]
        (tmp_path / "report.json").write_text(json.dumps({"rigid_transform": {
            "rotation": [0.0, 0.0, -angle], "translation": list(-(inverse @ shift)),
            "center": list(center)}}))
        g = pr.make_smooth_field(img.dims, pr.FieldSpec(2.5, 4.0, 102),
                                 envelope=st.body.data.astype(np.float64))
        io.write_volume(str(tmp_path / "g"), g, kind="field")
        want = pr.warp_contour(st.ctv, g)
        scores = []
        for extra in ([], ["--rigid", str(tmp_path / "report.json")]):
            out = tmp_path / f"prop{len(extra)}"
            rc = cli(["warp", "--mask", str(tmp_path / "ctv"), "--field", str(tmp_path / "g"),
                      "--out", str(out), *extra])
            assert rc == EXIT_OK
            got = io.read_volume(str(out))
            a, b = want.data > 0, got.data > 0
            scores.append((2.0 * (a & b).sum() / (a.sum() + b.sum()), pr.relvoldiff(want, got)))
        (field_dice, field_rvd), (whole_dice, whole_rvd) = scores
        assert whole_dice > 0.9 > field_dice
        assert whole_rvd < field_rvd

    @pytest.mark.parametrize("doc", [
        {"levels": []},                                           # no rigid_transform
        {"rigid_transform": [0.0, 0.0, 0.0]},
        {"rigid_transform": {"rotation": [0.0, 0.0, 0.0],         # no center
                             "translation": [0.0, 0.0, 0.0]}},
        {"rigid_transform": {"rotation": [0.0, 0.0], "translation": [0.0, 0.0, 0.0],
                             "center": [0.0, 0.0, 0.0]}},
        {"rigid_transform": {"rotation": [0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0],
                             "center": [0.0, 0.0, 0.0], "scale": 2.0}},
        # finite, but T(x) overflows float64
        {"rigid_transform": {"rotation": [0.0, 0.0, 0.5], "translation": [0.0, 0.0, 0.0],
                             "center": [1.7e308] * 3}},
    ])
    def test_warp_rigid_refuses_bad_report(self, phantom_dir, tmp_path, capsys, doc):
        img = io.read_volume(str(phantom_dir / "image"))
        io.write_volume(str(tmp_path / "fld"), pr.zero_field(img), kind="field")
        (tmp_path / "report.json").write_text(json.dumps(doc))
        rc = cli(["warp", "--image", str(phantom_dir / "image"), "--field", str(tmp_path / "fld"),
                  "--rigid", str(tmp_path / "report.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not list(tmp_path.glob("o.*"))

    def test_metrics_identity(self, phantom_dir, tmp_path):
        out = tmp_path / "m.json"
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(phantom_dir / "image"),
                  "--mask", str(phantom_dir / "body"), "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["ncc_pct"] == pytest.approx(100.0)
        assert doc["mse"] == 0.0
        assert doc["ssim_pct"] == pytest.approx(100.0)

    def test_metrics_epe_honours_mask(self, phantom_dir, tmp_path, rng):
        body = io.read_volume(str(phantom_dir / "body"))
        fld = lattice_safe_field(rng, body.dims)      # nonzero off the body too
        truth = pr.zero_field(body)
        io.write_volume(str(tmp_path / "fld"), fld, kind="field")
        io.write_volume(str(tmp_path / "truth"), truth, kind="field")
        out = tmp_path / "m.json"
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(phantom_dir / "image"),
                  "--mask", str(phantom_dir / "body"),
                  "--field", str(tmp_path / "fld"),
                  "--truth", str(tmp_path / "truth"), "--out", str(out)])
        assert rc == EXIT_OK
        got = json.loads(out.read_text())["endpoint_error"]
        assert got == asdict(pr.endpoint_error(fld, truth, mask=body))
        assert got != asdict(pr.endpoint_error(fld, truth))

    def test_metrics_refuses_negative_mask_values(self, tmp_path, rng, capsys):
        # the NCC weights would sum to 0, and the report would read NaN
        m = np.ones((8, 8, 8), dtype=np.float32)
        m[0, 0, 0] = -511.0
        io.write_volume(str(tmp_path / "image"), random_volume(rng, m.shape), kind="image")
        io.write_volume(str(tmp_path / "mask"), pr.Volume(m), kind="mask")
        rc = cli(["metrics", "--fixed", str(tmp_path / "image"),
                  "--warped", str(tmp_path / "image"), "--mask", str(tmp_path / "mask"),
                  "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not (tmp_path / "m.json").exists()

    def test_metrics_csv_line(self, phantom_dir, tmp_path, capsys):
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(phantom_dir / "image"),
                  "--out", str(tmp_path / "m.json"), "--csv"])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert "ncc_pct=" in line and "mse=" in line

    def test_metrics_refuses_warped_on_another_spacing(self, phantom_dir, tmp_path,
                                                       capsys):
        # same dims, 2 mm voxels: not the fixed image's grid
        spec = _write_spec(tmp_path / "coarse.json")
        doc = json.loads(spec.read_text())
        spec.write_text(json.dumps(dict(doc, spacing=[2, 2, 2])))
        assert cli(["phantom", "--spec", str(spec), "--out",
                    str(tmp_path / "coarse")]) == EXIT_OK
        capsys.readouterr()
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(tmp_path / "coarse" / "image"),
                  "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("half", [["--ctv-fixed", "ctv"], ["--ctv-prop", "ctv"],
                                      ["--truth", "fld"]],
                             ids=["ctv-fixed-alone", "ctv-prop-alone", "truth-alone"])
    def test_metrics_refuses_half_a_pair(self, phantom_dir, tmp_path, half):
        img = io.read_volume(str(phantom_dir / "image"))
        io.write_volume(str(tmp_path / "fld"), pr.zero_field(img), kind="field")
        paths = {"ctv": str(phantom_dir / "ctv"), "fld": str(tmp_path / "fld")}
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(phantom_dir / "image"), half[0], paths[half[1]],
                  "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "m.json").exists()

    def test_film_without_adapter_is_validation_error(self, phantom_dir, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"use_anatomy": True, "use_film": True}))
        pr.condition.save_embedding(str(tmp_path / "emb.json"),
                                    pr.pseudo_embedding("oropharynx"))
        rc = cli(["register", "--fixed", str(phantom_dir / "image"),
                  "--moving", str(phantom_dir / "image"),
                  "--ctv", str(phantom_dir / "ctv"),
                  "--embeddings", str(tmp_path / "emb.json"),
                  "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config,embedding,adapter_channels", [
        ({"use_anatomy": True, "use_film": True}, True, None),
        ({"use_risk": True}, False, None),
        ({"use_anatomy": True, "use_film": True}, True, 2),
    ], ids=["film-without-adapter", "risk-without-dose", "film-with-2-channel-adapter"])
    def test_prior_inputs_refused_before_rigid_stage(self, phantom_dir, tmp_path, capsys,
                                                     monkeypatch, config, embedding,
                                                     adapter_channels):
        def no_rigid(*args, **kwargs):
            raise AssertionError("the rigid stage ran")
        monkeypatch.setattr(pr.engine, "_rigid_align", no_rigid)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["register", "--fixed", str(phantom_dir / "image"),
                "--moving", str(phantom_dir / "image"),
                "--ctv", str(phantom_dir / "ctv"), "--body", str(phantom_dir / "body"),
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
        if embedding:
            pr.condition.save_embedding(str(tmp_path / "emb.json"),
                                        pr.pseudo_embedding("oropharynx"))
            argv += ["--embeddings", str(tmp_path / "emb.json")]
        if adapter_channels:
            pr.condition.save_adapter(str(tmp_path / "adapter.json"),
                                      pr.AdapterWeights.random(adapter_channels))
            argv += ["--adapter", str(tmp_path / "adapter.json")]
        assert cli(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert cli(["phantom", "--nope", "x"]) == EXIT_USAGE

    def test_missing_required_is_usage_error(self):
        assert cli(["phantom"]) == EXIT_USAGE
        assert cli([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["warp", "--image", "IMG", "--field", "F", "--rigid", "", "--out", "O"],
        ["warp", "--image", "", "--field", "F", "--out", "O"],
        ["warp", "--mask", "M", "--field", "", "--out", "O"],
        ["register", "--fixed", "A", "--moving", "B", "--config", "", "--out", "O"],
        ["register", "--fixed", "A", "--moving", "B", "--body", "", "--out", "O"],
        ["register", "--fixed", "A", "--moving", "B", "--oars", "C", "", "--out", "O"],
        ["register", "--fixed", "A", "--moving", "B", "--adapter", "", "--out", "O"],
        ["priors", "--ctv", "C", "--dose", "", "--out", "O"],
        ["phantom", "--spec", "S", "--out", ""],
        ["metrics", "--fixed", "A", "--warped", "B", "--ctv-fixed", "", "--out", "O"],
    ])
    def test_empty_path_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # none of the named files exists, so a run that got past the parser
        # would exit 3 reading one, or write O
        monkeypatch.chdir(tmp_path)
        assert cli(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not list(tmp_path.iterdir())

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = cli(["warp", "--image", str(tmp_path / "absent"),
                  "--field", str(tmp_path / "absent"),
                  "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME

    def test_unallocatable_grid_is_runtime_error(self, tmp_path, capsys):
        # 10^15 voxels: numpy refuses the petabytes at once, allocating nothing
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [100000, 100000, 100000]}))
        out = tmp_path / "o"
        assert cli(["phantom", "--spec", str(path), "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "Traceback" not in err
        assert not out.exists()

    def test_corrupt_header_is_validation_error(self, phantom_dir, tmp_path):
        (phantom_dir / "image.json").write_text("{broken")
        rc = cli(["warp", "--image", str(phantom_dir / "image"),
                  "--field", str(phantom_dir / "image"),
                  "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("verb,doc", [
        ("register", {"nope": 1}),
        ("register", {"prior_params": {"nope": 1}}),
        ("register", {"iterations": []}),
        ("register", {"rigid_iterations": []}),
        ("register", {"convergence_window": 0}),
        ("register", {"beta1": 1.0}),
        ("priors", {"nope": 1}),
        ("phantom", {"nope": 1}),
        ("register", {"adam_eps": 0.0}),
        ("register", {"seed": 0}),
        # values of the wrong JSON type
        ("register", {"levels": "x"}),
        ("register", {"iterations": ["a"]}),
        ("register", {"prior_params": {"sigma_mm": "5"}}),
        ("phantom", {"seed": "7"}),
        ("register", {"use_anatomy": "no"}),
        # a removed key
        ("register", {"prior_weight_kappa": 1.0}),
    ])
    def test_bad_config_is_validation_error(self, phantom_dir, tmp_path,
                                            verb, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "o")
        argv = {
            "register": ["register", "--fixed", str(phantom_dir / "image"),
                         "--moving", str(phantom_dir / "image"),
                         "--config", str(path), "--out", out],
            "priors": ["priors", "--ctv", str(phantom_dir / "ctv"),
                       "--params", str(path), "--out", out],
            "phantom": ["phantom", "--spec", str(path), "--out", out],
        }[verb]
        assert cli(argv) == EXIT_VALIDATION

    @pytest.mark.parametrize("document,contents", [
        pytest.param(doc, contents, id=f"{doc}-{name}") for doc, name, contents in MALFORMED])
    def test_malformed_document_is_validation_error(self, phantom_dir, tmp_path,
                                                    capsys, document, contents):
        path = tmp_path / "doc.json"
        out = tmp_path / "o"
        ph = {name: str(phantom_dir / name) for name in ("image", "ctv")}
        register = ["register", "--fixed", ph["image"], "--moving", ph["image"]]
        argv = {
            "spec": ["phantom", "--spec", str(path)],
            "params": ["priors", "--ctv", ph["ctv"], "--params", str(path)],
            "config": register + ["--config", str(path)],
            "embeddings": register + ["--embeddings", str(path)],
            "adapter": register + ["--adapter", str(path)],
            "header": ["warp", "--image", str(tmp_path / "doc"),
                       "--field", str(tmp_path / "fld")],
        }[document] + ["--out", str(out)]
        if document == "header":
            img = io.read_volume(ph["image"])
            io.write_volume(str(tmp_path / "doc"), img, kind="image")
            io.write_volume(str(tmp_path / "fld"), pr.zero_field(img), kind="field")
            if isinstance(contents, dict):
                header = json.loads(path.read_text())
                header.update(contents)
                contents = {k: v for k, v in header.items() if v is not None}
        path.write_bytes(contents if isinstance(contents, bytes)
                         else json.dumps(contents).encode())
        assert cli(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "Traceback" not in err
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("verb,image,field", [
        ("warp", "image", "image"),      # a scalar volume as the field
        ("warp", "fld", "fld"),          # a field as the image
        ("metrics", "image", "image"),   # --field
        ("metrics", "fld", "image"),     # --truth
    ])
    def test_volume_kind_mismatch_is_validation_error(self, phantom_dir, tmp_path,
                                                      verb, image, field):
        img = io.read_volume(str(phantom_dir / "image"))
        io.write_volume(str(tmp_path / "fld"), pr.zero_field(img), kind="field")
        paths = {"image": str(phantom_dir / "image"), "fld": str(tmp_path / "fld")}
        out = str(tmp_path / "o")
        if verb == "warp":
            argv = ["warp", "--image", paths[image], "--field", paths[field], "--out", out]
        else:
            argv = ["metrics", "--fixed", paths["image"], "--warped", paths["image"],
                    "--field", paths[image], "--truth", paths[field], "--out", out]
        assert cli(argv) == EXIT_VALIDATION
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("doc", [
        {"dims": [24, 24]},
        {"dims": ["a", 24, 24]},
        {"oars": [1]},
        {"dims": [8, 8, 8], "spacing": [0, 1, 1]},
    ])
    def test_malformed_phantom_spec_is_validation_error(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli(["phantom", "--spec", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"spacing": (2.0, 2.0, 2.0)},
                                        {"origin": (0.0, 0.0, 5.0)}])
    @pytest.mark.parametrize("which", ["moving", "body"])
    def test_register_grid_metadata_mismatch(self, phantom_dir, tmp_path,
                                             change, which):
        src = phantom_dir / ("image" if which == "moving" else "body")
        vol = io.read_volume(str(src))
        io.write_volume(str(tmp_path / "other"), replace(vol, **change),
                        kind="image" if which == "moving" else "mask")
        paths = {"moving": phantom_dir / "image", "body": phantom_dir / "body",
                 which: tmp_path / "other"}
        rc = cli(["register", "--fixed", str(phantom_dir / "image"),
                  "--moving", str(paths["moving"]), "--body", str(paths["body"]),
                  "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", [
        ("body", {"spacing": (2.0, 2.0, 2.0)}),
        ("body", {"origin": (0.0, 0.0, 5.0)}),
        ("dose", {"data": np.ones((20, 24, 24), dtype=np.float32)}),
        ("dose", {"spacing": (2.0, 2.0, 2.0)}),
        ("dose", {"origin": (0.0, 0.0, 5.0)}),
    ])
    def test_priors_grid_metadata_mismatch(self, phantom_dir, tmp_path, change):
        which, kwargs = change
        vol = io.read_volume(str(phantom_dir / which))
        io.write_volume(str(tmp_path / which), replace(vol, **kwargs),
                        kind="dose" if which == "dose" else "mask")
        inputs = {"body": phantom_dir / "body", "dose": phantom_dir / "dose",
                  which: tmp_path / which}
        rc = cli(["priors", "--ctv", str(phantom_dir / "ctv"),
                  "--body", str(inputs["body"]), "--dose", str(inputs["dose"]),
                  "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("change", [{"spacing": (2.0, 2.0, 2.0)},
                                        {"origin": (0.0, 0.0, 5.0)}])
    @pytest.mark.parametrize("which", ["image", "mask"])
    def test_warp_grid_metadata_mismatch(self, phantom_dir, tmp_path, which, change):
        src = phantom_dir / ("image" if which == "image" else "ctv")
        vol = io.read_volume(str(src))
        io.write_volume(str(tmp_path / "fld"), pr.zero_field(vol), kind="field")
        io.write_volume(str(tmp_path / "in"), replace(vol, **change), kind=which)
        rc = cli(["warp", f"--{which}", str(tmp_path / "in"),
                  "--field", str(tmp_path / "fld"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert not list(tmp_path.glob("o.*"))


class TestCliRegisterDeterminism:
    def test_register_twice_byte_identical(self, phantom_dir, tmp_path):
        cfg = pr.RegConfig(levels=2, iterations=(6, 8),
                           rigid_iterations=(10, 5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = cli(["register", "--fixed", str(phantom_dir / "image"),
                      "--moving", str(phantom_dir / "image"),
                      "--body", str(phantom_dir / "body"),
                      "--ctv", str(phantom_dir / "ctv"),
                      "--config", str(cfg_path), "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "field.raw").read_bytes() == (b / "field.raw").read_bytes()
        assert (a / "field.json").read_bytes() == (b / "field.json").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_rigid_block_reported_and_reproducible(self, phantom_dir, tmp_path):
        # a moving image under a set-up error, so both rigid stages descend
        img = io.read_volume(str(phantom_dir / "image"))
        io.write_volume(str(tmp_path / "moving"), engine.resample_rigid(
            img, img, pr.RigidTransform(rotation=(0.0, 0.02, 0.03),
                                        translation=(1.0, -0.5, 0.0),
                                        center=engine._physical_center(img))),
            kind="image")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": 2, "iterations": [3], "rigid_iterations": [20]}))
        reports = []
        for run in ("a", "b"):
            assert cli(["register", "--fixed", str(phantom_dir / "image"),
                        "--moving", str(tmp_path / "moving"),
                        "--body", str(phantom_dir / "body"), "--config", str(cfg),
                        "--out", str(tmp_path / run)]) == EXIT_OK
            reports.append((tmp_path / run / "report.json").read_bytes())
        assert reports[0] == reports[1]
        rigid = json.loads(reports[0])["rigid"]
        assert [stage["dims"] for stage in rigid] == [[6, 6, 6], [12, 12, 12]]
        for stage in rigid:
            assert set(stage) == {"dims", "iterations", "evaluations", "stop_reason",
                                  "initial_loss", "final_loss", "degenerate"}
            assert 1 <= stage["iterations"] <= 20
            assert stage["evaluations"] > stage["iterations"]
            assert stage["stop_reason"] in ("gradient", "relative_decrease",
                                            "line_search_failed", "iteration_cap")
            assert stage["final_loss"] < stage["initial_loss"]
            assert stage["degenerate"] is False

    def test_report_contents(self, phantom_dir, tmp_path):
        cfg = pr.RegConfig(levels=2, iterations=(6, 8),
                           rigid_iterations=(10, 5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "r"
        rc = cli(["register", "--fixed", str(phantom_dir / "image"),
                  "--moving", str(phantom_dir / "image"),
                  "--body", str(phantom_dir / "body"),
                  "--config", str(cfg_path), "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["levels"]) == 2
        assert "rigid_transform" in doc
        timing = json.loads((out / "timing.json").read_text())
        # every phase of the run, each level apart
        assert set(timing) == {"read", "rigid", "prior_build", "level_2", "level_1",
                               "folds", "write"}
        assert all(v >= 0.0 for v in timing.values())
        # and no wall time in the report
        assert all("wall_time_s" not in level for level in doc["levels"])


ROOT = Path(__file__).resolve().parents[1]
# a 16^3 phantom: each command on it runs in about a second
SPEC_16 = {"dims": [16, 16, 16], "body_semi_axes_mm": [7.0, 6.0, 7.0],
           "ctv_center_mm": [1.0, 0.5, -0.5], "ctv_radius_mm": 2.0,
           "oars": [[[-2.0, -1.0, 1.0], 1.5]], "dose_tau_mm": 3.0, "seed": 7}


def _protoreg(*args):
    """Run the console script's entry point in a fresh interpreter on this
    checkout's src, never on a protoreg installed elsewhere."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "protoreg.cli", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


class TestConsoleScript:
    @pytest.fixture(scope="class")
    def ph16(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("console")
        (d / "spec.json").write_text(json.dumps(SPEC_16))
        done = _protoreg("phantom", "--spec", d / "spec.json", "--out", d / "ph")
        assert done.returncode == EXIT_OK, done.stderr
        return d / "ph"

    def test_entry_point_is_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["protoreg"]
        assert target == "protoreg.cli:main"
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name))

    def test_register_writes_field_and_report(self, ph16, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"levels": 2, "iterations": [3], "rigid_iterations": [2]}))
        done = _protoreg("register", "--fixed", ph16 / "image", "--moving", ph16 / "image",
                         "--body", ph16 / "body", "--ctv", ph16 / "ctv",
                         "--config", tmp_path / "cfg.json", "--out", tmp_path / "o")
        assert done.returncode == EXIT_OK, done.stderr
        assert isinstance(io.read_volume(str(tmp_path / "o" / "field")), pr.DisplacementField)
        assert len(json.loads((tmp_path / "o" / "report.json").read_text())["levels"]) == 2

    def test_nan_config_exits_2(self, ph16, tmp_path):
        (tmp_path / "cfg.json").write_text('{"convergence_tol": NaN}')
        done = _protoreg("register", "--fixed", ph16 / "image", "--moving", ph16 / "image",
                         "--config", tmp_path / "cfg.json", "--out", tmp_path / "o")
        assert done.returncode == EXIT_VALIDATION
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: ")
        assert not (tmp_path / "o").exists()

    def test_missing_required_flag_exits_1(self, tmp_path):
        done = _protoreg("register", "--fixed", tmp_path / "image")
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("usage error: ") and "Traceback" not in done.stderr
