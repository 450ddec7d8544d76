import json
import os
from dataclasses import asdict

import numpy as np
import pytest

import protoreg as pr
from protoreg import io
from protoreg.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, cli
from protoreg.errors import FormatError

from conftest import SMALL_PHANTOM, lattice_safe_field, random_volume


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

    def test_bad_components_rejected(self, tmp_path, rng):
        vol = random_volume(rng, (2, 2, 2))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        header = json.loads((tmp_path / "v.json").read_text())
        header["components"] = 2
        (tmp_path / "v.json").write_text(json.dumps(header))
        with pytest.raises(FormatError):
            io.read_volume(str(tmp_path / "v"))

    def test_malformed_json_rejected(self, tmp_path, rng):
        vol = random_volume(rng, (2, 2, 2))
        io.write_volume(str(tmp_path / "v"), vol, kind="image")
        (tmp_path / "v.json").write_text("{not json")
        with pytest.raises(FormatError):
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

    def test_metrics_csv_line(self, phantom_dir, tmp_path, capsys):
        rc = cli(["metrics", "--fixed", str(phantom_dir / "image"),
                  "--warped", str(phantom_dir / "image"),
                  "--out", str(tmp_path / "m.json"), "--csv"])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert "ncc_pct=" in line and "mse=" in line

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert cli(["phantom", "--nope", "x"]) == EXIT_USAGE

    def test_missing_required_is_usage_error(self):
        assert cli(["phantom"]) == EXIT_USAGE
        assert cli([]) == EXIT_USAGE

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = cli(["warp", "--image", str(tmp_path / "absent"),
                  "--field", str(tmp_path / "absent"),
                  "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME

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

    def test_bad_threads_env(self, monkeypatch):
        monkeypatch.setenv("PROTOREG_THREADS", "lots")
        assert cli(["phantom"]) == EXIT_USAGE
        monkeypatch.setenv("PROTOREG_THREADS", "-2")
        assert cli(["phantom"]) == EXIT_USAGE
        monkeypatch.setenv("PROTOREG_THREADS", "4")
        assert cli(["phantom"]) == EXIT_USAGE  # still missing args, env ok


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
        assert len(timing) == 2
        assert all(v >= 0.0 for v in timing.values())
