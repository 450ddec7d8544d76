"""The benchmark's per-layer tracer looks its targets up by name, so a
rename in protoreg breaks only a traced benchmark run. Check every binding
here instead."""
import importlib
import importlib.util
import math
from pathlib import Path

import protoreg as pr

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_bindings_resolve():
    traced = _tracing().TRACED
    assert traced
    for mod_name, attr, *_ in traced:
        mod = importlib.import_module(f"protoreg.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"protoreg.{mod_name}.{attr}"


def test_traced_run_records_every_call():
    # the tracer counts each call's points from its arguments, so a changed
    # signature shows here and not only in a traced benchmark run
    img, st, dose = pr.make_phantom(pr.PhantomSpec(
        dims=(16, 16, 16), body_semi_axes_mm=(7.0, 6.0, 7.0),
        ctv_center_mm=(1.0, 0.5, -0.5), ctv_radius_mm=2.0,
        oars=(((-2.0, -1.0, 1.0), 1.5),), dose_tau_mm=3.0))
    config = pr.RegConfig(levels=2, iterations=(3, 3), rigid_iterations=(2,),
                          use_anatomy=True, use_risk=True, use_gate=True)
    with _tracing().Tracer(pr) as tracer:
        _, aligned = pr.engine.rigid_align(img, img, st.body, config)
        pr.engine.register(img, aligned, config, structures=st, dose=dose)
    assert tracer.spans and None not in tracer.spans
    names = {name for _, name, *_ in tracer.spans}
    assert {"engine.rigid_align", "engine.resample_rigid", "engine.register",
            "volgrid.build_pyramid", "volgrid.upsample_field", "priors.gate",
            "metrics.fold_fraction"} <= names
    points = [n for _, name, *_, n in tracer.spans if name == "engine.resample_rigid"]
    assert points == [math.prod(img.dims)]
