"""The benchmark's tracer wraps archsurv names by lookup; every name it
hooks must exist, and uninstalling must restore the originals."""

import importlib.util
from pathlib import Path

import numpy as np

from archsurv import predict
from archsurv.predict import PredictionQuery
from tests.test_predict import injected_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_uninstalls_against_archsurv():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()  # raises if a hooked name is gone
        patches = list(tracer._patches)
        hooked = {(getattr(o, "__name__", o), a) for o, a, _ in patches}
        for name in [
            ("archsurv.predict", "q_joint_density"),
            ("archsurv.metrics", "predict_survival_dp"),
            ("LikelihoodWorkspace", "__init__"),
        ]:
            assert name in hooked
        for owner, attr, original in patches:
            assert _lookup(owner, attr) is not original

        # the wrapped names are the ones prediction calls through
        with tracer.phase("test"):
            predict.predict_survival_dp(
                PredictionQuery(((0, 0.4), (1, 0.8))), injected_model(),
                times=np.linspace(1.0, 5.0, 5),
            )
        names = {span[0] for span in tracer.spans}
        assert {"predict.predict_survival_dp", "predict.q_joint_density"} <= names
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _lookup(owner, attr) is original
