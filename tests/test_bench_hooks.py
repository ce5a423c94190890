"""The benchmark's tracer wraps archsurv names by lookup; every name it
hooks must exist, and uninstalling must restore the originals."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np

from archsurv import metrics, predict
from archsurv.likelihood import fit_joint_model
from archsurv.predict import PredictionQuery
from archsurv.simulate import ex1_config, simulate_dataset
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


def test_evaluate_model_scores_through_the_traced_names():
    # metrics.evaluate.score_s sums the metrics.score.* spans under
    # evaluate_model: each score is one call per pass, auc_t one per grid time
    tracing = _tracing_module()
    res = simulate_dataset(ex1_config(k=3, n_train=60, n_test=0, seed=2))
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "frank")
        try:
            tracer.install()
            with tracer.phase("test"):
                metrics.evaluate_model(
                    model, res.train, metrics.MetricConfig(n_grid=7),
                    d_true=res.latent_train.d,
                )
        finally:
            tracer.uninstall()
    spans = tracer.spans
    under_evaluate = [
        s[0] for s in spans if s[3] >= 0 and spans[s[3]][0] == "metrics.evaluate_model"
    ]
    for name, calls in [("point_errors", 1), ("brier_curve", 1), ("auc_t", 7)]:
        assert under_evaluate.count(f"metrics.score.{name}") == calls
    counts = dict.fromkeys(
        ("sweeps", "alive_records", "subset_terms", "not_identified", "subjects_skipped"), 0
    )
    score_s, _ = tracing.summarize(spans, 1, counts)["metrics.evaluate.score_s"]
    assert score_s > 0
