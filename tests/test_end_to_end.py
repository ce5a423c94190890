"""The user path on small random draws: simulate -> fit -> predict_batch
(DP, P0, Pk) -> evaluate_model, with cmst and cqst of every predicted
chunk.  Every run either ends in a typed ArchsurvError or gives survival
curves and scores with no NaN."""

import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from archsurv.data import SurvivalData
from archsurv.errors import ArchsurvError
from archsurv.likelihood import fit_joint_model
from archsurv.metrics import MetricConfig, evaluate_model
from archsurv.predict import PredictionQuery, cmst, cqst, predict_batch
from archsurv.simulate import SimConfig, simulate_dataset

WEAK, STRONG = (0.1, 0.3), (0.8, 0.9, 0.95)
RUNS = 300


@st.composite
def _designs(draw):
    """A small draw: family, K 1-10, weak or strong onset taus, a global tau,
    censoring, sizes and a seed; and a step to round every time up to, so
    that times tie, or None."""
    k = draw(st.sampled_from(range(1, 11)))
    taus = draw(st.sampled_from((WEAK, STRONG)))
    config = SimConfig(
        k=k,
        family=draw(st.sampled_from(("frank", "clayton", "gumbel"))),
        tau_alpha=draw(st.sampled_from(WEAK + STRONG)),
        tau_thetas=tuple(draw(st.sampled_from(taus)) for _ in range(k)),
        censor_upper=draw(st.sampled_from((3.0, 20.0))),
        n_train=draw(st.sampled_from((15, 30, 60, 120))),
        n_test=20,
        seed=draw(st.integers(0, 2**16)),
    )
    return config, draw(st.sampled_from((None, 0.5, 1.0)))


def _rounded_up(data, step):
    """The records with every time rounded up to a multiple of `step`."""
    up = lambda x: np.ceil(x / step) * step
    return SurvivalData(up(data.t), data.delta, up(data.y), data.dtilde, data.ids)


def _history(data, i):
    return PredictionQuery(
        tuple((k, float(data.t[i, k])) for k in range(data.k) if data.delta[i, k])
    )


def _run(config, step, failures):
    """One run of the user path; counts its typed failures by stage in
    `failures`, and returns the stage it ended at."""
    res = simulate_dataset(config)
    train, test = res.train, res.test
    if step is not None:
        train, test = _rounded_up(train, step), _rounded_up(test, step)
    try:
        model = fit_joint_model(train, config.family)
    except ArchsurvError as exc:
        failures[f"fit {getattr(exc, 'stage', type(exc).__name__).split('[')[0]}"] += 1
        return "fit"

    queries = [_history(test, i) for i in range(test.n)]
    methods = [["DP", "P0"] + [f"Pk:{k + 1}" for k, _ in q.events] for q in queries]
    for _, pred, chunk_failures in predict_batch(queries, model, methods):
        for exc in chunk_failures.values():
            assert isinstance(exc, ArchsurvError), repr(exc)
            failures[f"predict {type(exc).__name__}"] += 1
        if pred is None:
            continue
        v, landmarks = pred.values, pred.landmark[:, None]
        assert np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0))
        assert np.all(np.diff(v, axis=-1) <= 1e-12)
        means = cmst(pred, model.t_max)
        assert np.all(np.isfinite(means)) and np.all(means >= landmarks)
        medians = cqst(pred, 0.5)
        assert np.all(np.isnan(medians) | (medians > landmarks))

    try:
        reports = evaluate_model(model, test, MetricConfig(n_grid=10), d_true=res.latent_test.d)
    except ArchsurvError as exc:
        failures[f"evaluate {type(exc).__name__}"] += 1
        return "evaluate"
    for rep in reports.values():
        scores = np.array([rep.mspe, rep.qpe, rep.ibs, rep.cp, rep.mid, *rep.bs_curve])
        assert np.all(np.isfinite(scores)), rep
        auc = rep.auc_curve[~np.isnan(rep.auc_curve)]
        assert np.all((auc >= 0.0) & (auc <= 1.0))
    return "done"


def test_user_path_ends_typed_or_gives_curves_and_scores(record_property):
    ended, failures = Counter(), Counter()

    @settings(derandomize=True, database=None, max_examples=RUNS, deadline=None)
    @given(_designs())
    def one_run(design):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ended[_run(*design, failures)] += 1

    one_run()
    record_property("ended", dict(ended))
    record_property("typed_failures", dict(failures))
    print(f"runs ended at {dict(ended)}; typed failures by stage {dict(failures)}")
    assert sum(ended.values()) >= RUNS // 2
    assert ended["done"] >= RUNS // 4
