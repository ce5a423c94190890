"""Accuracy metrics: exact hand cases, censoring-weight reductions,
invariances, and the cross-validation harness mechanics."""

import warnings
from collections import Counter

import numpy as np
import pytest

from archsurv.data import SurvivalData
from archsurv.errors import ConfigError, NoComparablePairs
from archsurv.metrics import (
    DEFAULT_METHODS,
    MetricConfig,
    auc_t,
    brier_curve,
    cross_validate,
    evaluate_model,
    integrated_brier,
    interval_metrics,
    ipcw_weights_at,
    point_errors,
    stratified_indices,
    subject_query,
)
from archsurv.predict import PredictionInterval
from archsurv.simulate import ex1_config, ex2_config, ex3_config, simulate_dataset
from archsurv.survival import StepSurvival, kaplan_meier
from tests._oracles import (
    reference_auc_t,
    reference_brier_curve,
    reference_evaluate,
    reference_ipcw_weights_at,
)

FLAT_SC = StepSurvival([1e12], [1.0], t_max=1e12)  # no censoring


def test_point_errors_zero_when_exact():
    cfg = MetricConfig(t_u_star=12.0)
    truth = np.array([2.0, 5.0, 9.0])
    mspe, qpe, dropped = point_errors(truth, truth, cfg, d_true=truth)
    assert mspe == 0.0 and qpe == 0.0 and dropped == 0


def test_point_errors_hand_case():
    cfg = MetricConfig(t_u_star=12.0, qpe_tau=0.5)
    mspe, qpe, _ = point_errors([3.0], [3.0], cfg, d_true=[2.0])
    assert mspe == pytest.approx(1.0)
    assert qpe == pytest.approx(0.5)  # rho_0.5(-1) = 0.5


def test_point_errors_truncates_truth():
    cfg = MetricConfig(t_u_star=4.0)
    mspe, _, _ = point_errors([4.0], [4.0], cfg, d_true=[100.0])
    assert mspe == 0.0


def test_point_errors_ipcw_reduces_to_plain_without_censoring():
    rng = np.random.default_rng(0)
    d = rng.exponential(size=60) * 3
    cmst_v = d * 0.9
    cqst_v = d * 1.1
    cfg_plain = MetricConfig(t_u_star=12.0)
    cfg_w = MetricConfig(t_u_star=12.0, ipcw=True)
    m1, q1, _ = point_errors(cmst_v, cqst_v, cfg_plain, d_true=d)
    m2, q2, dropped = point_errors(
        cmst_v, cqst_v, cfg_w, y=d, dtilde=np.ones(60, int), s_c=FLAT_SC
    )
    assert m2 == pytest.approx(m1) and q2 == pytest.approx(q1) and dropped == 0


def test_point_errors_permutation_invariant():
    rng = np.random.default_rng(1)
    d = rng.exponential(size=40)
    c_v, q_v = d * 0.8, d * 1.2
    cfg = MetricConfig(t_u_star=12.0)
    m1, q1, _ = point_errors(c_v, q_v, cfg, d_true=d)
    perm = rng.permutation(40)
    m2, q2, _ = point_errors(c_v[perm], q_v[perm], cfg, d_true=d[perm])
    assert m1 == pytest.approx(m2) and q1 == pytest.approx(q2)


def test_brier_perfect_and_constant_predictions():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    dt = np.ones(4, dtype=int)
    lms = np.zeros(4)
    times = np.array([0.5, 1.5, 2.5, 3.5])
    perfect = np.array([[float(yy > t) for t in times] for yy in y])
    bs = brier_curve(perfect, times, y, dt, lms, FLAT_SC)
    assert np.allclose(bs, 0.0)
    half = np.full((4, times.size), 0.5)
    bs2 = brier_curve(half, times, y, dt, lms, FLAT_SC)
    assert np.allclose(bs2, 0.25)
    expected = np.trapezoid(bs2, times) / times[-1]
    assert integrated_brier(bs2, times) == pytest.approx(expected)


def test_brier_respects_landmark_restriction():
    y = np.array([5.0, 6.0])
    dt = np.ones(2, int)
    lms = np.array([2.0, 0.0])
    times = np.array([1.0, 3.0])
    curves = np.full((2, 2), 0.5)
    bs = brier_curve(curves, times, y, dt, lms, FLAT_SC)
    assert bs[0] == pytest.approx(0.25 / 2)  # subject 1 inactive before 2.0
    assert bs[1] == pytest.approx(0.25)


def test_ibs_is_grid_integral_of_bs():
    times = np.linspace(0.1, 10.0, 40)
    bs = np.exp(-times / 4)
    assert integrated_brier(bs, times, 10.0) == pytest.approx(
        np.trapezoid(bs, times) / 10.0
    )


def test_auc_separating_and_ties():
    y = np.array([1.0, 2.0, 8.0, 9.0])
    dt = np.ones(4, int)
    lms = np.zeros(4)
    scores = np.array([0.1, 0.2, 0.8, 0.9])  # higher survival for controls
    assert auc_t(scores, y, dt, lms, FLAT_SC, t=5.0) == 1.0
    assert auc_t(np.full(4, 0.5), y, dt, lms, FLAT_SC, t=5.0) == 0.5


def test_auc_of_separated_scores_is_at_most_one():
    # perfect separation under unequal censoring weights: summing the control
    # weights in two orders once gave AUC 1 + a few ulp
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(10, 60))
        y = rng.exponential(size=n) * 4
        dt = (rng.uniform(size=n) < 0.7).astype(int)
        t = float(np.quantile(y, rng.uniform(0.2, 0.8)))
        auc = auc_t(y, y, dt, np.zeros(n), kaplan_meier(y, 1 - dt), t)
        assert 1.0 - 1e-14 <= auc <= 1.0


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = 30
        y = rng.exponential(size=n) * 4
        dt = np.ones(n, int)
        lms = np.zeros(n)
        s = rng.uniform(size=n)
        t = float(np.median(y))
        a1 = auc_t(s, y, dt, lms, FLAT_SC, t)
        a2 = auc_t(np.exp(3 * s) / (1 + np.exp(3 * s)), y, dt, lms, FLAT_SC, t)
        assert a1 == pytest.approx(a2, abs=1e-12)


def test_auc_requires_both_groups():
    y = np.array([1.0, 2.0])
    with pytest.raises(NoComparablePairs):
        auc_t(np.array([0.3, 0.4]), y, np.ones(2, int), np.zeros(2), FLAT_SC, t=5.0)


@pytest.mark.parametrize("ipcw", [False, True])
def test_auc_rank_count_equals_pair_matrix(ipcw):
    # the weighted rank count against the (cases x controls) weight matrix:
    # scores on a coarse lattice tie heavily, within and across methods
    rng = np.random.default_rng(8)
    n = 300
    y = rng.exponential(size=n) * 4
    dt = (rng.uniform(size=n) < 0.7).astype(int)
    lms = np.where(rng.uniform(size=n) < 0.3, rng.uniform(0, 2, size=n), 0.0)
    s_c = kaplan_meier(y, 1 - dt) if ipcw else FLAT_SC
    scores = np.round(rng.uniform(size=(4, n)) * 6) / 6
    scores[3] = 0.5  # every pair tied
    for t in np.quantile(y, [0.1, 0.3, 0.5, 0.7, 0.9]):
        got = auc_t(scores, y, dt, lms, s_c, t)
        want = reference_auc_t(scores, y, dt, lms, s_c, t)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[3] == pytest.approx(0.5, abs=1e-12)
        one = auc_t(scores[0], y, dt, lms, s_c, t)
        assert isinstance(one, float) and abs(one - want[0]) <= 1e-12


def test_interval_metrics_hand_cases():
    ivs = [PredictionInterval(1.0, 3.0), PredictionInterval(2.0, 2.0)]
    cp, mid, flagged = interval_metrics([2.0, 2.0], ivs)
    assert cp == 1.0 and mid == pytest.approx(1.0) and flagged == 0
    ivs2 = [PredictionInterval(1.0, 2.0, hi_censored=True)]
    cp2, mid2, flagged2 = interval_metrics([5.0], ivs2)
    assert cp2 == 0.0 and flagged2 == 1
    # one interval of floats
    assert interval_metrics(2.0, PredictionInterval(1.0, 3.0, True)) == (1.0, 2.0, 1)


# ---------------------------------------------------------------------------
# one row per method: every score equals its one-method calls bit for bit


def _scoring_case(n_methods=4, n=120, n_grid=25, seed=11):
    """Censored outcomes with tied times, a censoring curve that drops to 0,
    and (methods, subjects, grid) curves rounded so that scores tie."""
    rng = np.random.default_rng(seed)
    y = np.round(rng.exponential(3.0, n), 1) + 0.1
    dtilde = (rng.uniform(size=n) < 0.65).astype(int)
    dtilde[np.argmax(y)] = 0  # the censoring KM ends at 0
    s_c = kaplan_meier(y, 1 - dtilde)
    landmarks = np.where(rng.uniform(size=n) < 0.5, 0.0, np.round(rng.uniform(0, 2, n), 1))
    # the first time has no case, the last no control
    times = np.concatenate([[0.05], np.linspace(0.5, 8.0, n_grid - 2), [y.max() + 1]])
    curves = np.stack(
        [np.round(rng.uniform(size=(n_methods, n_grid)), 1) for _ in range(n)], axis=1
    )
    return y, dtilde, s_c, landmarks, times, curves


def test_ipcw_weight_rows_equal_per_time_calls():
    y, dtilde, s_c, _, times, _ = _scoring_case()
    times = np.concatenate([times, s_c.times[:5], y[:5], [0.0, s_c.times[-1]]])
    rows = ipcw_weights_at(y, dtilde, s_c, times)
    assert rows.shape == (times.size, y.size)
    for t, row in zip(times, rows):
        assert np.array_equal(row, reference_ipcw_weights_at(y, dtilde, s_c, t))
        assert np.array_equal(row, ipcw_weights_at(y, dtilde, s_c, t))
    assert not rows[-1][y > s_c.times[-1]].any()  # S_c(t) = 0 past the last jump


@pytest.mark.parametrize("ipcw", [False, True])
def test_scores_over_methods_equal_stacked_one_method_calls(ipcw):
    y, dtilde, s_c, landmarks, times, curves = _scoring_case()
    m = curves.shape[0]
    rng = np.random.default_rng(5)
    cmsts = np.round(rng.uniform(0, 6, (m, y.size)), 1)
    cqsts = np.round(rng.uniform(0, 6, (m, y.size)), 1)
    d_true = y + rng.exponential(size=y.size) * (1 - dtilde)
    cfg = MetricConfig(t_u_star=5.0, qpe_tau=0.3, ipcw=ipcw)
    kw = dict(d_true=d_true, y=y, dtilde=dtilde, s_c=s_c)
    mspe, qpe, dropped = point_errors(cmsts, cqsts, cfg, **kw)
    rows = [point_errors(cmsts[j], cqsts[j], cfg, **kw) for j in range(m)]
    assert all(type(r[0]) is float and type(r[1]) is float for r in rows)
    assert np.array_equal(mspe, [r[0] for r in rows])
    assert np.array_equal(qpe, [r[1] for r in rows])
    assert all(r[2] == dropped for r in rows) and (dropped > 0) == ipcw

    bs = brier_curve(curves, times, y, dtilde, landmarks, s_c)
    for j in range(m):
        assert np.array_equal(bs[j], brier_curve(curves[j], times, y, dtilde, landmarks, s_c))
        assert np.array_equal(
            bs[j], reference_brier_curve(curves[j], times, y, dtilde, landmarks, s_c)
        )
    ibs = integrated_brier(bs, times, 8.0)
    assert np.array_equal(ibs, [integrated_brier(b, times, 8.0) for b in bs])

    no_pairs = 0
    for g, t in enumerate(times):
        try:
            auc = auc_t(curves[..., g], y, dtilde, landmarks, s_c, t)
        except NoComparablePairs:
            no_pairs += 1
            for j in range(m):
                with pytest.raises(NoComparablePairs):
                    auc_t(curves[j, :, g], y, dtilde, landmarks, s_c, t)
            continue
        assert np.array_equal(
            auc, [auc_t(curves[j, :, g], y, dtilde, landmarks, s_c, t) for j in range(m)]
        )
    assert no_pairs == 2

    lo = np.round(rng.uniform(0, 3, (m, y.size)), 1)
    hi = lo + np.round(rng.uniform(0, 3, (m, y.size)), 1)
    censored = rng.uniform(size=(m, y.size)) < 0.2
    cp, mid, flagged = interval_metrics(y, PredictionInterval(lo, hi, censored))
    rows = [interval_metrics(y, PredictionInterval(lo[j], hi[j], censored[j])) for j in range(m)]
    assert np.array_equal(cp, [r[0] for r in rows])
    assert np.array_equal(mid, [r[1] for r in rows])
    assert flagged == [r[2] for r in rows]
    assert all(type(r[2]) is int for r in rows)


# ---------------------------------------------------------------------------
# evaluation driver on a fitted model


@pytest.fixture(scope="module")
def fitted_setup():
    from archsurv.likelihood import fit_joint_model

    res = simulate_dataset(
        ex1_config(k=3, tau_alpha=0.5, censor_upper=5.0, n_train=90, seed=47)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "frank")
    return res, model


def test_evaluate_model_report_shape(fitted_setup):
    res, model = fitted_setup
    cfg = MetricConfig(t_u_star=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = evaluate_model(
            model, res.train, cfg, d_true=res.latent_train.d
        )
    assert set(reports) == {"DP", "P0", "P1", "P1m", "PK", "PKm"}
    dp = reports["DP"]
    assert np.isfinite(dp.mspe) and np.isfinite(dp.ibs)
    assert dp.relative_accuracy["mspe"] == pytest.approx(1.0)
    assert 0.0 <= dp.cp <= 1.0
    # the informed method should not lose to the blank baseline here
    assert dp.mspe < reports["P0"].mspe
    assert dp.ibs < reports["P0"].ibs


def test_evaluate_out_of_sample(fitted_setup):
    res, model = fitted_setup
    cfg = MetricConfig(t_u_star=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = evaluate_model(model, res.test, cfg, d_true=res.latent_test.d)
    assert np.isfinite(reports["DP"].mspe)


def test_oracle_predictions_score_zero(fitted_setup):
    # injecting the truth as predictions zeroes every error metric
    res, _ = fitted_setup
    cfg = MetricConfig(t_u_star=12.0)
    truth = np.minimum(res.latent_train.d, cfg.t_u_star)
    mspe, qpe, _ = point_errors(truth, truth, cfg, d_true=res.latent_train.d)
    assert mspe == 0.0 and qpe == 0.0


@pytest.mark.parametrize("ipcw", [False, True])
def test_evaluate_reports_equal_per_subject_reference(fitted_setup, ipcw):
    # the batched driver against one predict_curves call per subject; at
    # t* = 2 the subjects with a later landmark are skipped
    res, model = fitted_setup
    cfg = MetricConfig(t_u_star=2.0, n_grid=30, ipcw=ipcw)
    d_true = None if ipcw else res.latent_train.d
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = evaluate_model(model, res.train, cfg, d_true=d_true)
        want = reference_evaluate(model, res.train, cfg, d_true=d_true)
    assert got["DP"].n_skipped > 0
    for name, rep in want.items():
        a, b = got[name].to_dict(), rep.to_dict()
        for key in ("mspe", "qpe", "ibs", "cp", "mid", "bs_curve"):
            assert np.allclose(a[key], b[key], rtol=0.0, atol=1e-12), (name, key)
        auc_a, auc_b = (np.array(x["auc_curve"], dtype=float) for x in (a, b))
        assert np.allclose(auc_a, auc_b, rtol=0.0, atol=1e-12, equal_nan=True)
        assert (a["n_flagged"], a["n_skipped"]) == (b["n_flagged"], b["n_skipped"])


@pytest.mark.parametrize("design", ["ex1-k3", "ex3-k7"])
def test_each_method_scores_as_if_evaluated_alone(fitted_setup, design):
    # evaluate_model predicts and summarizes each subject's distinct curves
    # once and gathers every report method's row from them: each method's
    # scores equal those of evaluating it alone, bit for bit, and so do the
    # warnings.  ex1 K=3 (fitted; t* capped at follow-up) and ex3 K=7 (true
    # parameters; t* = 2 skips the two later landmarks, and cmst warns on
    # coarse grids)
    if design == "ex1-k3":
        res, model = fitted_setup
        cfg = MetricConfig(t_u_star=12.0, n_grid=30)
    else:
        from tests.test_predict import injected_model

        res = simulate_dataset(ex3_config(n_train=0, n_test=60, seed=5))
        model = injected_model(tau_thetas=(0.5,) * 7, n_grid=400)
        cfg = MetricConfig(t_u_star=2.0, n_grid=30)
    data, d_true = res.test, res.latent_test.d
    onsets = [dict(subject_query(data, i).events) for i in range(data.n)]
    landmarks = [max(ev.values(), default=0.0) for ev in onsets]
    # subjects with no onset and with one; onset 1 at the landmark of two or
    # more (Pk:1 is Pkm:1) and before it; and one without onset K
    assert {0, 1} <= {len(ev) for ev in onsets}
    first = [ev[0] == lm for ev, lm in zip(onsets, landmarks) if len(ev) > 1 and 0 in ev]
    assert True in first and False in first
    assert any(ev and model.k - 1 not in ev for ev in onsets)

    def evaluate(methods):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = evaluate_model(model, data, cfg, d_true=d_true, methods=methods)
        return reports, Counter(str(w.message) for w in caught)

    together, warned = evaluate(DEFAULT_METHODS)
    skipped = sum(lm > cfg.t_u_star for lm in landmarks)
    assert together["DP"].n_skipped == skipped  # every other subject is identified
    assert warned
    for name in DEFAULT_METHODS:
        alone, warned_alone = evaluate((name,))
        a, b = together[name], alone[name]
        for key in ("mspe", "qpe", "ibs", "cp", "mid", "n_flagged", "n_skipped"):
            assert getattr(a, key) == getattr(b, key), (name, key)
        assert np.array_equal(a.bs_curve, b.bs_curve), name
        assert np.array_equal(a.auc_curve, b.auc_curve, equal_nan=True), name
        assert warned_alone == warned, name


def test_subject_query_extraction():
    data = SurvivalData(
        t=[[0.5, 2.0], [2.0, 2.0]],
        delta=[[1, 0], [0, 0]],
        y=[2.0, 2.0],
        dtilde=[1, 0],
    )
    q0 = subject_query(data, 0)
    assert q0.events == ((0, 0.5),)
    assert subject_query(data, 1).m == 0


# ---------------------------------------------------------------------------
# cross-validation mechanics


def test_stratified_indices_groups():
    data = SurvivalData(
        t=[[1.0], [2.0], [3.0], [4.0]],
        delta=[[1], [0], [1], [0]],
        y=[2.0, 2.0, 3.0, 4.0],
        dtilde=[1, 1, 0, 0],
    )
    strata = stratified_indices(data)
    assert len(np.unique(strata)) == 4


def test_cross_validate_split_counts_and_determinism():
    res = simulate_dataset(
        ex2_config(k=2, tau_alpha=0.4, censor_upper=20.0, n_train=60, seed=51)
    )
    cfg = MetricConfig(t_u_star=12.0, ipcw=True, n_grid=25)
    out1 = cross_validate(
        res.train, "frank", scheme="kfold", folds=3, repeats=1, config=cfg,
        seed=5, methods=("DP", "P0"),
    )
    assert out1["splits"] == 3
    out2 = cross_validate(
        res.train, "frank", scheme="kfold", folds=3, repeats=1, config=cfg,
        seed=5, methods=("DP", "P0"),
    )
    assert out1 == out2
    assert np.isfinite(out1["methods"]["DP"]["mean"]["mspe"])


def test_cross_validate_leave_one_out_mechanics():
    # M = n on a tiny dataset executes n fits (trivial split bookkeeping);
    # scoring single-subject folds is not meaningful, so only the split
    # mechanics are exercised here
    from archsurv.metrics import _split_kfold

    data = simulate_dataset(
        ex2_config(k=1, tau_alpha=0.3, censor_upper=20.0, n_train=9, seed=3)
    ).train
    rng = np.random.default_rng(0)
    folds = _split_kfold(stratified_indices(data), 9, rng)
    assert len(folds) == 9
    all_idx = np.sort(np.concatenate([f for f in folds if f.size]))
    assert np.array_equal(all_idx, np.arange(9))


def test_cross_validate_random_scheme():
    res = simulate_dataset(
        ex2_config(k=2, tau_alpha=0.4, censor_upper=20.0, n_train=60, seed=53)
    )
    cfg = MetricConfig(t_u_star=12.0, ipcw=True, n_grid=20)
    out = cross_validate(
        res.train, "frank", scheme="random", test_fraction=1 / 3, repeats=2,
        config=cfg, seed=7, methods=("DP", "P0"),
    )
    assert out["splits"] == 2
    assert out["failures"] == 0


@pytest.mark.slow
def test_crossval_tracks_apparent_error():
    # repeated 3-fold CV error modestly exceeds the apparent error, and the
    # two random-split variants agree within a standard deviation
    from archsurv.likelihood import fit_joint_model

    res = simulate_dataset(
        ex1_config(k=3, tau_alpha=0.2, censor_upper=20.0, n_train=150,
                   n_test=0, seed=71)
    )
    cfg = MetricConfig(t_u_star=12.0, ipcw=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "frank")
        apparent = evaluate_model(model, res.train, cfg, methods=("DP",))["DP"].mspe
        cv = cross_validate(res.train, "frank", scheme="kfold", folds=3,
                            repeats=5, config=cfg, seed=1, threads=2,
                            methods=("DP",))
        r13 = cross_validate(res.train, "frank", scheme="random",
                             test_fraction=1 / 3, repeats=10, config=cfg,
                             seed=2, threads=2, methods=("DP",))
        r15 = cross_validate(res.train, "frank", scheme="random",
                             test_fraction=1 / 5, repeats=10, config=cfg,
                             seed=3, threads=2, methods=("DP",))
    cv_mean = cv["methods"]["DP"]["mean"]["mspe"]
    assert cv_mean >= apparent - 0.1
    assert cv_mean <= 2.0 * apparent + 0.2
    gap = abs(r13["methods"]["DP"]["mean"]["mspe"] - r15["methods"]["DP"]["mean"]["mspe"])
    sd = max(r13["methods"]["DP"]["sd"]["mspe"], r15["methods"]["DP"]["sd"]["mspe"])
    assert gap <= sd + 0.05


def test_evaluate_skips_landmarks_past_restriction_time():
    # a subject whose last onset comes after t* has no restricted mean; it is
    # skipped and counted like one whose landmark reaches the end of follow-up
    from archsurv.likelihood import fit_joint_model

    res = simulate_dataset(
        ex1_config(k=3, censor_upper=20, n_train=200, n_test=200, seed=3)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(res.train, "frank")
        reports = evaluate_model(
            model, res.test, MetricConfig(t_u_star=2.0), d_true=res.latent_test.d
        )
    landmarks = np.array([subject_query(res.test, i).landmark for i in range(res.test.n)])
    late = int(np.sum((landmarks > 2.0) | (landmarks >= model.t_max)))
    assert late > 0
    for rep in reports.values():
        assert rep.n_skipped == late
        assert np.isfinite(rep.mspe) and np.isfinite(rep.ibs)


@pytest.mark.parametrize(
    "kw",
    [
        dict(scheme="kfold", folds=0),
        dict(scheme="kfold", folds=1),
        dict(scheme="kfold", folds=3, repeats=0),
        dict(scheme="random", test_fraction=0.0),
        dict(scheme="random", test_fraction=1.0),
        dict(scheme="random", test_fraction=1 / 3, repeats=0),
    ],
)
def test_crossval_rejects_invalid_sizes(kw):
    data = simulate_dataset(ex2_config(k=2, n_train=30, n_test=0, seed=5)).train
    with pytest.raises(ConfigError):
        cross_validate(data, "frank", **kw)
