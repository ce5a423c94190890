"""Predictive-accuracy metrics with censoring weights, and the evaluation /
cross-validation drivers that apply a fitted model to a dataset."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalData
from .errors import EstimationError, NoComparablePairs, NotIdentified
from .likelihood import fit_joint_model, _run_indexed
from .marginals import censoring_km
from .predict import (
    PredictionQuery,
    cmst,
    cqst,
    predict_baseline,
    predict_survival_dp,
    prediction_interval,
)

DEFAULT_METHODS = ("DP", "P0", "P1", "P1m", "PK", "PKm")


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation settings: restriction time, quantile level for the check
    loss, time grid for score curves, and censoring adjustment."""

    t_u_star: float = 12.0
    qpe_tau: float = 0.5
    n_grid: int = 100
    ipcw: bool = False

    def grid(self) -> np.ndarray:
        return np.linspace(
            self.t_u_star / self.n_grid, self.t_u_star, self.n_grid
        )


def _check_loss(x, tau):
    return x * (tau - (x < 0))


def ipcw_weights_at(y, dtilde, s_c, t):
    """w_i(t) = dtilde * I(y <= t)/S_c(y-) + I(y > t)/S_c(t)."""
    y = np.asarray(y, dtype=float)
    dtilde = np.asarray(dtilde)
    sc_left = np.asarray(s_c.left_value(y))
    sc_t = float(s_c(t))
    w = np.zeros(y.size)
    past = y <= t
    with np.errstate(divide="ignore"):
        w[past] = np.where(
            (dtilde[past] == 1) & (sc_left[past] > 0),
            1.0 / np.maximum(sc_left[past], 1e-300),
            0.0,
        )
        if sc_t > 0:
            w[~past] = 1.0 / sc_t
    return w


def point_errors(
    cmst_values,
    cqst_values,
    config: MetricConfig,
    d_true=None,
    y=None,
    dtilde=None,
    s_c=None,
):
    """(MSPE, QPE) against restricted death times.

    With latent truths available the errors are plain means; with censored
    observations only, inverse-censoring weights make min(D, t*) estimable
    and zero-weight subjects are dropped (their count is returned).
    """
    cmst_values = np.asarray(cmst_values, dtype=float)
    cqst_values = np.asarray(cqst_values, dtype=float)
    tstar = config.t_u_star
    if not config.ipcw:
        if d_true is None:
            raise ValueError("need latent death times when ipcw is off")
        truth = np.minimum(np.asarray(d_true, dtype=float), tstar)
        w = np.ones(truth.size)
        dropped = 0
    else:
        if y is None or dtilde is None or s_c is None:
            raise ValueError("ipcw needs (y, dtilde, censoring curve)")
        truth = np.minimum(np.asarray(y, dtype=float), tstar)
        w = ipcw_weights_at(y, dtilde, s_c, tstar)
        dropped = int((w == 0).sum())
    ok = w > 0
    if not np.any(ok):
        raise EstimationError("metrics", "all subjects carry zero weight")
    wsum = w[ok].sum()
    mspe = float(np.sum(w[ok] * (truth[ok] - cmst_values[ok]) ** 2) / wsum)
    qpe = float(
        np.sum(w[ok] * _check_loss(truth[ok] - cqst_values[ok], config.qpe_tau))
        / wsum
    )
    return mspe, qpe, dropped


def brier_curve(curves, times, y, dtilde, landmarks, s_c):
    """BS(t) over the grid: censoring-weighted squared error of the
    predicted curves against survival status, restricted to t past each
    subject's landmark.  Normalization is by the full subject count."""
    curves = np.asarray(curves, dtype=float)
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    n = y.size
    out = np.zeros(times.size)
    for j, t in enumerate(times):
        w = ipcw_weights_at(y, dtilde, s_c, t)
        active = times[j] > landmarks
        resid = ((y > t).astype(float) - curves[:, j]) ** 2
        out[j] = np.sum(w * active * resid) / n
    return out


def integrated_brier(bs_values, times, t_u_star=None) -> float:
    """Time-averaged integral of the score curve (trapezoid)."""
    times = np.asarray(times, dtype=float)
    if t_u_star is None:
        t_u_star = float(times[-1])
    return float(np.trapezoid(bs_values, times) / t_u_star)


def auc_t(curves_at_t, y, dtilde, landmarks, s_c, t) -> float:
    """Censoring-weighted time-dependent AUC; score ties count half."""
    s_vals = np.asarray(curves_at_t, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    w = ipcw_weights_at(y, dtilde, s_c, t) * (t > landmarks)
    case = (y <= t) & (w > 0)
    ctrl = (y > t) & (w > 0)
    if not case.any() or not ctrl.any():
        raise NoComparablePairs(f"no case/control pair at t={t}")
    wi = w[case][:, None] * w[ctrl][None, :]
    si = s_vals[case][:, None]
    sj = s_vals[ctrl][None, :]
    wins = (si < sj) + 0.5 * (si == sj)
    return float(np.sum(wi * wins) / np.sum(wi))


def interval_metrics(truths, intervals):
    """(coverage, median width, flagged count) for prediction intervals."""
    truths = np.asarray(truths, dtype=float)
    cover = np.array([iv.covers(tv) for iv, tv in zip(intervals, truths)])
    widths = np.array([iv.width for iv in intervals])
    flagged = sum(iv.hi_censored for iv in intervals)
    return float(cover.mean()), float(np.median(widths)), int(flagged)


# ---------------------------------------------------------------------------
# model evaluation driver


def subject_query(data: SurvivalData, i: int) -> PredictionQuery:
    obs = np.flatnonzero(data.delta[i] == 1)
    return PredictionQuery(tuple((int(k), float(data.t[i, k])) for k in obs))


def _curve_for(method, query, model, times):
    if method == "DP":
        return predict_survival_dp(query, model, times=times)
    if method == "P0":
        return predict_baseline(query, model, "P0", times=times)
    observed = dict(query.events)
    k = 0 if method.startswith("P1") else model.k - 1
    if k not in observed:
        return predict_baseline(query, model, "P0", times=times)  # fallback
    base = "Pkm" if method.endswith("m") else "Pk"
    return predict_baseline(query, model, base, k=k, times=times)


@dataclass
class MethodReport:
    method: str
    mspe: float
    qpe: float
    ibs: float
    bs_curve: np.ndarray
    auc_curve: np.ndarray
    cp: float = None
    mid: float = None
    n_flagged: int = 0
    n_skipped: int = 0
    relative_accuracy: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "method": self.method,
            "mspe": self.mspe,
            "qpe": self.qpe,
            "ibs": self.ibs,
            "cp": self.cp,
            "mid": self.mid,
            "n_flagged": self.n_flagged,
            "n_skipped": self.n_skipped,
            "relative_accuracy": self.relative_accuracy,
            "bs_curve": list(self.bs_curve),
            "auc_curve": [None if np.isnan(v) else v for v in self.auc_curve],
        }


def evaluate_model(
    model,
    data: SurvivalData,
    config: MetricConfig,
    d_true=None,
    methods=DEFAULT_METHODS,
    s_c=None,
    interval_levels=(0.025, 0.975),
):
    """Apply each prediction method to every subject and score it.

    Subjects whose landmark reaches the end of follow-up are skipped (their
    survival is not identified) and counted.  Relative accuracy reports each
    error metric as a ratio with the dynamic prediction as benchmark.
    """
    if s_c is None:
        s_c = censoring_km(data)
    t_star = min(config.t_u_star, model.t_max)
    if t_star < config.t_u_star:
        warnings.warn(
            f"restriction time capped at the maximum follow-up {t_star:.6g}"
        )
    cfg = MetricConfig(t_star, config.qpe_tau, config.n_grid, config.ipcw)
    grid = cfg.grid()

    # score a subject only if every method's prediction is identified, so
    # the reports compare like with like; each prediction is reduced to its
    # summaries and its curve on the score grid as soon as it is made
    usable, landmarks = [], []
    per_method = {m: ([], [], [], []) for m in methods}  # cmst, cqst, interval, curve
    for i in range(data.n):
        q = subject_query(data, i)
        if q.landmark >= model.t_max:
            continue
        try:
            preds = [_curve_for(m, q, model, None) for m in methods]
        except NotIdentified:
            continue
        usable.append(i)
        landmarks.append(q.landmark)
        past = grid > q.landmark
        for m, pred in zip(methods, preds):
            cmst_v, cqst_v, intervals, curves = per_method[m]
            cmst_v.append(cmst(pred, t_star))
            try:
                cqst_v.append(cqst(pred, cfg.qpe_tau))
            except NotIdentified:
                cqst_v.append(t_star)
            intervals.append(
                prediction_interval(pred, t_u_star=t_star, levels=interval_levels)
            )
            curve = np.ones(grid.size)
            curve[past] = pred.at(grid[past])
            curves.append(curve)
    n_skipped = data.n - len(usable)
    if not usable:
        raise EstimationError("evaluate", "no subject has an identified prediction")
    idx = np.array(usable)

    reports = {}
    for method in methods:
        cmst_v, cqst_v, intervals, curves = per_method[method]
        curves = np.array(curves)
        mspe, qpe, _ = point_errors(
            cmst_v,
            cqst_v,
            cfg,
            d_true=None if d_true is None else np.asarray(d_true)[idx],
            y=data.y[idx],
            dtilde=data.dtilde[idx],
            s_c=s_c,
        )
        bs = brier_curve(
            curves, grid, data.y[idx], data.dtilde[idx], landmarks, s_c
        )
        auc = np.full(grid.size, np.nan)
        for j, t in enumerate(grid):
            try:
                auc[j] = auc_t(
                    curves[:, j], data.y[idx], data.dtilde[idx], landmarks, s_c, t
                )
            except NoComparablePairs:
                pass
        truth = (
            np.minimum(np.asarray(d_true)[idx], t_star)
            if d_true is not None
            else np.minimum(data.y[idx], t_star)
        )
        cp, mid, flagged = interval_metrics(truth, intervals)
        reports[method] = MethodReport(
            method=method, mspe=mspe, qpe=qpe,
            ibs=integrated_brier(bs, grid, t_star), bs_curve=bs, auc_curve=auc,
            cp=cp, mid=mid, n_flagged=flagged, n_skipped=n_skipped,
        )
    if "DP" in reports:
        bench = reports["DP"]
        for rep in reports.values():
            rep.relative_accuracy = {
                "mspe": bench.mspe / rep.mspe if rep.mspe > 0 else np.nan,
                "qpe": bench.qpe / rep.qpe if rep.qpe > 0 else np.nan,
                "ibs": bench.ibs / rep.ibs if rep.ibs > 0 else np.nan,
            }
    return reports


# ---------------------------------------------------------------------------
# cross-validation


def stratified_indices(data: SurvivalData) -> np.ndarray:
    """Stratum label per subject: terminal status crossed with whether any
    onset was observed (keeps event/censoring mix balanced across folds)."""
    any_onset = (data.delta.sum(axis=1) > 0).astype(int)
    return data.dtilde.astype(int) * 2 + any_onset


def _split_kfold(strata, m, rng):
    folds = [[] for _ in range(m)]
    for s in np.unique(strata):
        members = np.flatnonzero(strata == s)
        members = members[rng.permutation(members.size)]
        for j, i in enumerate(members):
            folds[j % m].append(i)
    return [np.sort(np.array(f)) for f in folds]


def _split_random(strata, test_fraction, rng):
    test = []
    for s in np.unique(strata):
        members = np.flatnonzero(strata == s)
        members = members[rng.permutation(members.size)]
        n_test = max(1, int(round(test_fraction * members.size)))
        test.extend(members[:n_test])
    return np.sort(np.array(test))


def _cv_worker(split_idx, data, family, splits_spec, config, seed, fit_kw, methods):
    scheme, a, repeats = splits_spec
    if scheme == "kfold":
        rep, fold = divmod(split_idx, a)
        rng = np.random.default_rng([seed, rep])
        folds = _split_kfold(stratified_indices(data), a, rng)
        test_idx = folds[fold]
    else:
        rng = np.random.default_rng([seed, split_idx])
        test_idx = _split_random(stratified_indices(data), a, rng)
    mask = np.zeros(data.n, dtype=bool)
    mask[test_idx] = True
    train = data.subset(np.flatnonzero(~mask))
    test = data.subset(np.flatnonzero(mask))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_joint_model(train, family, **fit_kw)
        cfg = MetricConfig(config.t_u_star, config.qpe_tau, config.n_grid, True)
        reports = evaluate_model(model, test, cfg, methods=methods)
    return {m: (r.mspe, r.qpe, r.ibs, r.cp, r.mid) for m, r in reports.items()}


def cross_validate(
    data: SurvivalData,
    family: str,
    scheme: str = "kfold",
    folds: int = 3,
    test_fraction: float = 1.0 / 3.0,
    repeats: int = 1,
    config: MetricConfig = MetricConfig(),
    seed: int = 0,
    threads: int = 1,
    methods=DEFAULT_METHODS,
    **fit_kw,
):
    """Stratified K-fold or repeated random splits; fit on train, score on
    test with censoring weights, aggregate mean and SD across splits."""
    from functools import partial

    if scheme == "kfold":
        spec = ("kfold", int(folds), int(repeats))
        n_splits = int(folds) * int(repeats)
    elif scheme == "random":
        spec = ("random", float(test_fraction), int(repeats))
        n_splits = int(repeats)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    worker = partial(
        _cv_worker,
        data=data,
        family=family,
        splits_spec=spec,
        config=config,
        seed=seed,
        fit_kw=fit_kw,
        methods=methods,
    )
    results = _run_indexed(worker, n_splits, threads)
    ok = [r for r in results if not isinstance(r, Exception)]
    failures = n_splits - len(ok)
    if failures > 0.2 * n_splits:
        raise EstimationError("crossval", f"{failures}/{n_splits} splits failed")
    agg = {}
    for method in methods:
        rows = np.array([r[method] for r in ok], dtype=float)
        agg[method] = {
            "mean": {
                key: float(np.nanmean(rows[:, j]))
                for j, key in enumerate(("mspe", "qpe", "ibs", "cp", "mid"))
            },
            "sd": {
                key: float(np.nanstd(rows[:, j], ddof=1)) if rows.shape[0] > 1 else 0.0
                for j, key in enumerate(("mspe", "qpe", "ibs", "cp", "mid"))
            },
        }
    return {"splits": n_splits, "failures": failures, "methods": agg}
