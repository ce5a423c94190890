"""Predictive-accuracy metrics with censoring weights, and the evaluation /
cross-validation drivers that apply a fitted model to a dataset.

The scores take one row per method along a leading axis and reduce each row
along its C-contiguous last axis, so a row sums as that method alone would.
They return a list with one number per method, or one number for one row."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SurvivalData
from .errors import ConfigError, EstimationError, NoComparablePairs, NotIdentified
from .likelihood import fit_joint_model, _run_indexed
from .marginals import censoring_km
# evaluate_model predicts through predict_batch; predict_baseline and
# predict_survival_dp stay because perfbench/tracing.py wraps them here
from .predict import (
    PredictionInterval,
    PredictionQuery,
    cmst,
    cqst,
    predict_baseline,
    predict_batch,
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

    def __post_init__(self):
        if not self.t_u_star > 0:
            raise ConfigError(f"restriction time must be positive, got {self.t_u_star}")
        if not 0.0 < self.qpe_tau < 1.0:
            raise ConfigError(f"quantile level must lie in (0, 1), got {self.qpe_tau}")
        if not self.n_grid >= 1:
            raise ConfigError(f"score grid needs at least 1 point, got {self.n_grid}")

    def grid(self) -> np.ndarray:
        return np.linspace(
            self.t_u_star / self.n_grid, self.t_u_star, self.n_grid
        )


def _check_loss(x, tau):
    return x * (tau - (x < 0))


def ipcw_weights_at(y, dtilde, s_c, t):
    """w_i(t) = dtilde * I(y <= t)/S_c(y-) + I(y > t)/S_c(t); one row per
    time for a vector of times."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    sc_left = np.asarray(s_c.left_value(y))
    sc_t = np.asarray(s_c(t))
    with np.errstate(divide="ignore"):
        w_past = np.where(
            (np.asarray(dtilde) == 1) & (sc_left > 0),
            1.0 / np.maximum(sc_left, 1e-300),
            0.0,
        )
        w_ahead = np.where(sc_t > 0, 1.0 / sc_t, 0.0)
    return np.where(y <= t[..., None], w_past, w_ahead[..., None])


def point_errors(
    cmst_values,
    cqst_values,
    config: MetricConfig,
    d_true=None,
    y=None,
    dtilde=None,
    s_c=None,
):
    """(MSPE, QPE) against restricted death times, one per method row.

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
    w, truth = w[ok], truth[ok]
    wsum = w.sum()
    # compress, unlike a boolean index on the last axis, returns C order
    cmst_values = np.compress(ok, cmst_values, axis=-1)
    cqst_values = np.compress(ok, cqst_values, axis=-1)
    mspe = np.sum(w * (truth - cmst_values) ** 2, axis=-1) / wsum
    qpe = np.sum(w * _check_loss(truth - cqst_values, config.qpe_tau), axis=-1) / wsum
    return mspe.tolist(), qpe.tolist(), dropped


def brier_curve(curves, times, y, dtilde, landmarks, s_c):
    """BS(t) over the grid: censoring-weighted squared error of the
    predicted curves (subjects x grid, one such matrix per method) against
    survival status, restricted to t past each subject's landmark.
    Normalization is by the full subject count."""
    curves = np.asarray(curves, dtype=float)
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    w = ipcw_weights_at(y, dtilde, s_c, times) * (times[:, None] > landmarks)
    alive = (y > times[:, None]).astype(float)
    out = np.empty(curves.shape[:-2] + times.shape)
    for j in range(times.size):
        out[..., j] = np.sum(w[j] * (alive[j] - curves[..., j]) ** 2, axis=-1) / y.size
    return out


def integrated_brier(bs_values, times, t_u_star=None):
    """Time-averaged integral of each score curve (trapezoid)."""
    times = np.asarray(times, dtype=float)
    if t_u_star is None:
        t_u_star = float(times[-1])
    return (np.trapezoid(bs_values, times) / t_u_star).tolist()


def auc_t(curves_at_t, y, dtilde, landmarks, s_c, t):
    """Censoring-weighted time-dependent AUC: the weighted share of
    case/control pairs whose case has the lower predicted survival, score
    ties counting half (Blanche, Dartigues & Jacqmin-Gadda 2013).  Each
    method row is a weighted rank count: its control scores are sorted
    once, and each case takes the control weight above its score plus half
    the weight tied with it; O(n log n) per row."""
    s_vals = np.asarray(curves_at_t, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    w = ipcw_weights_at(y, dtilde, s_c, t) * (t > landmarks)
    case = (y <= t) & (w > 0)
    ctrl = (y > t) & (w > 0)
    if not case.any() or not ctrl.any():
        raise NoComparablePairs(f"no case/control pair at t={t}")
    w_case, w_ctrl = w[case], w[ctrl]
    rows = np.atleast_2d(s_vals)
    wins = []
    for si, sj in zip(rows[:, case], rows[:, ctrl]):
        order = np.argsort(sj, kind="stable")
        sj = sj[order]
        # control weight at or above each sorted position, summed from the top
        above = np.append(np.cumsum(w_ctrl[order][::-1])[::-1], 0.0)
        lo = np.searchsorted(sj, si, side="left")
        hi = np.searchsorted(sj, si, side="right")
        wins.append(np.dot(w_case, above[hi] + 0.5 * (above[lo] - above[hi])))
    return (np.reshape(wins, s_vals.shape[:-1]) / (w_case.sum() * w_ctrl.sum())).tolist()


def interval_metrics(truths, intervals):
    """(coverage, median width, flagged count) for prediction intervals,
    given as a sequence or as one PredictionInterval of arrays (one row per
    method)."""
    if isinstance(intervals, PredictionInterval) and np.ndim(intervals.lo) == 0:
        intervals = [intervals]
    if not isinstance(intervals, PredictionInterval):
        rows = [(iv.lo, iv.hi, iv.hi_censored) for iv in intervals]
        intervals = PredictionInterval(*np.array(rows, dtype=float).T)
    cover = intervals.covers(np.asarray(truths, dtype=float))
    return (
        np.mean(cover, axis=-1).tolist(),
        np.median(intervals.width, axis=-1).tolist(),
        np.sum(intervals.hi_censored, axis=-1).astype(int).tolist(),
    )


# ---------------------------------------------------------------------------
# model evaluation driver


def subject_query(data: SurvivalData, i: int) -> PredictionQuery:
    obs = np.flatnonzero(data.delta[i] == 1)
    return PredictionQuery(tuple((int(k), float(data.t[i, k])) for k in obs))


def _method_for(name, query, k):
    """The prediction method behind a report name (DP, P0, P1, P1m, PK,
    PKm; PK is onset K of k).  A subject without the named onset is scored
    with P0 for it."""
    if name in ("DP", "P0"):
        return name
    onset = 1 if name.startswith("P1") else k
    if onset - 1 not in dict(query.events):
        return "P0"
    return f"{'Pkm' if name.endswith('m') else 'Pk'}:{onset}"


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
):
    """Apply each prediction method to every subject and score it.

    Subjects whose landmark reaches the end of follow-up (their survival is
    not identified) or passes the restriction time (their restricted mean
    is not defined) are skipped and counted.  Relative accuracy reports each
    error metric as a ratio with the dynamic prediction as benchmark.
    """
    s_c = censoring_km(data)
    t_star = min(config.t_u_star, model.t_max)
    if t_star < config.t_u_star:
        warnings.warn(
            f"restriction time capped at the maximum follow-up {t_star:.6g}"
        )
    cfg = replace(config, t_u_star=t_star)
    grid = cfg.grid()

    # score a subject only if every method's prediction is identified, so
    # the reports compare like with like; each chunk of predicted subjects
    # is reduced to its summaries and its values on the score grid at once
    queries = [subject_query(data, i) for i in range(data.n)]
    eligible = np.array(
        [i for i, q in enumerate(queries) if q.landmark < model.t_max and q.landmark <= t_star],
        dtype=int,
    )
    subjects = [queries[i] for i in eligible]
    names = [[_method_for(m, q, model.k) for m in methods] for q in subjects]
    ok = np.zeros(eligible.size, dtype=bool)
    landmarks = np.array([q.landmark for q in subjects])
    # (methods, subjects, ...) results, one C-ordered row per method, each
    # chunk's (subjects, methods, ...) rows written into their columns
    out = {}

    def put(name, rows, index):
        if name not in out:
            out[name] = np.empty((rows.shape[1], eligible.size) + rows.shape[2:], rows.dtype)
        out[name][:, index] = np.swapaxes(rows, 0, 1)

    for index, pred, failures in predict_batch(subjects, model, names):
        for exc in failures.values():
            if not isinstance(exc, NotIdentified):
                raise exc
        if pred is None:
            continue
        ok[index] = True
        put("cmst", cmst(pred, t_star), index)
        put("cqst", cqst(pred, cfg.qpe_tau), index)
        iv = prediction_interval(pred, t_u_star=t_star)
        for name in ("lo", "hi", "hi_censored"):
            put(name, getattr(iv, name), index)
        put("curves", pred.at(grid), index)
    if not ok.any():
        raise EstimationError("evaluate", "no subject has an identified prediction")
    if not ok.all():
        out = {name: np.compress(ok, rows, axis=1) for name, rows in out.items()}
    idx, landmarks = eligible[ok], landmarks[ok]
    n_skipped = data.n - idx.size
    y, dtilde = data.y[idx], data.dtilde[idx]
    d_true = None if d_true is None else np.asarray(d_true)[idx]
    # a quantile out of reach scores as t*
    cmsts = out["cmst"]
    cqsts = np.nan_to_num(out["cqst"], nan=t_star)
    intervals = PredictionInterval(out["lo"], out["hi"], out["hi_censored"])
    curves = out["curves"]

    mspe, qpe, _ = point_errors(
        cmsts, cqsts, cfg, d_true=d_true, y=y, dtilde=dtilde, s_c=s_c
    )
    bs = brier_curve(curves, grid, y, dtilde, landmarks, s_c)
    auc = np.full(bs.shape, np.nan)
    for g, t in enumerate(grid):
        try:
            auc[:, g] = auc_t(curves[..., g], y, dtilde, landmarks, s_c, t)
        except NoComparablePairs:
            pass
    truth = np.minimum(y if d_true is None else d_true, t_star)
    cp, mid, flagged = interval_metrics(truth, intervals)
    ibs = integrated_brier(bs, grid, t_star)
    # in MethodReport's field order
    columns = zip(methods, mspe, qpe, ibs, bs, auc, cp, mid, flagged)
    reports = {
        name: MethodReport(name, *scores, n_skipped=n_skipped)
        for name, *scores in columns
    }
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
        reports = evaluate_model(model, test, replace(config, ipcw=True), methods=methods)
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

    if int(repeats) < 1:
        raise ConfigError(f"cross-validation needs repeats >= 1, got {repeats}")
    if scheme == "kfold":
        if int(folds) < 2:
            raise ConfigError(f"k-fold cross-validation needs folds >= 2, got {folds}")
        spec = ("kfold", int(folds), int(repeats))
        n_splits = int(folds) * int(repeats)
    elif scheme == "random":
        if not 0.0 < test_fraction < 1.0:
            raise ConfigError(
                f"random splits need a test fraction in (0, 1), got {test_fraction}"
            )
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
