"""Correctness checks run outside the timed phase.

Each check compares the program's output with a computation made here,
apart from the program, or with a property the method must have.  A check
returns a list of messages, empty when it passes.  No check compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from archsurv import likelihood as L
from archsurv import predict as P

# An estimated Kendall tau may miss the tau that generated the data by at
# most this many units of 1/sqrt(n_train).
TAU_TOL_SQRT_N = 3.5
# Step on the tau scale at which the profile likelihood is probed around its
# maximiser.
PROFILE_STEP = 0.01
EPS = 1e-12


def _km(y, event):
    """Product-limit estimate: (jump times, values after each jump)."""
    times, inverse = np.unique(y, return_inverse=True)
    deaths = np.bincount(inverse, weights=event.astype(float))
    leaving = np.bincount(inverse)
    at_risk = y.size - np.concatenate(([0], np.cumsum(leaving)[:-1]))
    jump = deaths > 0
    return times[jump], np.cumprod(1.0 - deaths[jump] / at_risk[jump])


def _completed_step(curve, t):
    """Right-continuous value at t of the curve with its tail mass placed at
    t_max, computed from the curve's jump times and values."""
    times = np.append(curve.times, curve.t_max)
    values = np.append(curve.values, 0.0)
    idx = np.searchsorted(times, t, side="right") - 1
    return np.where(idx < 0, 1.0, values[np.maximum(idx, 0)])


def flat_onsets(query, model):
    """Onsets of the query where the fitted marginal does not drop: on a
    segment (t_{j-1}, t_j] with S(t_j) == S(t_{j-1}), or past its last grid
    time."""
    flat = []
    for k, t_k in query.events:
        marg = model.marginals[k]
        j = int(np.searchsorted(marg.times, t_k, side="left"))
        if j >= marg.times.size or marg.values[j] == (marg.values[j - 1] if j else 1.0):
            flat.append(k)
    return flat


def check_fit(model, train, cfg):
    """Estimates near the generating taus; curves are survival curves; the
    terminal curve is the product-limit estimate."""
    errs = []
    tol = TAU_TOL_SQRT_N / math.sqrt(train.n)
    for k, assoc in enumerate(model.thetas):
        if abs(assoc.tau_hat - cfg.tau_thetas[k]) > tol:
            errs.append(
                f"tau_theta[{k + 1}]={assoc.tau_hat:.4f} is more than {tol:.3f} "
                f"from {cfg.tau_thetas[k]:.4f}"
            )
    if abs(model.tau_alpha - cfg.tau_alpha) > tol:
        errs.append(
            f"tau_alpha={model.tau_alpha:.4f} is more than {tol:.3f} "
            f"from {cfg.tau_alpha:.4f}"
        )

    named = [(f"marginal[{k + 1}]", m) for k, m in enumerate(model.marginals)]
    named += [("terminal", model.terminal), ("censoring", model.censoring)]
    for name, curve in named:
        v = curve.values
        if v.size and (v.min() < 0 or v.max() > 1 or np.any(np.diff(v) > 0)):
            errs.append(f"{name} curve is not non-increasing in [0, 1]")

    times, values = _km(train.y, train.dtilde)
    if not (
        np.array_equal(times, model.terminal.times)
        and np.allclose(values, model.terminal.values, rtol=1e-12, atol=EPS)
    ):
        errs.append("terminal curve differs from the product-limit estimate")
    return errs


def check_profile(model, train, tau_bounds):
    """The profile log-likelihood at tau_alpha equals the fit's and is not
    below its value at tau_alpha +- PROFILE_STEP (unless at a bound)."""
    errs = []
    ws = L.LikelihoodWorkspace(
        train, model.family, [a.theta_hat for a in model.thetas],
        model.marginals, model.terminal, model.mc_n, model.mc_seed,
    )
    tau = model.tau_alpha
    peak = ws.profile_loglik(tau_alpha=tau)
    if not math.isclose(peak, model.loglik, rel_tol=1e-9, abs_tol=1e-9):
        errs.append(f"profile loglik {peak} at tau_alpha differs from fit {model.loglik}")
    lo, hi = tau_bounds
    if lo + PROFILE_STEP < tau < hi - PROFILE_STEP:
        for nb in (tau - PROFILE_STEP, tau + PROFILE_STEP):
            value = ws.profile_loglik(tau_alpha=nb)
            if value > peak + 1e-9 * abs(peak):
                errs.append(
                    f"profile loglik at tau={nb:.4f} ({value:.6f}) exceeds its "
                    f"value at tau_alpha={tau:.4f} ({peak:.6f})"
                )
    return errs


def check_prediction(query, pred, model):
    """A predicted curve is a survival curve; with no history it is the
    completed terminal curve; with one onset it is the Pk baseline."""
    v = pred.values
    errs = []
    if v.min() < 0 or v.max() > 1 or np.any(np.diff(v) > EPS):
        errs.append(f"{query.events}: predicted curve is not non-increasing in [0, 1]")
    if query.m == 0:
        expect = _completed_step(model.terminal, pred.times) / _completed_step(
            model.terminal, query.landmark
        )
        if not np.allclose(v, expect, rtol=1e-12, atol=EPS):
            errs.append("m=0 curve differs from S_D(t)/S_D(landmark)")
    elif query.m == 1:
        k = query.events[0][0]
        base = P.predict_baseline(query, model, "Pk", k=k, times=pred.times)
        if not np.allclose(v, base.values, rtol=1e-12, atol=EPS):
            errs.append(f"{query.events}: m=1 curve differs from the Pk baseline")
    return errs


def check_failure(query, exc, model):
    """A failed prediction is the zero-slope fault: a history of two or more
    onsets, one of them on a flat segment of its fitted marginal."""
    if query.m < 2 or "denominator integral vanished" not in str(exc):
        return [f"{query.events}: unexpected {type(exc).__name__}: {exc}"]
    if not flat_onsets(query, model):
        return [f"{query.events}: NotIdentified without a zero-slope onset"]
    return []


def check_reports(reports, n_test, n_failed, dp_beats_p0):
    """Scores lie in range; every method skipped exactly the subjects whose
    dynamic prediction failed (evaluate_model skips a subject for all
    methods when one of them is not identified); and, on the workload sized
    for it, DP predicts better than P0."""
    errs = []
    for name, rep in reports.items():
        if rep.n_skipped != n_failed:
            errs.append(
                f"{name}: skipped {rep.n_skipped} subjects, but {n_failed} "
                f"dynamic predictions failed"
            )
        if not rep.ibs >= 0:
            errs.append(f"{name}: IBS {rep.ibs} is negative")
        auc = rep.auc_curve[~np.isnan(rep.auc_curve)]
        if np.any((auc < 0) | (auc > 1)):
            errs.append(f"{name}: AUC outside [0, 1]")
        if not (np.isfinite(rep.mspe) and rep.mspe >= 0):
            errs.append(f"{name}: MSPE {rep.mspe} is not a finite non-negative number")
    if n_failed >= n_test:
        errs.append("evaluate scored no subject")
    if dp_beats_p0 and not reports["DP"].mspe < reports["P0"].mspe:
        errs.append(
            f"DP MSPE {reports['DP'].mspe:.4f} is not below P0's "
            f"{reports['P0'].mspe:.4f}"
        )
    return errs
