"""Helpers that several test modules share and the package does not need."""

import math
import warnings
from types import SimpleNamespace

import numpy as np

from archsurv.copulas import U_FLOOR, ArchimedeanCopula, _clamp_unit, theta_from_tau
from archsurv.marginals import SC_MAX_SWEEPS, SC_TOL
from archsurv.survival import StepSurvival, kaplan_meier


def copula_from_tau(family: str, tau: float) -> ArchimedeanCopula:
    """The copula of a family at a given Kendall's tau."""
    return ArchimedeanCopula(family, theta_from_tau(family, tau))


# ---------------------------------------------------------------------------
# Record checks row by row, as `SurvivalData.validate` did before it built its
# masks with numpy: the package must give the same messages in the same order.


def reference_validate(data) -> list:
    """Row-indexed descriptions of the invariant violations of `data`."""
    out = []
    for i in range(data.n):
        rid = data.ids[i]
        if not np.isfinite(data.y[i]) or data.y[i] < 0:
            out.append(f"row {rid}: bad terminal time {data.y[i]}")
            continue
        if data.dtilde[i] not in (0, 1):
            out.append(f"row {rid}: terminal indicator not 0/1")
        for k in range(data.k):
            tv, dv = data.t[i, k], data.delta[i, k]
            if not np.isfinite(tv) or tv < 0:
                out.append(f"row {rid}: bad time t{k + 1}={tv}")
            elif tv > data.y[i] + 1e-9:
                out.append(f"row {rid}: t{k + 1}={tv} exceeds y={data.y[i]}")
            if dv not in (0, 1):
                out.append(f"row {rid}: indicator d{k + 1} not 0/1")
            elif dv == 0 and abs(tv - data.y[i]) > 1e-9:
                out.append(
                    f"row {rid}: censored t{k + 1} must equal y ({tv} != {data.y[i]})"
                )
    return out


# ---------------------------------------------------------------------------
# The copula algebra and self-consistency sweep written with fresh arrays and
# full-size np.where, one expression per quantity: the in-place package code
# must reproduce them bit for bit.


def _clayton_log_a(cop, u, v):
    th = cop.theta
    lu, lv = -th * np.log(u), -th * np.log(v)
    m = np.maximum(lu, lv)
    return m + np.log(np.exp(lu - m) + np.exp(lv - m) - np.exp(-m))


def _gumbel_log_t(cop, u, v):
    th = cop.theta
    lx = th * np.log(-np.log(u))
    ly = th * np.log(-np.log(v))
    m = np.maximum(lx, ly)
    return m + np.log1p(np.exp(-np.abs(lx - ly)))


def reference_h(cop, u, v):
    """Joint survival H(u, v) = psi(phi(u) + phi(v)) on clamped arguments."""
    uc, vc = _clamp_unit(u), _clamp_unit(v)
    th = cop.theta
    with np.errstate(over="ignore"):
        if cop.family == "clayton":
            out = np.exp(-_clayton_log_a(cop, uc, vc) / th)
        elif cop.family == "gumbel":
            out = np.exp(-np.exp(_gumbel_log_t(cop, uc, vc) / th))
        else:
            # log r = log1p(max(q, -1/2)) + log(min(2r, 1)), r = 1 + q written
            # as two terms of one sign
            tu, tv, c = -th * uc, -th * vc, math.expm1(-th)
            a = np.expm1(tu) / c
            q = np.maximum(a * np.expm1(tv), -0.5)
            r = (a + a) * np.exp(tv) + np.exp(tu) * np.expm1(-th * (1.0 - uc)) * (2.0 / c)
            out = (np.log1p(q) + np.log(np.minimum(r, 1.0))) * (-1.0 / th)
    out = np.where(np.asarray(u, dtype=float) == 1.0, np.clip(v, 0.0, 1.0), out)
    out = np.where(np.asarray(v, dtype=float) == 1.0, np.clip(u, 0.0, 1.0), out)
    return out if out.ndim else float(out)


def reference_partials(cop, u, v):
    """(H1, H2, H12), each written out in full."""
    uc, vc = _clamp_unit(u), _clamp_unit(v)
    th = cop.theta
    with np.errstate(over="ignore", invalid="ignore"):
        if cop.family == "clayton":
            la = _clayton_log_a(cop, uc, vc)
            lu, lv = np.log(uc), np.log(vc)
            h1 = np.exp(-(1.0 + 1.0 / th) * la - (th + 1.0) * lu)
            h2 = np.exp(-(1.0 + 1.0 / th) * la - (th + 1.0) * lv)
            h12 = (1.0 + th) * np.exp(-(2.0 + 1.0 / th) * la - (th + 1.0) * (lu + lv))
        elif cop.family == "gumbel":
            lt = _gumbel_log_t(cop, uc, vc)
            s = np.exp(lt / th)
            beta = 1.0 / th
            llx = np.log(-np.log(uc))
            lly = np.log(-np.log(vc))
            h1 = np.exp(-s + (beta - 1.0) * lt + (th - 1.0) * llx - np.log(uc))
            h2 = np.exp(-s + (beta - 1.0) * lt + (th - 1.0) * lly - np.log(vc))
            h12 = (
                th
                * (1.0 - beta + beta * s)
                * np.exp(
                    -s
                    + (beta - 2.0) * lt
                    + (th - 1.0) * (llx + lly)
                    - np.log(uc)
                    - np.log(vc)
                )
            )
        else:
            # denominator expm1(-th) + expm1(-th u) expm1(-th v), as the sum of
            # a partial's numerator and a term of the same sign
            n1 = np.exp(-th * uc) * np.expm1(-th * vc)
            n2 = np.exp(-th * vc) * np.expm1(-th * uc)
            denom = n2 + np.exp(-th * uc) * np.expm1(-th * (1.0 - uc))
            h1 = n1 / (n1 + np.exp(-th * vc) * np.expm1(-th * (1.0 - vc)))
            h2 = n2 / denom
            h12 = -th * np.exp(-th * (uc + vc)) * np.expm1(-th) / denom**2
    h1 = np.clip(h1, 0.0, 1.0)
    h2 = np.clip(h2, 0.0, 1.0)
    h12 = np.maximum(h12, 0.0)
    if h1.ndim == 0:
        return float(h1), float(h2), float(h12)
    return h1, h2, h12


def reference_cell_log_terms(cop_alpha, g, obs, log_w, d_groups):
    """`likelihood.cell_log_terms` composed of the checked public methods,
    with G and the observed-onset mask laid out cells x onsets and each
    cell's onsets added by numpy's sum along the row."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        arg = np.asarray(cop_alpha.phi(np.clip(g, U_FLOOR, 1.0))).sum(axis=1)
        lp = np.log(-np.asarray(cop_alpha.phi_prime(g)))
        x = log_w + np.where(obs, lp, 0.0).sum(axis=1)
        for d, idx in d_groups:
            x[idx] += cop_alpha.log_abs_psi_deriv(arg[idx], int(d))
    return x


# ---------------------------------------------------------------------------
# H2 and H12 in mpmath from the generator alone: with H = psi(phi(u) + phi(v)),
# H2 = phi'(v) / phi'(H) and H12 = -phi'(u) phi'(v) phi''(H) / phi'(H)^3.
# Evaluate under `mpmath.workdps(50)` or more; Frank's psi cancels e^-theta
# against 1 near H = 1, so `mp_partials` adds theta / 2 digits for it.


def mp_generator(family, theta):
    """(phi, phi', phi'', psi) of a family as mpmath functions."""
    import mpmath as mp

    th = mp.mpf(theta)
    if family == "clayton":
        return (
            lambda t: (t**-th - 1) / th,
            lambda t: -(t ** (-th - 1)),
            lambda t: (th + 1) * t ** (-th - 2),
            lambda s: (1 + th * s) ** (-1 / th),
        )
    if family == "gumbel":
        return (
            lambda t: (-mp.log(t)) ** th,
            lambda t: -th * (-mp.log(t)) ** (th - 1) / t,
            lambda t: th * (-mp.log(t)) ** (th - 2) * (th - 1 - mp.log(t)) / t**2,
            lambda s: mp.exp(-(s ** (1 / th))),
        )
    return (
        lambda t: -mp.log(mp.expm1(-th * t) / mp.expm1(-th)),
        lambda t: -th / mp.expm1(th * t),
        lambda t: th**2 * mp.exp(th * t) / mp.expm1(th * t) ** 2,
        lambda s: -mp.log1p(mp.exp(-s) * mp.expm1(-th)) / th,
    )


def mp_partials(family, theta, u, v):
    """(H2, H12) at (u, v) in mpmath."""
    import mpmath as mp

    with mp.extradps(int(abs(theta) / 2) if family == "frank" else 0):
        phi, d1, d2, psi = mp_generator(family, theta)
        u, v = mp.mpf(u), mp.mpf(v)
        h = psi(phi(u) + phi(v))
        return d1(v) / d1(h), -d1(u) * d1(v) * d2(h) / d1(h) ** 3


def mp_log_abs_psi_deriv(family, theta, t, d):
    """log|psi^(d)(t)| in mpmath, by routes independent of the package's:
    Frank through the polylog, |psi^(d)| = Li_{1-d}(w) / theta with
    w = (1 - e^-theta) e^-t, Clayton by its product formula, and Gumbel by
    Faa di Bruno on exp(-t^(1/theta)), whose Bell-polynomial terms all have
    the sign (-1)^d."""
    import mpmath as mp

    th, t = mp.mpf(theta), mp.mpf(t)
    if family == "frank":
        w = -mp.expm1(-th) * mp.exp(-t)
        return mp.log((-mp.log1p(-w) if d == 0 else mp.polylog(1 - d, w)) / th)
    if family == "clayton":
        return mp.fsum(mp.log1p(j * th) for j in range(d)) - (1 / th + d) * mp.log1p(th * t)
    beta = 1 / th
    g = [None] + [-mp.ff(beta, j) * t ** (beta - j) for j in range(1, d + 1)]
    bell = [mp.mpf(1)]
    for n in range(d):
        bell.append(mp.fsum(mp.binomial(n, i) * bell[n - i] * g[i + 1] for i in range(n + 1)))
    return -(t**beta) + mp.log(abs(bell[d]))


def reference_self_consistent(k, data, theta_hat, s_d, family):
    """The self-consistency fixed point with every sweep's arrays built
    afresh; returns the marginal and the number of sweeps.  Each grid row
    adds, in subject order, the masked entries of its row to the at-risk
    count: the onsets censored with the subject alive, then those censored
    by death, each in data order."""
    cop = ArchimedeanCopula(family, theta_hat)
    t = data.t[:, k]
    d = data.delta[:, k].astype(bool)
    n = data.n

    grid = np.unique(t)
    s = np.asarray(kaplan_meier(t, d, t_max=data.t_max)(grid), dtype=float)
    at_risk = (n - np.searchsorted(np.sort(t), grid, "right")).astype(float)

    cens = ~d
    both_cens = cens & (data.dtilde == 0)
    death_cens = cens & (data.dtilde == 1)
    vb = np.asarray(s_d.mid_value(data.y[both_cens]), dtype=float)
    vdth = np.asarray(s_d.mid_value(data.y[death_cens]), dtype=float)
    tb = t[both_cens]
    tdth = t[death_cens]
    pos_b = np.searchsorted(grid, tb)
    pos_d = np.searchsorted(grid, tdth)
    mask_b = tb[None, :] <= grid[:, None]
    mask_d = tdth[None, :] <= grid[:, None]

    it = 0
    for it in range(1, SC_MAX_SWEEPS + 1):
        u_grid = np.clip(s, 1e-12, 1.0)[:, None]
        terms = []
        if tb.size:
            num = reference_h(cop, u_grid, vb[None, :])
            den = reference_h(cop, np.clip(s[pos_b], 1e-12, 1.0), vb)
            ratio = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            terms.append((np.minimum(ratio, 1.0), mask_b))
        if tdth.size:
            _, num, _ = reference_partials(cop, u_grid, vdth[None, :])
            _, den, _ = reference_partials(cop, np.clip(s[pos_d], 1e-12, 1.0), vdth)
            ratio = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            terms.append((np.minimum(ratio, 1.0), mask_d))
        new = at_risk.copy()
        for term, mask in terms:
            for j in range(term.shape[1]):
                new += np.where(mask[:, j], term[:, j], 0.0)
        new /= n
        new = np.minimum.accumulate(np.clip(new, 0.0, 1.0))
        delta_sup = float(np.max(np.abs(new - s)))
        s = new
        if delta_sup < SC_TOL:
            break
    else:
        warnings.warn("reference self-consistency did not converge", RuntimeWarning)
    return StepSurvival(grid, s, t_max=data.t_max), it


# ---------------------------------------------------------------------------
# The whole rank-indexed joint-exceedance table at once: O(#t * #y) memory,
# which the package's block sweep avoids.


def _suffix_counts(t, y):
    """Rank-indexed joint exceedance counts of the sample (t, y).

    Returns the unique values ``ut``, ``uy``, each subject's ranks ``rt``,
    ``ry`` into them, and an int32 ``table`` of shape (#ut + 1, #uy + 1)
    with ``table[r, s] = #{j: rt_j >= r, ry_j >= s}``.  For a query
    (x, y) = (ut[r], uy[s]) on data values, the strict count
    #{j: T_j > x, Y_j > y} is ``table[r + 1, s + 1]`` and the non-strict
    count #{j: T_j >= x, Y_j >= y} is ``table[r, s]``; for any x the
    non-strict row is ``searchsorted(ut, x, "left")``, and row #ut reads 0.
    """
    ut, rt = np.unique(t, return_inverse=True)
    uy, ry = np.unique(y, return_inverse=True)
    rt, ry = rt.astype(np.int32), ry.astype(np.int32)
    table = np.zeros((ut.size + 1, uy.size + 1), dtype=np.int32)
    np.add.at(table, (rt, ry), 1)
    rev = table[::-1, ::-1]
    np.cumsum(rev, axis=0, out=rev)
    np.cumsum(rev, axis=1, out=rev)
    return ut, uy, rt, ry, table


# ---------------------------------------------------------------------------
# The concordance equation with every usable pair kept: O(n^2) memory, the
# reference at benchmark sizes for the package's per-key reduction (the
# dense O(n^3) counter in test_marginals.py checks it at small n).


def reference_pair_table(k, data, s_c, weight_spec):
    """Per-pair ``s``, ``conc`` and ``w`` of the concordance equation, the
    usable-pair total ``pairs`` and ``score(cop)``: the interface
    `solve_theta` reads, so θ can be solved through it."""
    t, d = data.t[:, k], data.delta[:, k].astype(bool)
    y, dt, n = data.y, data.dtilde.astype(bool), data.n
    ut, uy, rt, ry, table = _suffix_counts(t, y)
    iu, ju = np.triu_indices(n, k=1)
    rt_i, rt_j = rt[iu], rt[ju]
    ry_i, ry_j = ry[iu], ry[ju]
    usable = (
        (rt_i != rt_j) & (ry_i != ry_j)
        & np.where(rt_i < rt_j, d[iu], d[ju])
        & np.where(ry_i < ry_j, dt[iu], dt[ju])
    )
    rx_pair = np.minimum(rt_i, rt_j)[usable]
    ry_pair = np.minimum(ry_i, ry_j)[usable]
    conc = ((rt_i < rt_j) == (ry_i < ry_j))[usable]
    count = table[rx_pair + 1, ry_pair + 1]
    sc_y = np.asarray(s_c(uy), dtype=float)[ry_pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        s_val = count / (n * sc_y)
    ok = sc_y > 0
    s = np.clip(s_val[ok], 1e-10, 1.0)
    conc = conc[ok].astype(float)
    if weight_spec.kind == "unit":
        w = np.ones(s.size)
    else:
        a = weight_spec.a if weight_spec.a is not None else np.quantile(t, 0.9)
        b = weight_spec.b if weight_spec.b is not None else np.quantile(y, 0.9)
        ra = np.searchsorted(ut, a, "left")
        rb = np.searchsorted(uy, b, "left")
        inv = table[np.minimum(ra, rx_pair[ok]), np.minimum(rb, ry_pair[ok])] / n
        w = np.where(inv > 0, 1.0 / np.maximum(inv, 1e-12), 0.0)

    def score(cop):
        gamma = np.asarray(cop.cross_ratio(s))
        return float(np.sum(w * (conc - gamma / (gamma + 1.0))) / w.sum())

    return SimpleNamespace(s=s, conc=conc, w=w, pairs=s.size, score=score)


# ---------------------------------------------------------------------------
# Censoring weights and the Brier curve written one time point at a time,
# one method per call: the package computes the weights as one row per time
# and scores every method's row at once, and must reproduce these bit for bit.


def reference_ipcw_weights_at(y, dtilde, s_c, t):
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


def reference_brier_curve(curves, times, y, dtilde, landmarks, s_c):
    curves = np.asarray(curves, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    out = np.zeros(times.size)
    for j, t in enumerate(times):
        w = reference_ipcw_weights_at(y, dtilde, s_c, t)
        active = times[j] > landmarks
        resid = ((y > t).astype(float) - curves[:, j]) ** 2
        out[j] = np.sum(w * active * resid) / y.size
    return out


# ---------------------------------------------------------------------------
# Time-dependent AUC with the whole (cases x controls) weight matrix, and the
# evaluation driver predicting one subject at a time: the package counts
# weighted ranks and predicts subjects in batches, and must agree with these
# to rounding.


def reference_auc_t(curves_at_t, y, dtilde, landmarks, s_c, t):
    from archsurv.errors import NoComparablePairs
    from archsurv.metrics import ipcw_weights_at

    s_vals = np.asarray(curves_at_t, dtype=float)
    y = np.asarray(y, dtype=float)
    landmarks = np.asarray(landmarks, dtype=float)
    w = ipcw_weights_at(y, dtilde, s_c, t) * (t > landmarks)
    case = (y <= t) & (w > 0)
    ctrl = (y > t) & (w > 0)
    if not case.any() or not ctrl.any():
        raise NoComparablePairs(f"no case/control pair at t={t}")
    wi = w[case][:, None] * w[ctrl][None, :]
    rows = np.atleast_2d(s_vals)
    wins = [
        np.sum(wi * ((si[:, None] < sj) + 0.5 * (si[:, None] == sj)))
        for si, sj in zip(rows[:, case], rows[:, ctrl])
    ]
    return (np.reshape(wins, s_vals.shape[:-1]) / np.sum(wi)).tolist()


def reference_evaluate(model, data, config, d_true=None, methods=None):
    """`evaluate_model` with one `predict_curves` call and one call of each
    summary per subject."""
    from dataclasses import replace

    from archsurv import metrics as M
    from archsurv.errors import NoComparablePairs, NotIdentified
    from archsurv.marginals import censoring_km
    from archsurv.predict import cmst, cqst, predict_curves, prediction_interval

    methods = M.DEFAULT_METHODS if methods is None else methods
    s_c = censoring_km(data)
    t_star = min(config.t_u_star, model.t_max)
    cfg = replace(config, t_u_star=t_star)
    grid = cfg.grid()
    usable, landmarks, cmsts, cqsts, intervals, curves = [], [], [], [], [], []
    for i in range(data.n):
        q = M.subject_query(data, i)
        if q.landmark >= model.t_max or q.landmark > t_star:
            continue
        try:
            pred = predict_curves(q, model, [M._method_for(m, q, model.k) for m in methods])
        except NotIdentified:
            continue
        usable.append(i)
        landmarks.append(q.landmark)
        cmsts.append(cmst(pred, t_star))
        cqsts.append(cqst(pred, cfg.qpe_tau))
        iv = prediction_interval(pred, t_u_star=t_star)
        intervals.append((iv.lo, iv.hi, iv.hi_censored))
        curves.append(pred.at(grid))
    idx = np.array(usable)
    y, dtilde = data.y[idx], data.dtilde[idx]
    d_true = None if d_true is None else np.asarray(d_true)[idx]
    cmsts = np.stack(cmsts, axis=1)
    cqsts = np.nan_to_num(np.stack(cqsts, axis=1), nan=t_star)
    intervals = M.PredictionInterval(*(np.stack(col, axis=1) for col in zip(*intervals)))
    curves = np.stack(curves, axis=1)
    mspe, qpe, _ = M.point_errors(cmsts, cqsts, cfg, d_true=d_true, y=y, dtilde=dtilde, s_c=s_c)
    bs = M.brier_curve(curves, grid, y, dtilde, landmarks, s_c)
    auc = np.full(bs.shape, np.nan)
    for g, t in enumerate(grid):
        try:
            auc[:, g] = reference_auc_t(curves[..., g], y, dtilde, landmarks, s_c, t)
        except NoComparablePairs:
            pass
    truth = np.minimum(y if d_true is None else d_true, t_star)
    cp, mid, flagged = M.interval_metrics(truth, intervals)
    ibs = M.integrated_brier(bs, grid, t_star)
    columns = zip(methods, mspe, qpe, ibs, bs, auc, cp, mid, flagged)
    n_skipped = data.n - idx.size
    return {
        name: M.MethodReport(name, *scores, n_skipped=n_skipped)
        for name, *scores in columns
    }
