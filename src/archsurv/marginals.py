"""Stage-one estimators.

Kaplan-Meier handles the terminal and censoring distributions.  Each
intermediate event gets (i) a pairwise association parameter solved from a
concordance estimating equation over comparable pairs, and (ii) a marginal
survival curve from a pseudo self-consistency fixed point that corrects for
informative censoring by the terminal event.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .copulas import ArchimedeanCopula, tau_from_theta, theta_from_tau
from .data import SurvivalData
from .errors import NoComparablePairs, NoRootError
from .survival import StepSurvival, kaplan_meier

TAU_BRACKET = (0.001, 0.99)  # Kendall-tau bracket of the concordance root
# self-consistency stops once a sweep moves the curve by less than SC_TOL
# (sup norm), or after SC_MAX_SWEEPS sweeps
SC_TOL = 1e-6
SC_MAX_SWEEPS = 200


@dataclass(frozen=True)
class WeightSpec:
    """Pair weight for the concordance equation: unit or dampened.

    The dampened variant downweights pairs with large (x, y) through the
    empirical at-risk proportion; unset constants a, b default to the 0.9
    quantiles of the observed times.
    """

    kind: str = "unit"
    a: float = None
    b: float = None


@dataclass(frozen=True)
class PairwiseAssociation:
    k: int
    theta_hat: float
    tau_hat: float
    weight_spec: WeightSpec


def terminal_km(data: SurvivalData) -> StepSurvival:
    return kaplan_meier(data.y, data.dtilde, t_max=data.t_max)


def censoring_km(data: SurvivalData) -> StepSurvival:
    return kaplan_meier(data.y, 1 - data.dtilde, t_max=data.t_max)


def _suffix_counts(t, y):
    """Rank-indexed joint exceedance counts of the sample (t, y).

    Returns the unique values ``ut``, ``uy``, each subject's ranks ``rt``,
    ``ry`` into them, and an int32 ``table`` of shape (#ut + 1, #uy + 1)
    with ``table[r, s] = #{j: rt_j >= r, ry_j >= s}``.  For a query
    (x, y) = (ut[r], uy[s]) on data values, the strict count
    #{j: T_j > x, Y_j > y} is ``table[r + 1, s + 1]`` and the non-strict
    count #{j: T_j >= x, Y_j >= y} is ``table[r, s]``; for any x the
    non-strict row is ``searchsorted(ut, x, "left")``, and row #ut reads 0.
    Building the table is O(n log n + #ut * #uy), at most O(n^2); each
    query is O(1).
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


def _key_sums(key, w, size):
    """Per-key sums of w >= 0, rounded about once where `np.bincount` alone
    rounds at every addition: scaled by 2**m, the whole parts of w sum
    exactly (their total stays below 2**51) and only the fractions round."""
    m = 51 - np.frexp(w.sum())[1]
    frac = np.ldexp(w, m)
    whole = np.floor(frac)
    frac -= whole
    return np.ldexp(np.bincount(key, whole, size) + np.bincount(key, frac, size), -m)


class _PairTable:
    """The concordance equation's sufficient statistic for one event index.

    A pair contributes when the smaller observed onset is an event and the
    smaller observed terminal time is a death; tied pairs are dropped.  Its
    joint-survival argument s(x, y) = #{T > x, Y > y} / (n S_c(y)) at the
    pair minima is one lookup in the table of `_suffix_counts` over one of
    few S_c levels, so the pairs reduce to their (count, level) keys: per
    key s, the weight sum `w` and concordant weight sum `wc`.  `pairs`
    counts the usable pairs.
    """

    def __init__(self, k, data, s_c, weight_spec):
        t = data.t[:, k]
        d = data.delta[:, k].astype(bool)
        y = data.y
        dt = data.dtilde.astype(bool)
        n = data.n
        ut, uy, rt, ry, table = _suffix_counts(t, y)
        iu, ju = np.triu_indices(n, k=1)

        rt_i, rt_j = rt[iu], rt[ju]
        ry_i, ry_j = ry[iu], ry[ju]
        no_tie = (rt_i != rt_j) & (ry_i != ry_j)
        d_min = np.where(rt_i < rt_j, d[iu], d[ju])
        dt_min = np.where(ry_i < ry_j, dt[iu], dt[ju])
        usable = no_tie & d_min & dt_min

        rx_pair = np.minimum(rt_i, rt_j)[usable]  # ranks of the pair minima
        ry_pair = np.minimum(ry_i, ry_j)[usable]
        conc = ((rt_i < rt_j) == (ry_i < ry_j))[usable]
        del iu, ju, rt_i, rt_j, ry_i, ry_j, no_tie, d_min, dt_min, usable  # peak memory

        # key = count * L + level of S_c(y) at the pair minima
        levels, level = np.unique(np.asarray(s_c(uy), dtype=float), return_inverse=True)
        L = levels.size
        key = table[rx_pair + 1, ry_pair + 1] * np.int64(L) + level[ry_pair]
        per_key = np.bincount(key)
        if weight_spec.kind == "unit":
            w, wc = per_key, np.bincount(key, conc, per_key.size)
        elif weight_spec.kind == "dampened":
            a = weight_spec.a if weight_spec.a is not None else np.quantile(t, 0.9)
            b = weight_spec.b if weight_spec.b is not None else np.quantile(y, 0.9)
            # non-strict counts at (min(a, x), min(b, y)): the row of a
            # minimum is the minimum of the rows
            ra, rb = np.searchsorted(ut, a, "left"), np.searchsorted(uy, b, "left")
            inv = table[np.minimum(ra, rx_pair), np.minimum(rb, ry_pair)] / n
            w_pair = np.where(inv > 0, 1.0 / np.maximum(inv, 1e-12), 0.0)
            w = _key_sums(key, w_pair, per_key.size)
            wc = _key_sums(key, w_pair * conc, per_key.size)
        else:
            raise ValueError(f"unknown weight kind {weight_spec.kind!r}")
        keys = np.flatnonzero(per_key)
        keys = keys[levels[keys % L] > 0]
        # s(x, y): IPCW-adjusted joint survival at the pair minima
        self.s = np.clip(keys // L / (n * levels[keys % L]), 1e-10, 1.0)
        self.w, self.wc = w[keys].astype(float), wc[keys]
        self.pairs = int(per_key[keys].sum())

    def score(self, cop: ArchimedeanCopula) -> float:
        """U(theta): weighted mean of concordance minus its model probability."""
        gamma = np.asarray(cop.cross_ratio(self.s))
        return float(np.sum(self.wc - self.w * (gamma / (gamma + 1.0))) / self.w.sum())


def solve_theta(
    k,
    data,
    family,
    weight_spec=WeightSpec(),
    s_c=None,
    info=None,
) -> PairwiseAssociation:
    """Root of the concordance equation, searched on the Kendall-tau scale.

    U(tau) < 0 at the lower end of the bracket means the data are at or
    below independence: the lower end is returned, with a warning.  If
    `info` is a dict it receives the number of usable pairs (`pairs`),
    brentq's function evaluations (`evals`, not counting the two bracket
    checks before it) and whether the lower end was returned (`boundary`).
    """
    if s_c is None:
        s_c = censoring_km(data)
    table = _PairTable(k, data, s_c, weight_spec)
    if table.pairs == 0:
        raise NoComparablePairs(f"event {k}: no comparable pairs")

    def f(tau):
        return table.score(ArchimedeanCopula(family, theta_from_tau(family, tau)))

    lo, hi = TAU_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    boundary = f_lo < 0 and f_hi < 0
    if boundary:
        warnings.warn(
            f"event {k}: association at or below independence "
            f"(U({lo})={f_lo:.4g}); tau set to {lo}"
        )
        tau_hat, evals = lo, 0
    elif f_lo * f_hi > 0:
        raise NoRootError(
            f"event {k}: no sign change on tau in [{lo}, {hi}] "
            f"(U({lo})={f_lo:.4g}, U({hi})={f_hi:.4g})"
        )
    else:
        tau_hat, root = optimize.brentq(f, lo, hi, xtol=1e-6, full_output=True)
        evals = root.function_calls
    if info is not None:
        info.update(pairs=table.pairs, evals=int(evals), boundary=boundary)
    theta_hat = theta_from_tau(family, float(tau_hat))
    return PairwiseAssociation(k, theta_hat, tau_from_theta(family, theta_hat), weight_spec)


def _capped_ratio_sums(num, pos, mask):
    """Row sums over `mask` of min(num[i, j] / num[pos[j], j], 1): each
    column's conditional on the grid over its value at the subject's own
    onset (grid row pos[j]), a column whose denominator is not positive
    reading 0.  Overwrites `num`."""
    den = num[pos, np.arange(pos.size)]
    num /= np.maximum(den, 1e-300)
    vanished = ~(den > 0)
    if vanished.any():
        num[:, vanished] = 0.0
    np.minimum(num, 1.0, out=num)
    num *= mask
    return num.sum(axis=1)


def self_consistent_marginal(
    k,
    data,
    theta_hat,
    s_d,
    family,
    info=None,
) -> StepSurvival:
    """Marginal survival of the k-th onset by pseudo self-consistency.

    The fixed-point map has three parts: the at-risk average, a joint-survival
    ratio for onsets censored by independent censoring, and a conditional
    (given death) ratio for onsets censored by the terminal event.  Iteration
    starts from the Kaplan-Meier curve that ignores informativeness and each
    sweep is projected onto monotone [0, 1].
    """
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
    # each sweep writes its (grid x subject) conditionals into these
    num_b = np.empty(mask_b.shape)
    num_d = np.empty(mask_d.shape)

    converged = False
    it = 0
    for it in range(1, SC_MAX_SWEEPS + 1):
        u_grid = s.clip(1e-12, 1.0)[:, None]
        new = at_risk.copy()
        if tb.size:
            cop._h_clamped(u_grid, vb[None, :], out=num_b)
            new += _capped_ratio_sums(num_b, pos_b, mask_b)
        if tdth.size:
            cop.h2(u_grid, vdth[None, :], out=num_d)
            new += _capped_ratio_sums(num_d, pos_d, mask_d)
        new /= n
        new = np.minimum.accumulate(np.clip(new, 0.0, 1.0))
        delta_sup = float(np.max(np.abs(new - s)))
        s = new
        if delta_sup < SC_TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"self-consistency for event {k} stopped after {SC_MAX_SWEEPS} sweeps",
            RuntimeWarning,
        )
    if info is not None:
        info["iterations"] = it
        info["converged"] = converged
    return StepSurvival(grid, s, t_max=data.t_max)
