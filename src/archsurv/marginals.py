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

from ._roots import brentq
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


def _block_rows(size, n_cols):
    """Rows per block of the concordance grid sweep: max(2**16, size) cells
    at most, so that a block's work outweighs one pass over `size` per-key
    sums."""
    return max(1, max(2**16, size) // n_cols)


class _PairTable:
    """The concordance equation's sufficient statistic for one event index.

    A pair contributes when the smaller observed onset is an event and the
    smaller observed terminal time is a death; tied pairs are dropped.  Its
    minima are then an onset value r and a death value s, and its
    joint-survival argument s(x, y) = #{T > x, Y > y} / (n S_c(y)) and its
    dampened weight depend only on that cell (r, s) of the grid.  The usable
    pairs are counted per cell and reduced to (count, level) keys over the L
    distinct S_c levels: per key s, the weight sum `w` and the concordant
    weight sum `wc`.  `pairs` counts the usable pairs.

    No pair is enumerated.  A concordant pair has both minima on one subject
    i with an onset and a death, which heads #{T > t_i, Y > y_i} of them.
    The discordant pairs on cell (r, s) number a(r, s) b(r, s): a counts the
    subjects with onset r and Y > s, b those with death s and T > r.  The grid is swept in blocks of rows from the last onset
    value down, each block carrying the counts of the rows above it.  A
    block holds about max(2**16, (n + 1) L) cells, as many as the per-key
    sums, so the build needs O(max(2**16, n L)) memory where the pairs
    number O(n^2).
    """

    def __init__(self, k, data, s_c, weight_spec):
        if weight_spec.kind not in ("unit", "dampened"):
            raise ValueError(f"unknown weight kind {weight_spec.kind!r}")
        t = data.t[:, k]
        d = data.delta[:, k].astype(bool)
        y = data.y
        dt = data.dtilde.astype(bool)
        n = data.n
        # the minima of a usable pair are an onset and a death, so the grid's
        # rows are the onset values and its columns the death values; a
        # subject's row counts the onset values below its t, so it lies above
        # row r exactly when its t exceeds onset value r (columns alike)
        onsets, deaths = np.unique(t[d]), np.unique(y[dt])
        rt = np.searchsorted(onsets, t, "left")
        ry = np.searchsorted(deaths, y, "left")
        R, S = onsets.size + 1, deaths.size + 1
        # key = count * L + level of S_c(y) at the pair minima
        levels, level = np.unique(np.asarray(s_c(deaths), dtype=float), return_inverse=True)
        level = np.append(level, 0)  # the last column has no death
        L = levels.size
        size = (n + 1) * L
        # the subjects each count table holds, by (row, column): [0] onsets,
        # [1] all, [2] all in the rows and columns of the dampened weight,
        # [-1] deaths
        tables = [(rt[d], ry[d]), (rt, ry)]
        dampened = weight_spec.kind == "dampened"
        if dampened:
            a = weight_spec.a if weight_spec.a is not None else np.quantile(t, 0.9)
            b = weight_spec.b if weight_spec.b is not None else np.quantile(y, 0.9)
            # a pair's weight is n / #{T >= min(a, x), Y >= min(b, y)}, a
            # suffix count over the onset and death values clipped at a, b
            tables.append((
                np.searchsorted(np.minimum(onsets, a), t, "right"),
                np.searchsorted(np.minimum(deaths, b), y, "right"),
            ))
            # scaled by 2**m, the weights' whole parts sum exactly: at most
            # n(n-1)/2 pairs of weight at most n / #{T >= a, Y >= b}
            corner = max(np.count_nonzero((t >= a) & (y >= b)), 1)
            m = 51 - np.frexp(n / corner * (n * (n - 1) / 2))[1]
        both = d & dt  # the subjects heading concordant pairs
        tables += [(rt[dt], ry[dt]), (rt[both], ry[both])]
        # sorted by row, so that each block's subjects are one slice
        tables = [(r[o], c[o]) for r, c in tables for o in [np.argsort(r)]]
        heads = tables.pop()
        # per key: the pairs, and for dampened weights the whole and
        # fractional parts of the scaled weight sum
        sums = np.zeros((3 if dampened else 1, size))
        head_keys, head_ws = [], []  # per block, of the concordant pairs

        rows = min(R, _block_rows(size, S + 1))
        # a block's rows of the tables once summed, and a spare row carrying
        # the rows above: [0] #{i: d_i, rt_i = r, ry_i >= s}, [1] #{j: rt_j
        # >= r, ry_j >= s}, [2] the same in the clipped rows and columns, [-1]
        # #{j: dt_j, rt_j >= r, ry_j = s}
        grid = np.empty((rows + 1, len(tables), S + 1), dtype=np.int32)
        carry = np.zeros((len(tables) - 1, S + 1), dtype=np.int32)
        disc = np.empty((rows, S))
        key = np.empty((rows, S), dtype=np.int64)
        for hi in range(R, 0, -rows):
            lo = max(hi - rows, 0)
            h = hi - lo
            blk = grid[: h + 1]
            blk[:-1] = 0
            blk[-1, 1:] = carry
            for j, (r_j, c_j) in enumerate(tables):
                in_blk = slice(*np.searchsorted(r_j, (lo, hi)))
                np.add.at(blk, (r_j[in_blk] - lo, j, c_j[in_blk]), 1)
            np.cumsum(blk[:-1, :-1, ::-1], axis=2, out=blk[:-1, :-1, ::-1])
            np.cumsum(blk[::-1, 1:], axis=0, out=blk[::-1, 1:])
            carry = blk[0, 1:].copy()

            # cell (lo + r, s): a = blk[r, 0, s + 1], b = blk[r + 1, -1, s],
            # and the strict counts blk[r + 1, 1:-1, s + 1]
            np.multiply(blk[:-1, 0, 1:], blk[1:, -1, :-1], out=disc[:h], dtype=float)
            np.multiply(blk[1:, 1, 1:], L, out=key[:h], dtype=np.int64)
            key[:h] += level
            in_blk = slice(*np.searchsorted(heads[0], (lo, hi)))
            head = (heads[0][in_blk] - lo, heads[1][in_blk])
            head_pairs = blk[head[0] + 1, 1, head[1] + 1]
            cell_w, head_w = [disc[:h]], [head_pairs]
            if dampened:
                # each pair's weight 1 / (count / n); the count at a cell with
                # pairs includes their subjects, so the floor at 1 only
                # touches cells without pairs
                scaled = np.maximum(blk[1:, 2, 1:], 1, dtype=float)
                scaled /= n
                np.divide(1.0, scaled, out=scaled)
                np.ldexp(scaled, m, out=scaled)
                whole = np.floor(scaled)
                scaled -= whole
                for part in (whole, scaled):
                    head_w.append(head_pairs * part[head])
                    part *= disc[:h]
                    cell_w.append(part)
            for acc, w_cells in zip(sums, cell_w):
                acc += np.bincount(key[:h].ravel(), w_cells.ravel(), size)
            head_keys.append(head_pairs * L + level[head[1]])
            head_ws.append(head_w)
        del grid, disc, key, cell_w  # peak memory

        head_keys = np.concatenate(head_keys)
        conc = np.array([np.bincount(head_keys, np.concatenate(w), size) for w in zip(*head_ws)])
        sums += conc
        if dampened:
            w, wc = np.ldexp(sums[1] + sums[2], -m), np.ldexp(conc[1] + conc[2], -m)
        else:
            w, wc = sums[0], conc[0]
        per_key = sums[0]
        keys = np.flatnonzero(per_key)
        keys = keys[levels[keys % L] > 0]
        # s(x, y): IPCW-adjusted joint survival at the pair minima
        self.s = np.clip(keys // L / (n * levels[keys % L]), 1e-10, 1.0)
        self.w, self.wc = w[keys], wc[keys]
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
        raise NoComparablePairs(f"onset {k + 1}: no comparable pairs")

    def f(tau):
        return table.score(ArchimedeanCopula(family, theta_from_tau(family, tau)))

    lo, hi = TAU_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    boundary = f_lo < 0 and f_hi < 0
    if boundary:
        warnings.warn(
            f"onset {k + 1}: association at or below independence "
            f"(U({lo})={f_lo:.4g}); tau set to {lo}"
        )
        tau_hat, evals = lo, 0
    elif f_lo * f_hi > 0:
        raise NoRootError(
            f"onset {k + 1}: no sign change on tau in [{lo}, {hi}] "
            f"(U({lo})={f_lo:.4g}, U({hi})={f_hi:.4g})"
        )
    else:
        tau_hat, evals = brentq(f, lo, hi, xtol=1e-6)
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
        u_grid = s[:, None]
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
            f"self-consistency for onset {k + 1} stopped after {SC_MAX_SWEEPS} sweeps",
            RuntimeWarning,
        )
    if info is not None:
        info["iterations"] = it
        info["converged"] = converged
    return StepSurvival(grid, s, t_max=data.t_max)
