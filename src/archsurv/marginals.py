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
from functools import partial

import numpy as np

from . import _cells
from ._roots import brentq
from .copulas import (
    _ERRSTATE,
    _TEMPS,
    ArchimedeanCopula,
    _clamp_unit,
    _h2_cells,
    _h_cells,
    _h_edges,
    _h_u_factors,
    _u_factors,
    _v_factors,
    tau_from_theta,
    theta_from_tau,
)
from .data import SurvivalData
from .errors import NoComparablePairs, NoRootError
from .survival import StepSurvival, kaplan_meier

TAU_BRACKET = (0.001, 0.99)  # Kendall-tau bracket of the concordance root
# self-consistency stops once a sweep moves the curve by less than SC_TOL
# (sup norm), or after SC_MAX_SWEEPS sweeps
SC_TOL = 1e-6
SC_MAX_SWEEPS = 200
_KINDS = ("h", "h2")  # censored alive (joint survival H), by death (H2)


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
    """Rows per block of the concordance grid sweep: max(CELLS, size) cells
    at most, so that a block's work outweighs one pass over `size` per-key
    sums."""
    return max(1, max(_cells.CELLS, size) // n_cols)


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
    block holds about max(CELLS, (n + 1) L) cells, as many as the per-key
    sums, so the build needs O(max(CELLS, n L)) memory where the pairs
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
    if not boundary:  # the tau of the theta reported; at the bound, the bound
        tau_hat = tau_from_theta(family, theta_hat)
    return PairwiseAssociation(k, theta_hat, tau_hat, weight_spec)


class _Onset:
    """One onset's fixed-point problem at association `theta`: its grid
    (the distinct onset times), the Kaplan-Meier curve that ignores
    informativeness, which starts the iteration, the at-risk counts, and its
    censored subjects of each kind ("h": censored with the subject alive,
    "h2": censored by death) as the grid row of each one's onset time, its
    terminal survival v and the factors of v that the kind's kernel reads,
    in data order.  A censored subject enters only the grid rows at or after
    its own: `cells` counts those entries."""

    def __init__(self, data, k, s_d, theta, family):
        t = data.t[:, k]
        d = data.delta[:, k].astype(bool)
        self.theta = theta
        self.grid = np.unique(t)
        self.start = np.asarray(kaplan_meier(t, d, t_max=data.t_max)(self.grid), dtype=float)
        self.at_risk = (data.n - np.searchsorted(np.sort(t), self.grid, "right")).astype(float)
        self.kinds = {}
        for kind, died in zip(_KINDS, (0, 1)):
            cens = ~d & (data.dtilde == died)
            v = np.asarray(s_d.mid_value(data.y[cens]), dtype=float)
            with np.errstate(**_ERRSTATE):
                vf = _v_factors(family, theta, _clamp_unit(v), kind)
            self.kinds[kind] = (np.searchsorted(self.grid, t[cens]), v, vf)
        self.cells = sum(int((self.grid.size - c[0]).sum()) for c in self.kinds.values())


class _StackCells:
    """The cells that the censored subjects of a stack's active onsets
    enter, laid out flat and column by column: every "h" column, then every
    "h2" column, each kind in onset and then data order.  Onset i of the
    stack owns the rows from i * width of the (stack x width) grid.

    The columns are swept in chunks of at most CELLS cells (a longer column
    is a chunk of its own), so that a sweep's temporaries stay within that
    budget.  A build lays out per cell the v factors that each onset
    took once per fit, and a theta (a scalar when one onset is active)."""

    def __init__(self, onsets, family, width, active):
        self.family, self.n_rows = family, active.size * width
        live = np.flatnonzero(active)
        one = onsets[live[0]].theta if live.size == 1 else None
        # one column per censored subject, kind by kind and onset by onset:
        # the first row it enters and its cells; per kind its theta, v and
        # v factors
        row0, lens, kinds = [], [], []
        for name in _KINDS:
            cols = [(i, *onsets[i].kinds[name]) for i in live]
            row0 += [i * width + pos for i, pos, _, _ in cols]
            lens += [onsets[i].grid.size - pos for i, pos, _, _ in cols]
            kinds.append((
                name,
                np.concatenate([np.full(pos.size, onsets[i].theta) for i, pos, _, _ in cols]),
                np.concatenate([v for _, _, v, _ in cols]),
                [np.concatenate(f) for f in zip(*(vf for *_, vf in cols))],
            ))
        row0, lens = np.concatenate(row0), np.concatenate(lens)
        bounds = (0, kinds[0][1].size, lens.size)  # the columns of each kind
        self.chunks = []
        for cols in _cells.chunks(lens):
            col, pos = _cells.suffix(lens[cols])  # each cell's column, place in it
            first = np.flatnonzero(pos == 0)  # each column's first cell (none is empty)
            rows = row0[cols][col] + pos  # from its subject's own row down
            parts = []
            for (name, theta, v, vf), lo, hi in zip(kinds, bounds, bounds[1:]):
                a, b = max(cols.start, lo), min(cols.stop, hi)
                if a < b:
                    own = slice(a - lo, b - lo)
                    per_cell = partial(np.repeat, repeats=lens[a:b])
                    parts.append((
                        name, slice(first[a - cols.start], first[b - 1 - cols.start] + lens[b - 1]),
                        one if one is not None else per_cell(theta[own]),
                        [per_cell(f[own]) for f in vf],
                        per_cell(v[own]) if name == "h" else None,  # for `_h_edges`
                    ))
            # the bincount forming the row sums reads every row, then each cell's
            self.chunks.append((np.concatenate([np.arange(self.n_rows), rows]), lens[cols], first, parts))
        self.buf = np.empty(max((c[0].size for c in self.chunks), default=0))
        self.tmp = []

    def _scratch(self, count, size):
        """`count` scratch arrays of `size` floats, kept from sweep to sweep:
        a new temporary of this size in every sweep would be mapped afresh."""
        for i in range(count):
            if i == len(self.tmp):
                self.tmp.append(np.empty(size))
            elif self.tmp[i].size < size:
                self.tmp[i] = np.empty(size)
        return [a[:size] for a in self.tmp[:count]]

    def row_sums(self, s, uf, carry):
        """`carry` plus, row by row, the capped ratio of every cell in cell
        order: one bincount per chunk, each taking the sums so far first.
        `s` is the flat (stack x width) grid of curves and `uf` its u
        factors, flat, by kind."""
        for idx, lens, first, parts in self.chunks:
            w = self.buf[: idx.size]
            w[: self.n_rows] = carry
            cells = w[self.n_rows:]
            for kind, own, theta, vf, v in parts:
                out, at = cells[own], idx[self.n_rows:][own]
                # the u factors are gathered into `out` and then the kernel's
                # scratch arrays, which may hold them (see `_h_cells`)
                count = max(len(uf[kind]), 1 + _TEMPS[self.family])
                bufs = [out] + self._scratch(count - 1, out.size)
                gathered = [np.take(f, at, out=b, mode="clip") for f, b in zip(uf[kind], bufs)]
                if kind == "h":
                    _h_cells(self.family, theta, gathered, vf, out, bufs[1:])
                    _h_edges(out, np.take(s, at, out=bufs[1], mode="clip"), v)
                else:
                    _h2_cells(self.family, theta, gathered, vf, out, bufs[1:])
                    out.clip(0.0, 1.0, out=out)
            # each column's conditional over its value at the subject's own
            # row, capped at 1; a column whose denominator is not positive reads 0
            den = cells[first]
            cells /= np.repeat(np.maximum(den, 1e-300), lens)
            vanished = ~(den > 0)
            if vanished.any():
                cells[np.repeat(vanished, lens)] = 0.0
            np.minimum(cells, 1.0, out=cells)
            carry = np.bincount(idx, w, minlength=self.n_rows)
        return carry


def _sweep_stack(onsets, family, n):
    """The fixed-point map of a stack of onsets; each onset is frozen, and
    its cells dropped, once its sup step falls below SC_TOL.  Returns the
    (stack x width) curves and, per onset, its sweeps and whether it
    converged."""
    width = max(o.grid.size for o in onsets)
    s, at_risk = np.zeros((2, len(onsets), width))
    for i, o in enumerate(onsets):
        s[i, : o.grid.size] = o.start
        at_risk[i, : o.grid.size] = o.at_risk
    theta = np.array([[o.theta] for o in onsets])  # per grid row
    has_h = any(o.kinds["h"][0].size for o in onsets)
    active = np.ones(len(onsets), dtype=bool)
    sweeps = np.full(len(onsets), SC_MAX_SWEEPS)
    with np.errstate(**_ERRSTATE):
        cells = _StackCells(onsets, family, width, active)
        for it in range(1, SC_MAX_SWEEPS + 1):
            uf = {"h2": _u_factors(family, theta, _clamp_unit(s))}
            if has_h:
                uf["h"] = _h_u_factors(family, theta, uf["h2"])
            uf = {kind: [f.ravel() for f in factors] for kind, factors in uf.items()}
            new = cells.row_sums(s.ravel(), uf, at_risk.ravel()).reshape(s.shape) / n
            new = np.minimum.accumulate(np.clip(new, 0.0, 1.0), axis=1)
            step = np.max(np.abs(new - s), axis=1)
            s[active] = new[active]
            done = active & (step < SC_TOL)
            if done.any():
                sweeps[done] = it
                active &= ~done
                if not active.any():
                    break
                cells = _StackCells(onsets, family, width, active)
    return s, sweeps, ~active


def self_consistent_marginal(data, thetas, s_d, family, info=None) -> list:
    """Marginal survival of every onset by pseudo self-consistency, onset k
    at association thetas[k]; returns one curve per onset.

    The fixed-point map has three parts: the at-risk average, a joint-survival
    ratio for onsets censored by independent censoring, and a conditional
    (given death) ratio for onsets censored by the terminal event.  Iteration
    starts from the Kaplan-Meier curve that ignores informativeness and each
    sweep is projected onto monotone [0, 1]; an onset stops once a sweep
    moves it by less than SC_TOL (sup norm), or after SC_MAX_SWEEPS sweeps.
    A censored subject's ratio enters only the grid rows at or after its own
    onset time, and each row adds the at-risk count and then those ratios in
    subject order: the "h" kind, then the "h2" kind, each in data order.
    Onsets are swept together in stacks of at most `_cells.CELLS` entries.
    If `info` is a dict it receives per onset the sweeps (`iterations`) and
    whether it converged (`converged`).
    """
    if len(thetas) != data.k:
        raise ValueError(f"need one theta per onset ({data.k}), got {len(thetas)}")
    onsets = [_Onset(data, k, s_d, thetas[k], family) for k in range(data.k)]
    curves, sweeps, converged = [None] * data.k, [0] * data.k, [False] * data.k
    for stack in _cells.chunks([o.cells for o in onsets]):
        s, its, conv = _sweep_stack(onsets[stack], family, data.n)
        for i, k in enumerate(range(data.k)[stack]):
            grid = onsets[k].grid
            curves[k] = StepSurvival(grid, s[i, : grid.size].copy(), t_max=data.t_max)
            sweeps[k], converged[k] = int(its[i]), bool(conv[i])
    for k in range(data.k):
        if not converged[k]:
            warnings.warn(
                f"self-consistency for onset {k + 1} stopped after {SC_MAX_SWEEPS} sweeps",
                RuntimeWarning,
            )
    if info is not None:
        info["iterations"], info["converged"] = sweeps, converged
    return curves
