"""Dynamic survival prediction from a fitted joint model.

Given a subject's exactly observed onset times and survival past their
maximum (the landmark), the conditional overall-survival curve follows from
the fitted copulas: a Kaplan-Meier ratio with no history, a copula partial
ratio with one onset, and for two or more onsets a ratio of Stieltjes
integrals of the joint onset density against the terminal curve.  Landmark
baselines that use less of the history are provided for comparison, along
with restricted-mean and quantile summaries of the predicted curves.

`predict_curves` predicts every requested method for one history on one
grid, one row per method.  `predict_batch` predicts many histories in
chunks of whole subjects: the terminal atoms past every landmark of a chunk
are the cells of one density array, whose onset partials come from one
copula call, and the single-onset rows of a chunk one copula call per onset.  Both assemble their rows with the same code, so a history's rows
are the same either way.  Each summary reduces all the curves of a
prediction at once: one entry per method row, or per (subject, method) row
of a batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .copulas import U_FLOOR, _partials_cells
from .errors import ArchsurvError, ConfigError, DomainError, NotIdentified
from .likelihood import FittedJointModel, cell_log_terms

DEFAULT_EXTRA_GRID = 200
_FILLER_STEPS = np.arange(1.0, DEFAULT_EXTRA_GRID + 1)
COARSE_GRID_FRACTION = 0.1
INTERVAL_LEVELS = (0.025, 0.975)  # quantile levels of the prediction interval
# a batch chunk holds whole subjects while its curves (subjects x methods x
# longest grid) and density cells (cells x onsets) stay within this count:
# 512 kB per float array; the chunk's temporaries are a few times that
CHUNK_CELLS = 2**16


@dataclass(frozen=True)
class PredictionQuery:
    """Observed onset history: (event index, time) pairs, distinct indices.

    The landmark is the largest observed onset time (0 with no history);
    predictions condition on survival past it.
    """

    events: tuple = ()

    def __post_init__(self):
        # canonical (sorted) order makes predictions exactly invariant to
        # how the caller enumerates the history
        ev = tuple(sorted((int(k), float(t)) for k, t in self.events))
        object.__setattr__(self, "events", ev)
        ks = [k for k, _ in ev]
        if len(set(ks)) != len(ks):
            raise DomainError("duplicate event indices in query")
        if not all(0.0 <= t < np.inf for _, t in ev):
            raise DomainError("onset times must be finite and non-negative")

    @property
    def m(self) -> int:
        return len(self.events)

    @cached_property
    def landmark(self) -> float:
        return max((t for _, t in self.events), default=0.0)


@dataclass
class SurvivalPrediction:
    """Predicted conditional survival on a grid past the landmark: one curve
    per method of one history (2-d values, one row per entry of the tuple
    `method`), or a batch of histories (3-d values, subjects x methods x
    grid).  A batch has one grid per subject (the rows of 2-d times, padded
    with +inf), one landmark per subject, and one tuple of methods per
    subject; a subject's curves repeat their last value past its grid, and
    its last method row past its methods."""

    times: np.ndarray
    values: np.ndarray
    method: tuple
    landmark: float | np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    def at(self, t):
        """Right-continuous evaluation; 1 at/before the landmark.  One set of
        times (scalar or 1-d) for every curve: methods x times, or subjects
        x methods x times for a batch."""
        t = np.asarray(t, dtype=float)
        times, values, _ = _as_batch(self)
        return _lookup(times, values, t.ravel()).reshape(self.values.shape[:-1] + t.shape)

    def subject(self, i: int) -> "SurvivalPrediction":
        """Subject i of a batch: its own methods on its own grid."""
        size = int(np.isfinite(self.times[i]).sum())
        methods = self.method[i]
        return SurvivalPrediction(
            self.times[i, :size], self.values[i, : len(methods), :size],
            methods, float(self.landmark[i]),
        )


def _lookup(times, values, t):
    """Right-continuous values (subjects x methods x t.size) of curves with
    one grid per subject (`times`, sorted rows) at the 1-d times `t`."""
    order = np.argsort(t, kind="stable")
    # a grid time is at or below the j-th smallest t from j = its insertion
    # point among the sorted t onwards: count them per subject and t
    first = np.searchsorted(t[order], times, side="left")
    width = t.size + 1
    bins = first + width * np.arange(times.shape[0])[:, None]
    counts = np.bincount(bins.ravel(), minlength=width * times.shape[0])
    count = np.empty((times.shape[0], t.size), dtype=int)
    count[:, order] = counts.reshape(-1, width).cumsum(axis=1)[:, :-1]
    count = count[:, None, :]
    out = np.take_along_axis(values, np.maximum(count - 1, 0), axis=-1)
    return np.where(count > 0, out, 1.0)


def _default_grid(atoms, landmark: float, t_max: float) -> np.ndarray:
    """Atoms of the completed terminal curve past the landmark, plus equally
    spaced filler points that stabilize quantile inversion."""
    if landmark >= t_max:
        raise NotIdentified(
            f"landmark {landmark:.6g} is at or beyond follow-up {t_max:.6g}"
        )
    lo, hi = np.searchsorted(atoms, (landmark, t_max), side="right")
    # np.linspace(landmark, t_max, DEFAULT_EXTRA_GRID + 1)[1:], the same bits
    filler = _FILLER_STEPS * ((t_max - landmark) / DEFAULT_EXTRA_GRID) + landmark
    filler[-1] = t_max
    grid = np.concatenate([atoms[lo:hi], filler])
    grid.sort(kind="stable")  # merges the two sorted runs
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _checked_times(times):
    """Supplied evaluation times, or None.  cmst, cqst and the intervals
    read a grid in order."""
    if times is not None:
        times = np.asarray(times, dtype=float)
        if not (times.ndim == 1 and np.isfinite(times).all() and (times[1:] > times[:-1]).all()):
            raise DomainError("evaluation times must be a finite, strictly increasing sequence")
    return times


def _grid(model, landmark, times):
    """A history's evaluation times: checked `times`, or the default grid."""
    if times is None:  # increasing by construction
        return _default_grid(model.terminal_measure[0], landmark, model.t_max)
    if times.size == 0:
        raise DomainError("no evaluation time past the landmark")
    if np.any(times <= landmark):
        raise DomainError("evaluation times must exceed the landmark")
    return times


def _joint_log_density(model, v, ks, cells, uc):
    """log of the history density factor (see `q_joint_density`) of every
    cell, a candidate death time where S_D = v; -inf where it vanishes.
    `ks` lists the onsets some cell observes, in order.  `cells` holds the
    cells that observe each (index arrays), and `uc` the u_k = S_k(t_k) of
    every (onset, cell) entry, onset by onset; or `cells` is None, every
    cell observes every onset, and `uc` holds one u_k per onset.  u_k is
    clamped as a copula argument.  One copula call gives every entry's
    (G, H12), with one theta per onset.  An onset a cell does not observe
    has G = 1, where the generator vanishes, and leaves the cell's weight
    alone."""
    m, vc = len(ks), v.clip(U_FLOOR, 1.0 - U_FLOOR)
    th = np.array([model.thetas[k].theta_hat for k in ks])
    if cells is None:  # onsets x cells
        th, uc = th[:, None], uc[:, None]
    else:
        sizes = [c.size for c in cells]
        th, vc = np.repeat(th, sizes), vc[np.concatenate(cells)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h2, h12 = _partials_cells(model.family, th, uc, vc)
        log_h12 = np.log(h12)
    log_w = np.zeros(v.size)  # the log H12 of a cell's onsets, added in onset order
    if cells is None:
        g = h2
        obs = np.ones(g.shape, dtype=bool)
        for row in log_h12:
            log_w += row
    else:
        g = np.ones((m, v.size))
        obs = np.zeros(g.shape, dtype=bool)
        ends = np.cumsum(sizes).tolist()
        for j, (c, lo, hi) in enumerate(zip(cells, [0] + ends, ends)):
            g[j, c] = h2[lo:hi]
            obs[j, c] = True
            log_w[c] += log_h12[lo:hi]
    # a cell with a vanishing density factor has zero density, as for the
    # likelihood's records
    keep = np.isfinite(log_w)
    obs = obs[:, keep]
    if cells is None:  # one group: every cell observes every onset
        groups = [(m, slice(None))]
    else:
        d = obs.sum(axis=0)
        groups = [(j, np.flatnonzero(d == j)) for j in np.flatnonzero(np.bincount(d))]
    out = np.full(v.size, -np.inf)
    out[keep] = cell_log_terms(model.copula_alpha(), g[:, keep], obs, log_w[keep], groups)
    return out


def _survival_at(curve, t):
    """curve(t) at one time t: the value after the last jump at or before
    t, 1 before the first."""
    i = curve.times.searchsorted(t, side="right")
    return float(curve.values[i - 1]) if i else 1.0


def q_joint_density(query: PredictionQuery, t, model: FittedJointModel, log=False):
    """Joint density of the observed onsets given death at each candidate
    time t, up to the factor prod_k(-S_k'(t_k)), which is free of t:

        |psi^(m)(sum phi(G_k))| * prod(-phi'(G_k)) * H12_k,

    with (G_k, H12_k) at (S_k(t_k), S_D(t)).  Each t is one cell of the
    likelihood's kernel (`cell_log_terms`), with S_D taken as for the
    likelihood's terminal atoms.  Non-negative; defined for t above the
    landmark.  With `log`, its log (-inf where it vanishes), finite where
    the density itself may overflow or underflow.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= query.landmark):
        raise DomainError("candidate death times must exceed the landmark")
    if query.m == 0:
        raise DomainError("joint density factor needs at least one onset")
    v = np.atleast_1d(model.completed_terminal.mid_value(t))
    uc = [
        min(max(_survival_at(model.marginals[k], t_k), U_FLOOR), 1.0 - U_FLOOR)
        for k, t_k in query.events
    ]
    out = _joint_log_density(model, v, [k for k, _ in query.events], None, np.array(uc))
    if not log:
        out = np.exp(out)
    return out if t.ndim else float(out[0])


def _density_of_one(model, queries, start):
    """The log joint density of one history (`q_joint_density`) at the
    terminal atoms past its landmark (index `start` on), -inf before:
    1 x atoms."""
    (query,), (first,) = queries, start
    atoms = model.terminal_measure[0]
    out = np.full((1, atoms.size), -np.inf)
    if first < atoms.size:
        out[0, first:] = q_joint_density(query, atoms[first:], model, log=True)
    return out


def _density_of_many(model, queries, start):
    """`_density_of_one` for many histories at once: the atoms past every
    landmark are the cells of one array.  histories x atoms."""
    atoms, _, mids = model.terminal_measure
    n_past = atoms.size - np.asarray(start)
    row = np.repeat(np.arange(len(queries)), n_past)
    atom = np.arange(row.size) + np.repeat(start - np.cumsum(n_past) + n_past, n_past)
    t_onset = np.full((len(queries), model.k), np.nan)
    for i, q in enumerate(queries):
        for k, t_k in q.events:
            t_onset[i, k] = t_k
    ks, cells, u = [], [], []
    for k in range(model.k):
        observing = np.flatnonzero(~np.isnan(t_onset[row, k]))
        if observing.size:
            ks.append(k)
            cells.append(observing)
            u.append(model.marginals[k](t_onset[row[observing], k]))
    out = np.full((len(queries), atoms.size), -np.inf)
    if ks:  # some history has an atom past its landmark
        uc = np.concatenate(u).clip(U_FLOOR, 1.0 - U_FLOOR)
        out[row, atom] = _joint_log_density(model, mids[atom], ks, cells, uc)
    return out


def _row_sums(x, start, stop):
    """x[i, ..., start[i]:stop[i]].sum(axis=-1) for every row i.  numpy's
    pairwise summation rounds by the length of the slice it adds, so the
    rows of one (start, stop) are summed together, each as it is alone."""
    if len(x) == 1:
        return x[:, ..., start[0]:stop[0]].sum(axis=-1)
    out = np.empty(x.shape[:-1])
    width = x.shape[-1] + 1
    key = np.asarray(start) * width + stop
    for k in set(key.tolist()):
        rows = np.flatnonzero(key == k)
        a, b = divmod(k, width)
        out[rows] = x[rows, ..., a:b].sum(axis=-1)
    return out


def _tail_rows(model, log_density, start, times, landmarks):
    """DP rows for two or more onsets: the terminal mass past each time,
    weighted by the history's joint density, over the mass past the
    landmark.  `log_density` (histories x atoms) is -inf up to each landmark
    (atom index below `start`).  A row whose densities overflow or underflow
    as a whole is scaled by its largest density first; the ratio does not
    depend on that scale.  Returns (rows, {history: exception})."""
    atoms, masses, _ = model.terminal_measure
    # (a history with a density of +inf past its landmark gives inf / inf;
    # it is reported below, and its row is not returned)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(log_density)
        weights *= masses
        end = np.full(len(start), atoms.size)
        den = _row_sums(weights, start, end)
        scaled = [
            i for i, (first, total) in enumerate(zip(start.tolist(), den.tolist()))
            if first < atoms.size and not 0.0 < total < np.inf
        ]
        if scaled:
            top = log_density[scaled].max(axis=1)
            finite = np.isfinite(top)
            scaled, top = np.array(scaled)[finite], top[finite]
            weights[scaled] = np.exp(log_density[scaled] - top[:, None]) * masses
            den[scaled] = _row_sums(weights[scaled], start[scaled], end[scaled])
        # the mass past each atom, summed from the last atom down
        tail = np.zeros(weights.shape)
        tail[:, :-1] = np.cumsum(weights[:, :0:-1], axis=1)[:, ::-1]
        ratio = tail / np.where(den > 0, den, np.nan)[:, None]
    idx = np.searchsorted(atoms, times, side="right") - 1
    rows = ratio[np.arange(len(start))[:, None], np.maximum(idx, 0)]
    rows[idx < start[:, None]] = 1.0
    errors = {}
    for i, (first, total) in enumerate(zip(start.tolist(), den.tolist())):
        if first == atoms.size:
            errors[i] = NotIdentified(f"no terminal mass beyond landmark {landmarks[i]:.6g}")
        elif not total > 0:
            errors[i] = NotIdentified("denominator integral vanished")
        elif total == np.inf:
            # a density of +inf past the landmark: a row whose largest
            # density is finite was scaled, so no NaN curve is returned
            errors[i] = NotIdentified("history density not finite past the landmark")
    return rows.clip(0.0, 1.0, out=rows), errors


def _parse_method(method):
    """(base, 0-based onset index or None) of DP | P0 | Pk:K | Pkm:K."""
    if method in ("DP", "P0"):
        return method, None
    base, _, knum = method.partition(":")
    if base in ("Pk", "Pkm") and knum.isdecimal():
        return base, int(knum) - 1
    raise ConfigError(f"unknown prediction method {method!r}")


def _method_keys(query, methods):
    """The row each method reads: "P0", "DP" (two or more onsets), or
    (onset, its time, anchor).  DP is P0 with no onset and Pk with one."""
    observed = dict(query.events)
    keys = []
    for method in methods:
        base, k = _parse_method(method)
        if base == "DP" and query.m < 2:
            base, k = ("Pk", query.events[0][0]) if query.m else ("P0", None)
        if k is not None and k not in observed:
            raise DomainError(f"onset {k + 1} not observed in the query")
        if k is None:
            keys.append(base)
        else:
            anchor = query.landmark if base == "Pkm" else observed[k]
            keys.append((k, observed[k], anchor))
    return keys


def _curves(model, queries, keys, times, log_density):
    """Every history's method rows on its grid (a row of `times`), and
    {history: exception} for those that are not identified, with the
    exception of each one's first failing method.  `keys` holds each
    history's method keys; a shorter list repeats its last key.
    `log_density` gives the log joint density rows of the histories with a
    DP key."""
    n_methods = max(map(len, keys))
    values = np.empty((len(keys), n_methods, times.shape[1]))
    landmarks = np.array([q.landmark for q in queries])
    p0, dp, single = [], {}, {}  # (history, method) per kind of row
    for i, row in enumerate(keys):
        for j, key in enumerate(row + row[-1:] * (n_methods - len(row))):
            if key == "P0":
                p0.append((i, j))
            elif key == "DP":
                dp.setdefault(i, []).append(j)
            else:
                single.setdefault(key[0], {}).setdefault(i, []).append((j, *key[1:]))
    errors = {}

    def fail(i, j, exc):
        if i not in errors or j < errors[i][0]:
            errors[i] = (j, exc)

    s = model.completed_terminal
    if p0 or single:
        s_times = np.asarray(s(times))
    if p0:  # the terminal ratio S_D(t) / S_D(landmark)
        den = np.asarray(s(landmarks))
        who, cols = np.array(p0).T
        values[who, cols] = (s_times / np.where(den > 0, den, np.nan)[:, None])[who]
        totals = den.tolist()
        for i, j in p0:
            if not totals[i] > 0:
                fail(i, j, NotIdentified(f"no terminal mass beyond {landmarks[i]:.6g}"))
    if dp:
        who = np.array(list(dp))
        start = np.searchsorted(model.terminal_measure[0], landmarks[who], side="right")
        rows, failed = _tail_rows(
            model, log_density(model, [queries[i] for i in who], start), start,
            times[who], landmarks[who],
        )
        for r, i in enumerate(who):
            values[i, dp[i]] = rows[r]
            if r in failed:
                fail(i, dp[i][0], failed[r])
    for k, by_history in single.items():
        # H1(u, S(t)) / H1(u, S(anchor)) with u = S_k(onset), H1(u, v) = h2(v, u)
        who = list(by_history)
        u = np.asarray(model.marginals[k]([by_history[i][0][1] for i in who]))
        entries = [(r, i, j, anchor) for r, i in enumerate(who) for j, _, anchor in by_history[i]]
        at, rows, cols, anchors = map(np.array, zip(*entries))
        cop = model.copula_for(k)
        numerators = cop.h2(s_times[who], u[:, None])
        den = cop.h2(np.asarray(s(anchors)), u[at])
        ratio = numerators[at]
        ratio /= np.where(den > 0, den, np.nan)[:, None]
        values[rows, cols] = np.clip(ratio, 0.0, 1.0, out=ratio)
        for (_, i, j, anchor), total in zip(entries, den.tolist()):
            if not total > 0:
                fail(i, j, NotIdentified(f"single-event denominator vanishes at {anchor:.6g}"))
    return values, {i: exc for i, (_, exc) in errors.items()}


def predict_curves(
    query: PredictionQuery, model: FittedJointModel, methods=("DP",), times=None
) -> SurvivalPrediction:
    """Every requested method's curve for one history, on one grid.

    `methods` follows the grammar DP | P0 | Pk:K | Pkm:K, K the 1-based
    onset index.  DP uses the full history; P0 none of it (the terminal
    ratio S_D(t)/S_D(landmark)); Pk onset K anchored at its own time; Pkm
    onset K anchored at the landmark.  The curves are the rows of the
    result, on `times` (strictly increasing, past the landmark) or on the
    default grid.  Methods that coincide give equal rows: DP is P0 with no
    onset and Pk with one, and the Pk and Pkm of one onset share their
    numerator.
    """
    keys = _method_keys(query, methods)
    times = _grid(model, query.landmark, _checked_times(times))
    values, errors = _curves(model, [query], [keys], times[None], _density_of_one)
    if errors:
        # a caller that keeps the exception keeps this frame through its
        # traceback: let the frame hold no array, nor the exception itself
        del times, values
        raise errors.pop(0)
    return SurvivalPrediction(times, values[0], tuple(methods), query.landmark)


def predict_batch(queries, model: FittedJointModel, methods=("DP",), times=None):
    """Every history's curves, as `predict_curves` gives them, in chunks of
    whole subjects (at most about CHUNK_CELLS cells each).

    `methods` is one sequence of method names for every query, or one
    sequence per query.  `times`, if given, is one strictly increasing grid;
    each history is evaluated on its part past the landmark.  Otherwise
    each history has its default grid.

    Yields (index, prediction, failures) per chunk: the positions in
    `queries` of the histories that predicted, their prediction with
    leading (subjects, methods) axes (None if there is none), and the
    exception of each history of the chunk that raised, by position.
    """
    queries = list(queries)
    if not queries:
        return
    shared = isinstance(methods[0], str) if len(methods) else True
    times = _checked_times(times)
    atoms = model.terminal_measure[0]
    chunk, failures = [], {}
    longest = n_methods = cells = 0
    for pos, query in enumerate(queries):
        mine = tuple(methods) if shared else tuple(methods[pos])
        lm = query.landmark
        try:
            keys = _method_keys(query, mine)
            grid = _grid(model, lm, None if times is None else times[times > lm])
        except ArchsurvError as exc:
            failures[pos] = exc
            continue
        past = atoms.size - np.searchsorted(atoms, lm, side="right") if "DP" in keys else 0
        wide, many = max(longest, grid.size), max(n_methods, len(keys))
        more = cells + past * model.k
        if chunk and (len(chunk) + 1) * wide * many + more > CHUNK_CELLS:
            yield _finish(model, chunk, failures)
            chunk, failures = [], {}
            wide, many, more = grid.size, len(keys), past * model.k
        chunk.append((pos, query, mine, keys, grid))
        longest, n_methods, cells = wide, many, more
    if chunk or failures:
        yield _finish(model, chunk, failures)


def _finish(model, chunk, failures):
    """One chunk of `predict_batch`: its curves, then its yielded triple."""
    if not chunk:
        return np.array([], dtype=int), None, failures
    positions, queries, methods, keys, grids = zip(*chunk)
    sizes = np.array([g.size for g in grids])
    inside = np.arange(sizes.max()) < sizes[:, None]
    times = np.empty(inside.shape)
    times[inside] = np.concatenate(grids)
    # the curves past a grid's end are its last value: evaluate them there
    last = times[np.arange(sizes.size), sizes - 1]
    times = np.where(inside, times, last[:, None])
    values, errors = _curves(model, queries, list(keys), times, _density_of_many)
    for i, exc in errors.items():
        failures[positions[i]] = exc
    ok = np.array([i for i in range(sizes.size) if i not in errors], dtype=int)
    if not ok.size:
        return ok, None, failures
    if errors:
        values, times, inside = values[ok], times[ok], inside[ok]
    pred = SurvivalPrediction(
        np.where(inside, times, np.inf), values,
        tuple(methods[i] for i in ok), np.array([q.landmark for q in queries])[ok],
    )
    return np.array(positions)[ok], pred, failures


# predict_survival_dp and predict_baseline stay only because the benchmark
# in perfbench/ calls them and its tracer wraps them


def predict_survival_dp(
    query: PredictionQuery, model: FittedJointModel, times=None
) -> SurvivalPrediction:
    """Dynamic prediction using the full observed history: `predict_curves`
    with the one method DP."""
    return predict_curves(query, model, ("DP",), times)


def predict_baseline(
    query: PredictionQuery, model: FittedJointModel, method: str, k: int = None, times=None
) -> SurvivalPrediction:
    """Landmark baseline P0, or Pk / Pkm of onset k (0-based): `predict_curves`
    with the one method P0, Pk:K or Pkm:K (K = k + 1)."""
    name = method if k is None else f"{method}:{k + 1}"
    return predict_curves(query, model, (name,), times)


def _as_batch(pred):
    """(times, values, landmarks) of any prediction with leading subject and
    method axes: subjects x grid, subjects x methods x grid, subjects."""
    times = np.atleast_2d(pred.times)
    values = pred.values.reshape(times.shape[:1] + (-1,) + times.shape[1:])
    landmarks = np.broadcast_to(np.asarray(pred.landmark, dtype=float), times.shape[:1])
    return times, values, landmarks


def _per_curve(pred, rows):
    """rows (subjects x methods) shaped as the prediction's curves: as they
    are for a batch, one per method for one history."""
    return rows if pred.values.ndim == 3 else rows[0]


def cmst(pred: SurvivalPrediction, t_u_star: float):
    """Conditional restricted mean survival time: landmark plus the
    trapezoid integral of the predicted curve up to the restriction time."""
    times, values, lm = _as_batch(pred)
    if np.any(t_u_star < lm):
        raise DomainError("restriction time must not precede the landmark")
    # a subject integrates over [lm, its grid times in (lm, t*), t*]; its
    # times clipped to [lm, t*] add zero-width steps before and after them
    below = np.count_nonzero(times <= lm[:, None], axis=1)
    inside = np.count_nonzero((times > lm[:, None]) & (times < t_u_star), axis=1)
    ts = np.concatenate(
        [lm[:, None], np.clip(times, lm[:, None], t_u_star), np.full_like(lm, t_u_star)[:, None]],
        axis=1,
    )
    vs = np.empty(values.shape[:2] + ts.shape[1:])
    vs[..., 0] = 1.0
    vs[..., -1:] = _lookup(times, values, np.array([t_u_star]))
    vs[..., 1:-1] = values
    np.copyto(vs[..., 1:-1], vs[..., -1:], where=times[:, None, :] >= t_u_star)
    np.copyto(vs[..., 1:-1], 1.0, where=times[:, None, :] <= lm[:, None, None])
    d = np.diff(ts, axis=1)
    gap = d.max(axis=1)
    for i in np.flatnonzero(
        (inside > 0) & (gap > COARSE_GRID_FRACTION * np.maximum(t_u_star - lm, 1e-300))
    ):
        warnings.warn(
            f"prediction grid spacing {gap[i]:.3g} is coarse for the "
            f"restriction window [{lm[i]:.3g}, {t_u_star:.3g}]"
        )
    # one subject's steps in order, as np.trapezoid takes them:
    # d * (v[1:] + v[:-1]) / 2
    steps = vs[..., 1:] + vs[..., :-1]
    steps *= d[:, None, :]
    steps /= 2.0
    return _per_curve(pred, lm[:, None] + _row_sums(steps, below, below + inside + 1))


def _quantile_times(pred, level):
    """First grid time at which each curve falls to 1 - level; NaN where the
    curve ends at or above that value (so the quantile lies past the grid).
    subjects x methods."""
    times, v, _ = _as_batch(pred)
    s_end = v[..., -1]
    hit = v <= 1.0 - level
    reached = hit.any(axis=-1) & ~((level >= 1.0 - s_end) & (s_end > 0.0))
    return np.where(reached, np.take_along_axis(times, hit.argmax(axis=-1), axis=1), np.nan)


def cqst(pred: SurvivalPrediction, tau_level: float):
    """Conditional quantile survival time: first grid time where each curve
    falls to 1 - tau_level, NaN where that lies beyond the curve's reach."""
    if not 0.0 < tau_level < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    return _per_curve(pred, _quantile_times(pred, tau_level))


@dataclass(frozen=True)
class PredictionInterval:
    """Bounds of one interval, or arrays of bounds with one entry per curve."""

    lo: float
    hi: float
    hi_censored: bool = False

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def covers(self, value):
        return (self.lo <= value) & (value <= self.hi)


def prediction_interval(pred: SurvivalPrediction, t_u_star: float = None):
    """Central 95% interval from the quantile survival times.

    When the upper level is out of reach the bound is right-censored at the
    restriction time (by default each grid's last time) and flagged.  The
    interval holds one entry per curve; a lower level out of reach on any
    curve raises NotIdentified.
    """
    lo_level, hi_level = INTERVAL_LEVELS
    lo = _quantile_times(pred, lo_level)
    if np.isnan(lo).any():
        raise NotIdentified(f"quantile {lo_level} not reached")
    if t_u_star is None:
        times = _as_batch(pred)[0]
        t_u_star = np.max(times, axis=1, where=np.isfinite(times), initial=-np.inf)[:, None]
    hi = _quantile_times(pred, hi_level)
    censored = np.isnan(hi)
    hi = np.where(censored, t_u_star, hi)
    return PredictionInterval(*(_per_curve(pred, x) for x in (lo, hi, censored)))
