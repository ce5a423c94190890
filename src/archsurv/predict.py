"""Dynamic survival prediction from a fitted joint model.

Given a subject's exactly observed onset times and survival past their
maximum (the landmark), the conditional overall-survival curve follows from
the fitted copulas: a Kaplan-Meier ratio with no history, a copula partial
ratio with one onset, and for two or more onsets a ratio of Stieltjes
integrals of the joint onset density against the terminal curve.  Landmark
baselines that use less of the history are provided for comparison, along
with restricted-mean and quantile summaries of the predicted curve.  One
call predicts every requested method for a history on one grid, and each
summary reduces all of its curves at once.
"""

from __future__ import annotations

import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NotIdentified
from .likelihood import FittedJointModel, cell_log_terms, onset_partials
from .survival import step_lookup

DEFAULT_EXTRA_GRID = 200
COARSE_GRID_FRACTION = 0.1
INTERVAL_LEVELS = (0.025, 0.975)  # quantile levels of the prediction interval


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
        if any(t < 0 for _, t in ev):
            raise DomainError("onset times must be non-negative")

    @property
    def m(self) -> int:
        return len(self.events)

    @property
    def landmark(self) -> float:
        return max((t for _, t in self.events), default=0.0)


@dataclass
class SurvivalPrediction:
    """Predicted conditional survival on a grid past the landmark: one curve
    (1-d values, one method) or one curve per method (2-d values, one row
    per entry of a tuple of methods)."""

    times: np.ndarray
    values: np.ndarray
    method: str | tuple
    landmark: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    def at(self, t):
        """Right-continuous evaluation; 1 at/before the landmark."""
        return step_lookup(self.times, self.values, t)


def _default_grid(atoms, landmark: float, t_max: float) -> np.ndarray:
    """Atoms of the completed terminal curve past the landmark, plus equally
    spaced filler points that stabilize quantile inversion."""
    if landmark >= t_max:
        raise NotIdentified(
            f"landmark {landmark:.6g} is at or beyond follow-up {t_max:.6g}"
        )
    atoms = atoms[(atoms > landmark) & (atoms <= t_max)]
    filler = np.linspace(landmark, t_max, DEFAULT_EXTRA_GRID + 1)[1:]
    return np.unique(np.concatenate([atoms, filler]))


def q_joint_density(query: PredictionQuery, t, model: FittedJointModel):
    """Joint density of the observed onsets given death at each candidate
    time t, up to the factor prod_k(-S_k'(t_k)), which is free of t:

        |psi^(m)(sum phi(G_k))| * prod(-phi'(G_k)) * H12_k,

    with (G_k, H12_k) at (S_k(t_k), S_D(t)).  Each t is one cell of the
    likelihood's kernel (`cell_log_terms`), with S_D taken as for the
    likelihood's terminal atoms.  Non-negative; defined for t above the
    landmark.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= query.landmark):
        raise DomainError("candidate death times must exceed the landmark")
    if query.m == 0:
        raise DomainError("joint density factor needs at least one onset")
    v = np.atleast_1d(model.terminal.completed().mid_value(t))
    g = np.empty((v.size, query.m))
    log_w = np.zeros(v.size)
    with np.errstate(divide="ignore"):
        for j, (k, t_k) in enumerate(query.events):
            cop_k = model.copula_for(k)
            g[:, j], h12 = onset_partials(model.marginals[k], cop_k, t_k, v)
            log_w += np.log(h12)
    # a cell with a vanishing density factor has zero density, as for the
    # likelihood's records
    keep = np.flatnonzero(np.isfinite(log_w))
    out = np.zeros(v.size)
    out[keep] = np.exp(
        cell_log_terms(
            model.copula_alpha(), g[keep], np.ones((keep.size, query.m), bool),
            log_w[keep], [(query.m, slice(None))],
        )
    )
    return out if t.ndim else float(out[0])


def _parse_method(method):
    """(base, 0-based onset index or None) of DP | P0 | Pk:K | Pkm:K."""
    if method in ("DP", "P0"):
        return method, None
    base, _, knum = method.partition(":")
    if base in ("Pk", "Pkm") and knum.isdecimal():
        return base, int(knum) - 1
    raise ConfigError(f"unknown prediction method {method!r}")


def predict_curves(
    query: PredictionQuery, model: FittedJointModel, methods=("DP",), times=None
) -> SurvivalPrediction:
    """Every requested method's curve for one history, on one grid.

    `methods` follows the grammar DP | P0 | Pk:K | Pkm:K, K the 1-based
    onset index.  DP uses the full history; P0 none of it (the terminal
    ratio S_D(t)/S_D(landmark)); Pk onset K anchored at its own time; Pkm
    onset K anchored at the landmark.  The curves are the rows of the
    result, on `times` or on the default grid.  Methods that coincide share
    a row: DP is P0 with no onset and Pk with one, and the Pk and Pkm of
    one onset share their numerator.
    """
    lm = query.landmark
    observed = dict(query.events)
    keys = []  # "P0", "DP" or (onset, anchor), one per method
    for method in methods:
        base, k = _parse_method(method)
        if base == "DP" and query.m < 2:
            base, k = ("Pk", query.events[0][0]) if query.m else ("P0", None)
        if k is not None and k not in observed:
            raise DomainError(f"event {k} not observed in the query")
        keys.append(base if k is None else (k, lm if base == "Pkm" else observed[k]))

    atoms, masses = model.terminal.atoms(complete_tail=True)
    if times is None:
        times = _default_grid(atoms, lm, model.t_max)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise DomainError("no evaluation time past the landmark")
    if np.any(times <= lm):
        raise DomainError("evaluation times must exceed the landmark")
    if set(keys) != {"DP"}:  # the other rows are ratios of the completed curve
        s = model.terminal.completed()
        s_times = np.asarray(s(times))
    rows, numerators = {}, {}
    for key in keys:
        if key in rows:
            continue
        if key == "P0":
            den = float(s(lm))
            if den <= 0:
                raise NotIdentified(f"no terminal mass beyond {lm:.6g}")
            rows[key] = s_times / den
        elif key == "DP":
            # the terminal mass past each time, weighted by the history's
            # joint density, over the mass past the landmark
            past = atoms > lm
            if not np.any(past):
                raise NotIdentified(f"no terminal mass beyond landmark {lm:.6g}")
            weights = q_joint_density(query, atoms[past], model) * masses[past]
            den = float(weights.sum())
            if not den > 0:
                raise NotIdentified("denominator integral vanished")
            tail = np.concatenate([np.cumsum(weights[::-1])[::-1][1:], [0.0]])
            rows[key] = np.clip(step_lookup(atoms[past], tail / den, times), 0.0, 1.0)
        else:
            k, anchor = key
            cop = model.copula_for(k)
            u = float(model.marginals[k](observed[k]))
            if k not in numerators:
                numerators[k], _, _ = cop.partials(np.full(times.size, u), s_times)
            den, _, _ = cop.partials(u, float(s(anchor)))
            if den <= 0:
                raise NotIdentified(
                    f"single-event denominator vanishes at {anchor:.6g}"
                )
            rows[key] = np.clip(numerators[k] / den, 0.0, 1.0)
    return SurvivalPrediction(
        times, np.array([rows[key] for key in keys]), tuple(methods), lm
    )


def _one_curve(query, model, method, times):
    try:
        pred = predict_curves(query, model, (method,), times)
    except NotIdentified as exc:
        # a caller that keeps the exception keeps the raising frames through
        # its traceback; clear them so they hold no grid or per-atom arrays
        traceback.clear_frames(exc.__traceback__)
        raise
    return SurvivalPrediction(pred.times, pred.values[0], method, pred.landmark)


def predict_survival_dp(
    query: PredictionQuery, model: FittedJointModel, times=None
) -> SurvivalPrediction:
    """Dynamic prediction using the full observed history."""
    return _one_curve(query, model, "DP", times)


def predict_baseline(
    query: PredictionQuery,
    model: FittedJointModel,
    method: str,
    k: int = None,
    times=None,
) -> SurvivalPrediction:
    """Landmark baselines: P0 (terminal KM ratio), Pk (single onset anchored
    at its own time), Pkm (single onset anchored at the landmark); the onset
    k (0-based) defaults to the earliest observed one."""
    if method in ("Pk", "Pkm"):
        if k is None:
            if not query.events:
                raise DomainError("baseline with an onset needs an observed event")
            k = min(query.events, key=lambda ev: ev[1])[0]
        method = f"{method}:{k + 1}"
    elif method != "P0":
        raise DomainError(f"unknown baseline method {method!r}")
    return _one_curve(query, model, method, times)


def _per_curve(pred, rows):
    """One entry per curve of the prediction, or a float for a single curve."""
    return rows if pred.values.ndim == 2 else float(rows[0])


def cmst(pred: SurvivalPrediction, t_u_star: float):
    """Conditional restricted mean survival time: landmark plus the
    trapezoid integral of the predicted curve up to the restriction time."""
    lm = pred.landmark
    if t_u_star < lm:
        raise DomainError("restriction time must not precede the landmark")
    grid = pred.times[(pred.times > lm) & (pred.times < t_u_star)]
    ts = np.concatenate([[lm], grid, [t_u_star]])
    if ts.size > 2:
        gap = np.diff(ts).max()
        if gap > COARSE_GRID_FRACTION * max(t_u_star - lm, 1e-300):
            warnings.warn(
                f"prediction grid spacing {gap:.3g} is coarse for the "
                f"restriction window [{lm:.3g}, {t_u_star:.3g}]"
            )
    # one C-ordered row per curve: numpy sums each row as it sums one curve
    vs = np.ones((np.atleast_2d(pred.values).shape[0], ts.size))
    vs[:, 1:] = pred.at(ts[1:])
    return _per_curve(pred, lm + np.trapezoid(vs, ts, axis=1))


def _quantile_times(pred, level):
    """First grid time at which each curve falls to 1 - level; NaN where the
    curve ends at or above that value (so the quantile lies past the grid)."""
    v = np.atleast_2d(pred.values)
    s_end = v[:, -1]
    hit = v <= 1.0 - level
    reached = hit.any(axis=1) & ~((level >= 1.0 - s_end) & (s_end > 0.0))
    return np.where(reached, pred.times[hit.argmax(axis=1)], np.nan)


def cqst(pred: SurvivalPrediction, tau_level: float):
    """Conditional quantile survival time: first grid time where the curve
    falls to 1 - tau_level.  For a single curve, raises NotIdentified beyond
    the curve's reach; for several, such entries are NaN."""
    if not 0.0 < tau_level < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    q = _quantile_times(pred, tau_level)
    if pred.values.ndim == 1 and np.isnan(q[0]):
        s_end = pred.values[-1]
        raise NotIdentified(f"quantile {tau_level} not reached (curve ends at {s_end:.4g})")
    return _per_curve(pred, q)


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
    restriction time and flagged.  For several curves the interval holds one
    entry per curve; a lower level out of reach on any curve raises
    NotIdentified.
    """
    lo_level, hi_level = INTERVAL_LEVELS
    lo = _quantile_times(pred, lo_level)
    if np.isnan(lo).any():
        raise NotIdentified(f"quantile {lo_level} not reached")
    if t_u_star is None:
        t_u_star = float(pred.times[-1])
    hi = _quantile_times(pred, hi_level)
    censored = np.isnan(hi)
    hi = np.where(censored, t_u_star, hi)
    if pred.values.ndim == 2:
        return PredictionInterval(lo, hi, censored)
    return PredictionInterval(float(lo[0]), float(hi[0]), bool(censored[0]))
