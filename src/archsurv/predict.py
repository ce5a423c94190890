"""Dynamic survival prediction from a fitted joint model.

Given a subject's exactly observed onset times and survival past their
maximum (the landmark), the conditional overall-survival curve follows from
the fitted copulas: a Kaplan-Meier ratio with no history, a copula partial
ratio with one onset, and for two or more onsets a ratio of Stieltjes
integrals of the joint onset density against the terminal curve.  Landmark
baselines that use less of the history are provided for comparison, along
with restricted-mean and quantile summaries of the predicted curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotIdentified
from .likelihood import FittedJointModel, cell_log_terms, onset_partials

DEFAULT_EXTRA_GRID = 200
COARSE_GRID_FRACTION = 0.1


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
    """Predicted conditional survival on a grid past the landmark."""

    times: np.ndarray
    values: np.ndarray
    method: str
    landmark: float
    query: PredictionQuery = None
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    def at(self, t):
        """Right-continuous evaluation; 1 at/before the landmark."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx < 0, 1.0, self.values[np.maximum(idx, 0)])
        return out if out.ndim else float(out)


def _default_grid(model: FittedJointModel, landmark: float) -> np.ndarray:
    """Atoms of the completed terminal curve past the landmark, plus equally
    spaced filler points that stabilize quantile inversion."""
    t_u = model.t_max
    if landmark >= t_u:
        raise NotIdentified(
            f"landmark {landmark:.6g} is at or beyond follow-up {t_u:.6g}"
        )
    atoms, _ = model.terminal.atoms(complete_tail=True)
    atoms = atoms[(atoms > landmark) & (atoms <= t_u)]
    filler = np.linspace(landmark, t_u, DEFAULT_EXTRA_GRID + 1)[1:]
    return np.unique(np.concatenate([atoms, filler]))


def _completed_ratio(model, t, anchor):
    s = model.terminal.completed()
    den = float(s(anchor))
    if den <= 0:
        raise NotIdentified(f"no terminal mass beyond {anchor:.6g}")
    return np.asarray(s(t)) / den


def _single_event_curve(model, k, t_k, anchor, times):
    """H1-ratio curve shared by the one-event dynamic prediction and the
    single-onset landmark baselines (anchor = onset time or landmark)."""
    cop = model.copula_for(k)
    s = model.terminal.completed()
    u = float(model.marginals[k](t_k))
    h1_num, _, _ = cop.partials(np.full(times.size, u), np.asarray(s(times)))
    h1_den, _, _ = cop.partials(u, float(s(anchor)))
    if h1_den <= 0:
        raise NotIdentified(f"single-event denominator vanishes at {anchor:.6g}")
    return np.clip(h1_num / h1_den, 0.0, 1.0)


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


def predict_survival_dp(
    query: PredictionQuery, model: FittedJointModel, times=None
) -> SurvivalPrediction:
    """Dynamic prediction using the full observed history."""
    lm = query.landmark
    if times is None:
        times = _default_grid(model, lm)
    times = np.asarray(times, dtype=float)
    if np.any(times <= lm):
        raise DomainError("evaluation times must exceed the landmark")

    if query.m == 0:
        vals = _completed_ratio(model, times, lm)
        return SurvivalPrediction(times, vals, "DP", lm, query)
    if query.m == 1:
        k, t_k = query.events[0]
        vals = _single_event_curve(model, k, t_k, t_k, times)
        return SurvivalPrediction(times, vals, "DP", lm, query)

    atoms, masses = model.terminal.atoms(complete_tail=True)
    sel = atoms > lm
    if not np.any(sel):
        raise NotIdentified(f"no terminal mass beyond landmark {lm:.6g}")
    atoms, masses = atoms[sel], masses[sel]
    q_vals = q_joint_density(query, atoms, model)
    weights = q_vals * masses
    den = float(weights.sum())
    if not den > 0:
        # a caller that keeps the exception keeps this frame through its
        # traceback; drop the grid and per-atom arrays so it holds none
        del times, atoms, masses, sel, q_vals, weights
        raise NotIdentified("denominator integral vanished")
    # numerator at t: mass strictly beyond t
    tail = np.concatenate([np.cumsum(weights[::-1])[::-1][1:], [0.0]])
    idx = np.searchsorted(atoms, times, side="right") - 1
    num = np.where(idx < 0, den, tail[np.maximum(idx, 0)])
    vals = np.clip(num / den, 0.0, 1.0)
    return SurvivalPrediction(times, vals, "DP", lm, query)


def predict_baseline(
    query: PredictionQuery,
    model: FittedJointModel,
    method: str,
    k: int = None,
    times=None,
) -> SurvivalPrediction:
    """Landmark baselines: P0 (terminal KM ratio), Pk (single onset anchored
    at its own time), Pkm (single onset anchored at the landmark)."""
    lm = query.landmark
    if times is None:
        times = _default_grid(model, lm)
    times = np.asarray(times, dtype=float)
    if method == "P0":
        vals = _completed_ratio(model, times, lm)
        return SurvivalPrediction(times, vals, "P0", lm, query)
    if method not in ("Pk", "Pkm"):
        raise DomainError(f"unknown baseline method {method!r}")
    observed = dict(query.events)
    if k is None:
        if not observed:
            raise DomainError("baseline with an onset needs an observed event")
        k = min(observed, key=lambda kk: observed[kk])
    if k not in observed:
        raise DomainError(f"event {k} not observed in the query")
    t_k = observed[k]
    anchor = t_k if method == "Pk" else lm
    vals = _single_event_curve(model, k, t_k, anchor, times)
    return SurvivalPrediction(times, vals, f"{method}[{k + 1}]", lm, query)


def cmst(pred: SurvivalPrediction, t_u_star: float) -> float:
    """Conditional restricted mean survival time: landmark plus the
    trapezoid integral of the predicted curve up to the restriction time."""
    lm = pred.landmark
    if t_u_star < lm:
        raise DomainError("restriction time must not precede the landmark")
    grid = pred.times[(pred.times > lm) & (pred.times < t_u_star)]
    ts = np.concatenate([[lm], grid, [t_u_star]])
    vs = np.concatenate([[1.0], pred.at(grid), [float(pred.at(t_u_star))]])
    if ts.size > 2:
        gap = np.diff(ts).max()
        if gap > COARSE_GRID_FRACTION * max(t_u_star - lm, 1e-300):
            warnings.warn(
                f"prediction grid spacing {gap:.3g} is coarse for the "
                f"restriction window [{lm:.3g}, {t_u_star:.3g}]"
            )
    return float(lm + np.trapezoid(vs, ts))


def cqst(pred: SurvivalPrediction, tau_level: float) -> float:
    """Conditional quantile survival time: first grid time where the curve
    falls to 1 - tau_level.  Raises NotIdentified beyond the curve's reach."""
    if not 0.0 < tau_level < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    target = 1.0 - tau_level
    s_end = float(pred.values[-1])
    if tau_level >= 1.0 - s_end and s_end > 0.0:
        raise NotIdentified(
            f"quantile {tau_level} not reached (curve ends at {s_end:.4g})"
        )
    hit = np.flatnonzero(pred.values <= target)
    if hit.size == 0:
        raise NotIdentified(f"quantile {tau_level} not reached on the grid")
    return float(pred.times[hit[0]])


@dataclass(frozen=True)
class PredictionInterval:
    lo: float
    hi: float
    hi_censored: bool = False

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def prediction_interval(
    pred: SurvivalPrediction, t_u_star: float = None, levels=(0.025, 0.975)
) -> PredictionInterval:
    """Central interval from the quantile survival times.

    When the upper level is out of reach the bound is right-censored at the
    restriction time and flagged.
    """
    lo_level, hi_level = levels
    lo = cqst(pred, lo_level)  # propagates NotIdentified
    if t_u_star is None:
        t_u_star = float(pred.times[-1])
    try:
        hi = cqst(pred, hi_level)
        censored = False
    except NotIdentified:
        hi, censored = t_u_star, True
    return PredictionInterval(lo, min(hi, t_u_star) if censored else hi, censored)
