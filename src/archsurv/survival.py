"""Right-continuous step survival functions and the Kaplan-Meier estimator."""

from __future__ import annotations

import numpy as np

from .errors import EmptyDataError


def step_lookup(times, values, t, side="right"):
    """Value at t of a step function that is 1 before its first jump time:
    right-continuous with side="right", the left limit with side="left".
    A 2-d ``values`` holds one function per row on the shared ``times``."""
    t = np.asarray(t, dtype=float)
    if times.size == 0:
        out = np.ones_like(t)
    else:
        idx = np.searchsorted(times, t, side=side) - 1
        out = np.where(idx < 0, 1.0, values[..., np.maximum(idx, 0)])
    return out if out.ndim else float(out)


class StepSurvival:
    """A non-increasing, right-continuous step function on [0, t_max].

    Jumps happen at ``times`` (strictly increasing, positive); ``values[i]``
    is the function value immediately after ``times[i]``.  Before the first
    jump the value is 1.  The object doubles as a discrete measure (atoms at
    the jumps) and as a piecewise-linear interpolant whose slope feeds
    numerical differentiation of the marginals.
    """

    __slots__ = ("times", "values", "t_max")

    def __init__(self, times, values, t_max=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if times.size and (np.any(values < -1e-12) or np.any(values > 1 + 1e-12)):
            raise ValueError("survival values must lie in [0, 1]")
        if times.size and np.any(np.diff(values) > 1e-12):
            raise ValueError("survival values must be non-increasing")
        self.times = times
        self.values = np.clip(values, 0.0, 1.0)
        if t_max is None:
            t_max = float(times[-1]) if times.size else 0.0
        self.t_max = float(max(t_max, times[-1] if times.size else 0.0))

    def __call__(self, t):
        """Right-continuous evaluation S(t)."""
        return step_lookup(self.times, self.values, t)

    def left_value(self, t):
        """Left limit S(t-)."""
        return step_lookup(self.times, self.values, t, side="left")

    def mid_value(self, t):
        """(S(t-) + S(t)) / 2: midpoint across the jump when t is an atom.

        Used when a likelihood integrand conditions on an atom of this very
        estimator; keeps evaluations away from the exact 0/1 corners.
        """
        t = np.asarray(t, dtype=float)
        out = 0.5 * (np.asarray(self.left_value(t)) + np.asarray(self(t)))
        return out if out.ndim else float(out)

    def slope(self, t):
        """Slope (<= 0) of the linear interpolant on the segment holding t.

        Segments are the half-open intervals (t_{j-1}, t_j]; beyond the last
        jump the slope is 0.
        """
        t = np.asarray(t, dtype=float)
        xs = np.concatenate(([0.0], self.times))
        ys = np.concatenate(([1.0], self.values))
        if self.times.size == 0:
            out = np.zeros_like(t)
            return out if out.ndim else 0.0
        seg = np.diff(ys) / np.diff(xs)
        idx = np.searchsorted(self.times, t, side="left")
        inside = (t > 0) & (idx < self.times.size)
        out = np.where(inside, seg[np.minimum(idx, seg.size - 1)], 0.0)
        return out if out.ndim else float(out)

    def jump_mass(self, t):
        """Mass S(t-) - S(t) of the atom at t (0 off the jump set)."""
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.left_value(t)) - np.asarray(self(t))
        return out if out.ndim else float(out)

    def atoms(self, complete_tail: bool = False):
        """(times, masses) of the discrete measure -dS.

        With ``complete_tail`` any residual mass S(t_max) > 0 is assigned to
        an atom at t_max, so the measure integrates to one; needed when a
        Stieltjes integral runs to infinity.
        """
        if self.times.size == 0:
            if complete_tail:
                return np.array([self.t_max]), np.array([1.0])
            return np.array([]), np.array([])
        prev = np.concatenate(([1.0], self.values[:-1]))
        masses = prev - self.values
        times = self.times.copy()
        keep = masses > 0
        times, masses = times[keep], masses[keep]
        resid = float(self.values[-1])
        if complete_tail and resid > 0:
            if times.size and times[-1] == self.t_max:
                masses[-1] += resid
            else:
                times = np.append(times, self.t_max)
                masses = np.append(masses, resid)
        return times, masses

    def completed(self) -> "StepSurvival":
        """Copy whose survival drops to 0 at t_max (tail-mass completion)."""
        if self.times.size and self.values[-1] == 0.0:
            return self
        if self.times.size and self.times[-1] == self.t_max:
            vals = self.values.copy()
            vals[-1] = 0.0
            return StepSurvival(self.times, vals, self.t_max)
        return StepSurvival(
            np.append(self.times, self.t_max),
            np.append(self.values, 0.0),
            self.t_max,
        )

    def to_dict(self):
        return {
            "times": self.times.tolist(),
            "values": self.values.tolist(),
            "t_max": self.t_max,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["times"], d["values"], d["t_max"])

    def __eq__(self, other):
        if not isinstance(other, StepSurvival):
            return NotImplemented
        return (
            self.t_max == other.t_max
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return (
            f"StepSurvival({self.times.size} jumps, "
            f"t_max={self.t_max:.6g}, tail={self.values[-1] if self.times.size else 1.0:.4g})"
        )


def kaplan_meier(times, events, t_max=None) -> StepSurvival:
    """Product-limit estimator from (time, event-indicator) pairs.

    Ties between events and censorings at the same time follow the usual
    convention that events happen first.  With zero events the estimator is
    the constant function 1.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if times.size == 0:
        raise EmptyDataError("kaplan_meier needs at least one record")
    if np.any(times < 0):
        raise ValueError("survival times must be non-negative")
    # events before censorings at a tied time: the at-risk count of a time
    # is everyone not gone before it
    uniq, inverse = np.unique(times, return_inverse=True)
    deaths = np.bincount(inverse, weights=events.astype(bool))
    at_risk = times.size - np.concatenate(([0], np.cumsum(np.bincount(inverse))[:-1]))
    jump = deaths > 0
    surv = np.cumprod(1.0 - deaths[jump] / at_risk[jump])
    t_max = float(times.max()) if t_max is None else float(t_max)
    return StepSurvival(uniq[jump], surv, t_max=t_max)
