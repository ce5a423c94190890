"""Observed-data container for K intermediate events plus a terminal event.

Each subject carries (T_1..T_K, delta_1..delta_K, Y, dtilde) where
T_k = min(onset_k, terminal, censoring), Y = min(terminal, censoring),
delta_k flags an observed onset and dtilde an observed terminal event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SurvivalData:
    """Column-wise arrays for n subjects and K intermediate events.

    t: (n, K) observed intermediate times; delta: (n, K) 0/1 onset flags;
    y: (n,) observed terminal times; dtilde: (n,) 0/1 terminal flags.
    """

    t: np.ndarray
    delta: np.ndarray
    y: np.ndarray
    dtilde: np.ndarray
    ids: np.ndarray = field(default=None)

    def __post_init__(self):
        self.t = np.atleast_2d(np.asarray(self.t, dtype=float))
        self.delta = np.atleast_2d(np.asarray(self.delta, dtype=np.int8))
        self.y = np.asarray(self.y, dtype=float)
        self.dtilde = np.asarray(self.dtilde, dtype=np.int8)
        if self.ids is None:
            self.ids = np.arange(1, self.n + 1)
        else:
            self.ids = np.asarray(self.ids)
        violations = self.validate()
        if violations:
            head = "; ".join(violations[:5])
            more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
            raise ValueError(f"invalid records: {head}{more}")

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def k(self) -> int:
        return self.t.shape[1]

    def validate(self) -> list:
        """Row-indexed descriptions of invariant violations (empty if clean).

        Ties T_k == Y with delta_k = 1 are allowed: the onset is treated as
        happening just before the terminal event.
        """
        out = []
        if self.n == 0:
            return out  # empty datasets are legal; estimators reject them
        shapes_ok = (
            self.delta.shape == self.t.shape
            and self.y.shape == (self.n,)
            and self.dtilde.shape == (self.n,)
        )
        if not shapes_ok:
            return ["array shapes disagree"]
        for i in range(self.n):
            rid = self.ids[i]
            if not np.isfinite(self.y[i]) or self.y[i] < 0:
                out.append(f"row {rid}: bad terminal time {self.y[i]}")
                continue
            if self.dtilde[i] not in (0, 1):
                out.append(f"row {rid}: terminal indicator not 0/1")
            for k in range(self.k):
                tv, dv = self.t[i, k], self.delta[i, k]
                if not np.isfinite(tv) or tv < 0:
                    out.append(f"row {rid}: bad time t{k + 1}={tv}")
                elif tv > self.y[i] + 1e-9:
                    out.append(f"row {rid}: t{k + 1}={tv} exceeds y={self.y[i]}")
                if dv not in (0, 1):
                    out.append(f"row {rid}: indicator d{k + 1} not 0/1")
                elif dv == 0 and abs(tv - self.y[i]) > 1e-9:
                    out.append(
                        f"row {rid}: censored t{k + 1} must equal y "
                        f"({tv} != {self.y[i]})"
                    )
        return out

    def subset(self, idx) -> "SurvivalData":
        idx = np.asarray(idx)
        return SurvivalData(
            self.t[idx], self.delta[idx], self.y[idx], self.dtilde[idx], self.ids[idx]
        )

    def resample(self, rng: np.random.Generator) -> "SurvivalData":
        """Bootstrap resample of subjects (with replacement)."""
        idx = rng.integers(0, self.n, size=self.n)
        return self.subset(idx)

    @property
    def t_max(self) -> float:
        return float(self.y.max())

    def __len__(self):
        return self.n
