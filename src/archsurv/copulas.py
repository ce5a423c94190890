"""Archimedean copula algebra: generators, derivatives, bivariate partials,
Kendall-tau conversion and frailty sampling.

Three one-parameter families are supported (Frank, Clayton, Gumbel).  The
generator ``phi`` maps (0, 1] onto [0, inf) and is strictly decreasing with
``phi(1) = 0``; ``psi`` is its inverse and equals the Laplace transform of a
positive frailty distribution, which is what makes exchangeable sampling and
high-order derivatives tractable.

All evaluators accept scalars or numpy arrays and clamp copula arguments to
``[U_FLOOR, 1 - U_FLOOR]`` before use, since step-function marginals can hit
exact 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from .errors import DomainError, RangeError, UnsupportedOrder

FAMILIES = ("frank", "clayton", "gumbel")

# Floor applied to copula arguments before generator evaluation.
U_FLOOR = 1e-12

# Highest supported generator-derivative order (covers K events plus one).
MAX_DERIV_ORDER = 8


def _as_array(x):
    return np.asarray(x, dtype=float)


def _clamp_unit(u):
    return np.clip(_as_array(u), U_FLOOR, 1.0 - U_FLOOR)


def _check_theta(family: str, theta: float) -> None:
    if family == "clayton":
        if not theta > 0:
            raise RangeError(f"clayton requires theta > 0, got {theta}")
    elif family == "gumbel":
        if not theta >= 1:
            raise RangeError(f"gumbel requires theta >= 1, got {theta}")
    elif family == "frank":
        if theta == 0 or not np.isfinite(theta):
            raise RangeError(f"frank requires finite theta != 0, got {theta}")
    else:
        raise RangeError(f"unknown copula family {family!r}")


@lru_cache(maxsize=64)
def _stirling2_row(n: int) -> tuple:
    """Stirling numbers of the second kind S(n, 1..n)."""
    row = [1]
    for m in range(2, n + 1):
        prev = row
        row = []
        for k in range(1, m + 1):
            left = prev[k - 2] if k >= 2 else 0
            right = k * prev[k - 1] if k <= m - 1 else 0
            row.append(left + right)
    return tuple(row)


@lru_cache(maxsize=512)
def _gumbel_deriv_logcoef(d: int, theta: float) -> tuple:
    """Log-magnitudes of the coefficients c_{d,k} in
    psi^(d)(t) = sum_k c_{d,k} t^{k/theta - d} exp(-t^{1/theta}).

    All c_{d,k} share the sign (-1)^d, so the evaluation is cancellation
    free; the recursion follows from differentiating the k-term expansion.
    """
    beta = 1.0 / theta
    coef = np.array([-beta])  # order 1: c_{1,1} = -1/theta
    for dd in range(1, d):
        nxt = np.zeros(dd + 1)
        for k in range(1, dd + 1):
            nxt[k - 1] += coef[k - 1] * (k * beta - dd)
            nxt[k] += -beta * coef[k - 1]
        coef = nxt
    return tuple(np.log(np.abs(coef)))


@dataclass(frozen=True)
class ArchimedeanCopula:
    """A one-parameter Archimedean copula (family tag + association theta)."""

    family: str
    theta: float

    def __post_init__(self):
        _check_theta(self.family, self.theta)

    # -- generator ---------------------------------------------------------

    def phi(self, u):
        """Generator phi(u) >= 0, strictly decreasing, phi(1) = 0."""
        u_arr = _as_array(u)
        if np.any(u_arr <= 0) or np.any(u_arr > 1):
            raise DomainError("phi requires u in (0, 1]")
        exact_one = u_arr == 1.0
        uc = _clamp_unit(u_arr)
        th = self.theta
        with np.errstate(over="ignore", divide="ignore"):
            if self.family == "clayton":
                out = np.expm1(-th * np.log(uc)) / th
            elif self.family == "gumbel":
                out = (-np.log(uc)) ** th
            else:
                # phi = -log q, q = expm1(-th u) / expm1(-th): taken directly
                # while q < 1/2 (exact as u -> 0), and as -log1p(delta),
                # delta = q - 1, above it (no cancellation as u -> 1)
                q = np.expm1(-th * uc) / np.expm1(-th)
                delta = (
                    -np.exp(-th * uc)
                    * np.expm1(-th * (1.0 - uc))
                    / np.expm1(-th)
                )
                out = np.where(
                    q < 0.5, -np.log(q), -np.log1p(np.maximum(delta, -1.0))
                )
        out = np.where(exact_one, 0.0, out)
        return out if out.ndim else float(out)

    def phi_prime(self, u):
        """First derivative of the generator (strictly negative)."""
        uc = _clamp_unit(u)
        th = self.theta
        with np.errstate(over="ignore"):
            if self.family == "clayton":
                out = -np.exp(-(th + 1.0) * np.log(uc))
            elif self.family == "gumbel":
                out = -th * (-np.log(uc)) ** (th - 1.0) / uc
            else:
                out = -th / np.expm1(th * uc)
        return out if out.ndim else float(out)

    def phi_pprime(self, u):
        """Second derivative of the generator (positive: phi is convex)."""
        uc = _clamp_unit(u)
        th = self.theta
        with np.errstate(over="ignore"):
            if self.family == "clayton":
                out = (th + 1.0) * np.exp(-(th + 2.0) * np.log(uc))
            elif self.family == "gumbel":
                x = -np.log(uc)
                out = th * x ** (th - 2.0) * (th - 1.0 + x) / uc**2
            else:
                e = np.expm1(th * uc)
                out = th**2 * np.exp(th * uc) / e**2
        return out if out.ndim else float(out)

    def cross_ratio(self, s):
        """Oakes cross-ratio gamma(s) = -s phi''(s) / phi'(s) at joint survival s.

        Closed per-family forms; the naive phi''/phi' composition overflows
        for large theta * s.
        """
        s_arr = _clamp_unit(s)
        th = self.theta
        if self.family == "clayton":
            out = np.full_like(s_arr, th + 1.0)
        elif self.family == "gumbel":
            out = 1.0 + (th - 1.0) / (-np.log(s_arr))
        else:
            out = th * s_arr / (-np.expm1(-th * s_arr))
        return out if out.ndim else float(out)

    def psi(self, t):
        """Inverse generator psi = phi^{-1}; equals a frailty Laplace transform."""
        t_arr = _as_array(t)
        if np.any(t_arr < 0):
            raise DomainError("psi requires t >= 0")
        th = self.theta
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "clayton":
                out = np.exp(-np.log1p(th * t_arr) / th)
            elif self.family == "gumbel":
                out = np.exp(-(t_arr ** (1.0 / th)))
            elif th > 0:
                # 1 + e^-t expm1(-th) = -expm1(-t) + exp(-t-th), cancellation free
                out = -np.log(-np.expm1(-t_arr) + np.exp(-t_arr - th)) / th
            else:
                out = -np.log1p(np.exp(-t_arr) * np.expm1(-th)) / th
        out = np.where(np.isposinf(t_arr), 0.0, out)
        return out if out.ndim else float(out)

    def psi_deriv(self, t, d: int):
        """d-th derivative of psi; sign is (-1)^d.

        Closed forms for every family: Clayton uses the product formula,
        Frank the negative-order polylog expansion of the log-series
        transform, Gumbel a cancellation-free coefficient recursion.
        """
        if d < 0 or int(d) != d:
            raise DomainError("derivative order must be a non-negative integer")
        if d > MAX_DERIV_ORDER:
            raise UnsupportedOrder(f"order {d} exceeds maximum {MAX_DERIV_ORDER}")
        if d == 0:
            return self.psi(t)
        t_arr = _as_array(t)
        if np.any(t_arr < 0):
            raise DomainError("psi_deriv requires t >= 0")
        th = self.theta
        sign = -1.0 if d % 2 else 1.0
        with np.errstate(over="ignore", divide="ignore"):
            if self.family == "clayton":
                logc = sum(math.log1p(j * th) for j in range(d))
                out = sign * np.exp(logc - (1.0 / th + d) * np.log1p(th * t_arr))
            elif self.family == "gumbel":
                ts = np.maximum(t_arr, 1e-300)
                lt = np.log(ts)
                logcoef = np.asarray(_gumbel_deriv_logcoef(d, th))
                ks = np.arange(1, d + 1)
                expo = lt[..., None] * (ks / th - d) + logcoef
                m = expo.max(axis=-1)
                out = sign * np.exp(m - ts ** (1.0 / th)) * np.exp(
                    expo - m[..., None]
                ).sum(axis=-1)
            else:
                # psi^(d)(t) = -(1/th) (-1)^(d-1) Li_{-(d-1)}(w), w = p e^{-t};
                # Li via Stirling expansion in g = w/(1-w), all terms positive.
                one_minus_w = -np.expm1(-t_arr) + np.exp(-t_arr - th)
                w = -np.expm1(-th) * np.exp(-t_arr)
                g = w / np.maximum(one_minus_w, 1e-300)
                s2 = _stirling2_row(d)
                acc = np.zeros_like(g)
                for j in range(d - 1, -1, -1):
                    acc = acc * g + math.factorial(j) * s2[j]
                out = sign * acc * g / th
        out = np.where(np.isposinf(t_arr), 0.0, out)
        return out if out.ndim else float(out)

    # -- bivariate copula and partials --------------------------------------

    def h(self, u, v):
        """Joint survival copula H(u, v) = psi(phi(u) + phi(v))."""
        u_arr, v_arr = _as_array(u), _as_array(v)
        if np.any((u_arr <= 0) | (u_arr > 1)) or np.any((v_arr <= 0) | (v_arr > 1)):
            raise DomainError("H requires u, v in (0, 1]")
        return self._h_clamped(u_arr, v_arr)

    def _h_clamped(self, u, v):
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        th = self.theta
        with np.errstate(over="ignore"):
            if self.family == "clayton":
                la = self._clayton_log_a(uc, vc)
                out = np.exp(-la / th)
            elif self.family == "gumbel":
                lt = self._gumbel_log_t(uc, vc)
                out = np.exp(-np.exp(lt / th))
            else:
                q = np.expm1(-th * uc) * np.expm1(-th * vc) / np.expm1(-th)
                out = -np.log1p(q) / th
        out = np.where(_as_array(u) == 1.0, np.clip(v, 0.0, 1.0), out)
        out = np.where(_as_array(v) == 1.0, np.clip(u, 0.0, 1.0), out)
        return out if out.ndim else float(out)

    def _clayton_log_a(self, u, v):
        # log(u^-th + v^-th - 1), computed in log space to survive large theta
        th = self.theta
        lu, lv = -th * np.log(u), -th * np.log(v)
        m = np.maximum(lu, lv)
        return m + np.log(np.exp(lu - m) + np.exp(lv - m) - np.exp(-m))

    def _gumbel_log_t(self, u, v):
        th = self.theta
        lx = th * np.log(-np.log(u))
        ly = th * np.log(-np.log(v))
        m = np.maximum(lx, ly)
        return m + np.log1p(np.exp(-np.abs(lx - ly)))

    def partials(self, u, v):
        """(H1, H2, H12): first partials in u and v and the mixed partial.

        H1 and H2 carry the conditional-survival interpretation and live in
        [0, 1]; H12 is the copula density factor and is non-negative.
        """
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        th = self.theta
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "clayton":
                la = self._clayton_log_a(uc, vc)
                lu, lv = np.log(uc), np.log(vc)
                h1 = np.exp(-(1.0 + 1.0 / th) * la - (th + 1.0) * lu)
                h2 = np.exp(-(1.0 + 1.0 / th) * la - (th + 1.0) * lv)
                h12 = (1.0 + th) * np.exp(
                    -(2.0 + 1.0 / th) * la - (th + 1.0) * (lu + lv)
                )
            elif self.family == "gumbel":
                lt = self._gumbel_log_t(uc, vc)
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
                eu, ev, e1 = (
                    np.expm1(-th * uc),
                    np.expm1(-th * vc),
                    np.expm1(-th),
                )
                denom = e1 + eu * ev
                h1 = np.exp(-th * uc) * ev / denom
                h2 = np.exp(-th * vc) * eu / denom
                h12 = -th * np.exp(-th * (uc + vc)) * e1 / denom**2
        h1 = np.clip(h1, 0.0, 1.0)
        h2 = np.clip(h2, 0.0, 1.0)
        h12 = np.maximum(h12, 0.0)
        if h1.ndim == 0:
            return float(h1), float(h2), float(h12)
        return h1, h2, h12

    # -- association scale ---------------------------------------------------

    def tau(self) -> float:
        """Kendall's tau implied by the association parameter."""
        return tau_from_theta(self.family, self.theta)

    # -- frailty --------------------------------------------------------------

    def sample_frailty(self, rng: np.random.Generator, size=None):
        """Draw from the frailty law whose Laplace transform is psi."""
        th = self.theta
        if self.family == "clayton":
            return rng.gamma(shape=1.0 / th, scale=th, size=size)
        if self.family == "gumbel":
            u = rng.uniform(size=size)
            e = rng.exponential(size=size)
            return _positive_stable(1.0 / th, u, e)
        if th <= 0:
            raise RangeError("frank frailty sampling requires theta > 0")
        u1 = rng.uniform(size=size)
        u2 = rng.uniform(size=size)
        return _logseries_quantile_pair(th, u1, u2)

    def frailty_from_uniforms(self, u1, u2):
        """Frailty draws as a deterministic map of two uniform streams.

        Reusing fixed (u1, u2) across parameter values yields common random
        numbers, keeping Monte Carlo objectives smooth in theta.
        """
        th = self.theta
        u1, u2 = _as_array(u1), _as_array(u2)
        if self.family == "clayton":
            from scipy.stats import gamma as _gamma

            return _gamma.ppf(u1, a=1.0 / th, scale=th)
        if self.family == "gumbel":
            return _positive_stable(1.0 / th, u1, u2)
        if th <= 0:
            raise RangeError("frank frailty sampling requires theta > 0")
        return _logseries_quantile_pair(th, u1, u2)

    def sample_exchangeable_uniforms(
        self, k: int, rng: np.random.Generator, n: int = 1
    ):
        """n draws of K exchangeable uniforms via the frailty construction
        U_j = psi(E_j / V), E_j iid unit exponential, V one frailty draw."""
        if k < 1:
            raise DomainError("need at least one coordinate")
        v = self.sample_frailty(rng, size=n)
        e = rng.exponential(size=(n, k))
        u = self.psi(e / _as_array(v)[:, None])
        return u if n > 1 else u[0]


def _positive_stable(alpha: float, u, e):
    """Chambers-Mallows-Stuck draw of the one-sided stable law with
    E[exp(-tV)] = exp(-t^alpha); degenerates to V = 1 at alpha = 1.

    Evaluated in log space: the law is heavy tailed and the direct product
    under/overflows for uniforms near the ends of (0, 1).
    """
    if alpha >= 1.0:
        return np.ones_like(_as_array(u))
    theta_u = np.pi * np.clip(_as_array(u), 1e-15, 1.0 - 1e-15)
    log_e = np.log(np.maximum(_as_array(e), 1e-300))
    log_v = (
        np.log(np.sin(alpha * theta_u))
        - np.log(np.sin(theta_u)) / alpha
        + ((1.0 - alpha) / alpha)
        * (np.log(np.sin((1.0 - alpha) * theta_u)) - log_e)
    )
    return np.exp(np.minimum(log_v, 690.0))


def _logseries_quantile_pair(theta: float, u1, u2):
    """Kemp's O(1) sampler for the log-series law with p = 1 - exp(-theta).

    Parameterized by theta directly: log(1 - p) = -theta stays exact where
    p itself would round to 1.
    """
    u1, u2 = _as_array(u1), _as_array(u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -np.expm1(-u2 * theta)  # 1 - (1-p)^u2
        log_q = np.log1p(-np.exp(-u2 * theta))
        big = np.floor(1.0 + np.log(np.maximum(u1, 1e-300)) / log_q)
    out = np.where(u1 < q * q, big, np.where(u1 > q, 1.0, 2.0))
    return np.minimum(np.maximum(out, 1.0), 1e300)


# -- Kendall tau conversions ---------------------------------------------------


@lru_cache(maxsize=200_000)
def tau_from_theta(family: str, theta: float) -> float:
    """Kendall's tau for a family/parameter pair (closed form per family)."""
    _check_theta(family, theta)
    if family == "clayton":
        return theta / (theta + 2.0)
    if family == "gumbel":
        return 1.0 - 1.0 / theta
    def debye_integrand(t):
        if t == 0:
            return 1.0
        if t > 700.0:  # t e^-t underflows; expm1 would overflow
            return 0.0
        return t / math.expm1(t)

    debye, _ = integrate.quad(
        debye_integrand, 0.0, theta, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return 1.0 - 4.0 / theta * (1.0 - debye / theta)


@lru_cache(maxsize=200_000)
def theta_from_tau(family: str, tau: float) -> float:
    """Invert the monotone tau(theta) map for a family.

    Clayton/Gumbel have closed inverses; Frank is solved by bracketed
    root-finding to 1e-8.
    """
    if not -1.0 < tau < 1.0:
        raise RangeError(f"tau must lie in (-1, 1), got {tau}")
    if family == "clayton":
        if tau <= 0:
            raise RangeError("clayton supports tau in (0, 1) only")
        return 2.0 * tau / (1.0 - tau)
    if family == "gumbel":
        if tau < 0:
            raise RangeError("gumbel supports tau in [0, 1) only")
        return 1.0 / (1.0 - tau)
    if family != "frank":
        raise RangeError(f"unknown copula family {family!r}")
    if tau == 0:
        raise RangeError("frank tau = 0 is the independence limit (theta -> 0)")
    if abs(tau) > 0.995:
        raise RangeError(f"frank tau = {tau} needs theta beyond supported range")

    def f(th):
        return tau_from_theta("frank", th) - tau

    sgn = 1.0 if tau > 0 else -1.0

    def g(mag):
        return sgn * f(sgn * mag)  # increasing in the magnitude of theta

    lo, hi = 1e-8, 8.0
    for _ in range(90):
        if g(lo) <= 0:
            break
        lo /= 4.0
    for _ in range(90):
        if g(hi) >= 0:
            break
        hi *= 2.0
    if g(lo) > 0 or g(hi) < 0:
        raise RangeError(f"no bracket for frank tau = {tau}")
    mag = optimize.brentq(g, lo, hi, xtol=1e-10, rtol=1e-12)
    return float(sgn * mag)


def copula_from_tau(family: str, tau: float) -> ArchimedeanCopula:
    return ArchimedeanCopula(family, theta_from_tau(family, tau))
