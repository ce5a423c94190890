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
    return _as_array(u).clip(U_FLOOR, 1.0 - U_FLOOR)


def _out(out, *args):
    """`out`, or a new float array of the broadcast shape of `args`."""
    if out is None:
        return np.empty(np.broadcast(*args).shape)
    return out


def _check_theta(family: str, theta: float) -> None:
    if family == "clayton":
        if not theta > 0:
            raise RangeError(f"clayton requires theta > 0, got {theta}")
    elif family == "gumbel":
        if not theta >= 1:
            raise RangeError(f"gumbel requires theta >= 1, got {theta}")
    elif family == "frank":
        if theta == 0 or not math.isfinite(theta):
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

    def _h_clamped(self, u, v, out=None):
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        th = self.theta
        with np.errstate(over="ignore"):
            if self.family == "clayton":
                out = self._clayton_log_a(uc, vc, out)
                np.negative(out, out=out)  # exp(-la / th)
                out /= th
                np.exp(out, out=out)
            elif self.family == "gumbel":
                out = self._gumbel_log_t(uc, vc, out)  # exp(-exp(lt / th))
                out /= th
                np.exp(out, out=out)
                np.negative(out, out=out)
                np.exp(out, out=out)
            else:
                # -log1p(expm1(-th u) expm1(-th v) / expm1(-th)) / th
                out = np.multiply(
                    np.expm1(-th * uc), np.expm1(-th * vc), out=_out(out, uc, vc)
                )
                out /= np.expm1(-th)
                np.log1p(out, out=out)
                np.negative(out, out=out)
                out /= th
        # H(1, v) = v, then H(u, 1) = u: whole rows or columns of an outer grid
        for one, other in ((u, v), (v, u)):
            is_one = _as_array(one) == 1.0
            if is_one.any():
                np.copyto(out, np.clip(other, 0.0, 1.0), where=is_one)
        return out if out.ndim else float(out)

    def _clayton_log_a(self, u, v, out=None):
        # log(u^-th + v^-th - 1), computed in log space to survive large theta
        th = self.theta
        lu, lv = -th * np.log(u), -th * np.log(v)
        m = np.maximum(lu, lv, out=_out(out, lu, lv))
        acc, tmp = np.empty_like(m), np.empty_like(m)
        np.exp(np.subtract(lu, m, out=acc), out=acc)
        acc += np.exp(np.subtract(lv, m, out=tmp), out=tmp)
        acc -= np.exp(np.negative(m, out=tmp), out=tmp)
        m += np.log(acc, out=acc)
        return m

    def _gumbel_log_t(self, u, v, out=None):
        th = self.theta
        lx = th * np.log(-np.log(u))
        ly = th * np.log(-np.log(v))
        m = np.maximum(lx, ly, out=_out(out, lx, ly))
        tmp = np.subtract(lx, ly, out=np.empty_like(m))
        np.abs(tmp, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        m += np.log1p(tmp, out=tmp)
        return m

    # Each family's H2(u, v) from the terms H1, H2 and H12 share; by
    # exchangeability H1(u, v) is the same expression with u and v swapped.
    # `out` may be the shared-term array itself.

    def _frank_h2(self, eu, vc, denom, out=None):
        # exp(-th v) expm1(-th u) / (expm1(-th) + expm1(-th u) expm1(-th v))
        return np.divide(np.exp(-self.theta * vc) * eu, denom, out=out)

    def _clayton_h2(self, la, lv, out=None):
        # exp(-(1 + 1/th) la - (th + 1) log v)
        th = self.theta
        out = np.multiply(la, -(1.0 + 1.0 / th), out=_out(out, la))
        out -= (th + 1.0) * lv
        return np.exp(out, out=out)

    def _gumbel_h2(self, lt, s, lly, lv, out=None):
        # exp(-s + (1/th - 1) lt + (th - 1) log(-log v) - log v)
        th = self.theta
        out = np.multiply(lt, 1.0 / th - 1.0, out=_out(out, lt))
        out -= s
        out += (th - 1.0) * lly
        out -= lv
        return np.exp(out, out=out)

    def h2(self, u, v, out=None):
        """H2(u, v) = dH/dv in [0, 1]: the survival of the first coordinate
        past u given the second at v.  H1(u, v) = dH/du is h2(v, u).

        If given, `out` (float, of the broadcast shape of u and v) receives
        the result, and the only other full-size arrays are one or two
        temporaries.
        """
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        th = self.theta
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "clayton":
                la = self._clayton_log_a(uc, vc, out)
                out = self._clayton_h2(la, np.log(vc), out=la)
            elif self.family == "gumbel":
                lt = self._gumbel_log_t(uc, vc, out)
                s = np.divide(lt, th, out=np.empty_like(lt))
                np.exp(s, out=s)
                lv = np.log(vc)
                out = self._gumbel_h2(lt, s, np.log(-lv), lv, out=lt)
            else:
                eu = np.expm1(-th * uc)
                denom = np.multiply(eu, np.expm1(-th * vc), out=_out(out, uc, vc))
                denom += np.expm1(-th)
                out = self._frank_h2(eu, vc, denom, out=denom)
        out.clip(0.0, 1.0, out=out)
        return out if out.ndim else float(out)

    def partials(self, u, v):
        """(H2, H12): the first partial in v and the mixed partial.

        H2 carries the conditional-survival interpretation and lives in
        [0, 1]; H12 is the copula density factor and is non-negative.  A
        caller that reads H2 alone calls `h2`; H1(u, v) is h2(v, u).
        """
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        th = self.theta
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "clayton":
                la = self._clayton_log_a(uc, vc)
                lu, lv = np.log(uc), np.log(vc)
                h2 = self._clayton_h2(la, lv)
                h12 = (1.0 + th) * np.exp(
                    -(2.0 + 1.0 / th) * la - (th + 1.0) * (lu + lv)
                )
            elif self.family == "gumbel":
                lt = self._gumbel_log_t(uc, vc)
                s = np.exp(lt / th)
                beta = 1.0 / th
                lu, lv = np.log(uc), np.log(vc)
                llx, lly = np.log(-lu), np.log(-lv)
                h2 = self._gumbel_h2(lt, s, lly, lv)
                h12 = (
                    th
                    * (1.0 - beta + beta * s)
                    * np.exp(
                        -s + (beta - 2.0) * lt + (th - 1.0) * (llx + lly) - lu - lv
                    )
                )
            else:
                eu, ev, e1 = (
                    np.expm1(-th * uc),
                    np.expm1(-th * vc),
                    np.expm1(-th),
                )
                denom = e1 + eu * ev
                h2 = self._frank_h2(eu, vc, denom)
                h12 = -th * np.exp(-th * (uc + vc)) * e1 / denom**2
        h2 = np.clip(h2, 0.0, 1.0)
        h12 = np.maximum(h12, 0.0)
        if h2.ndim == 0:
            return float(h2), float(h12)
        return h2, h12

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

        The exact likelihood no longer calls it; it stays only because
        `perfbench/tracing.py` wraps it by name.
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

