"""Archimedean copula algebra: generators, derivatives, bivariate partials,
Kendall-tau conversion and frailty sampling.

Three one-parameter families are supported (Frank, Clayton, Gumbel).  The
generator ``phi`` maps (0, 1] onto [0, inf) and is strictly decreasing with
``phi(1) = 0``; ``psi`` is its inverse and equals the Laplace transform of a
positive frailty distribution, which is what makes exchangeable sampling and
high-order derivatives tractable.  ``psi`` and its derivatives of any order
come from one log kernel, ``log_abs_psi_deriv``: log|psi^(d)| stays finite
where psi^(d) itself underflows, and there is no cap on d.

All evaluators accept scalars or numpy arrays and clamp copula arguments to
``[U_FLOOR, 1 - U_FLOOR]`` before use, since step-function marginals can hit
exact 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._roots import brentq
from .errors import DomainError, RangeError

# Floor applied to copula arguments before generator evaluation.
U_FLOOR = 1e-12


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


# -- H and H2 from factors of u alone and of v alone ---------------------------
#
# Each family's joint survival H(u, v) and conditional H2(u, v) = dH/dv are
# written once (`_h_cells`, `_h2_cells`), over factors of u alone
# (`_u_factors`, `_h_u_factors`) and of v alone (`_v_factors`) at clamped
# arguments.  theta is a scalar, or an array that broadcasts with the
# factors: one theta per grid row in `_u_factors`, one per cell in the cell
# kernels.  `h`, `h2` and `partials` take the factors on broadcast grids;
# the self-consistency sweeps take the v factors once per fit and the u
# factors once per sweep, and gather both per cell.  The kernels write into
# `out`, an array of the cells' shape, and use the `_TEMPS` scratch arrays
# `tmp` if given; `out` may be the first u factor itself and tmp[0] the
# second.  They are called under `np.errstate(**_ERRSTATE)`.

_ERRSTATE = dict(over="ignore", divide="ignore", invalid="ignore")
# the scratch arrays the cell kernels take as `tmp`
_TEMPS = {"clayton": 2, "frank": 1, "gumbel": 1}


def _neg_expm1(th):
    """expm1(-theta) by `math.expm1`, elementwise for an array theta."""
    if np.ndim(th) == 0:
        return math.expm1(-th)
    return np.array([math.expm1(-x) for x in np.ravel(th)]).reshape(np.shape(th))


def _u_factors(family, th, uc):
    """The factors of u alone that H2 reads: Clayton -th log u, Gumbel
    th log(-log u), and Frank A = expm1(-th u) and B = e^(-th u)
    expm1(-th (1 - u)).  `_h_u_factors` derives H's from them."""
    if family == "clayton":
        return (-th * np.log(uc),)
    if family == "gumbel":
        return (th * np.log(-np.log(uc)),)
    tu = -th * uc
    return np.expm1(tu), np.exp(tu) * np.expm1(-th * (1.0 - uc))


def _h_u_factors(family, th, uf):
    """H's factors of u from H2's: the same for Clayton and Gumbel, and for
    Frank (a, a + a, B (2 / c)), a = A / c, c = expm1(-th)."""
    if family != "frank":
        return uf
    c = _neg_expm1(th)
    a = uf[0] / c
    return a, a + a, uf[1] * (2.0 / c)


def _v_factors(family, th, vc, kind):
    """The factors of v alone in H or H2: Clayton -th log v, and for H2
    (th + 1) log v; Gumbel th log(-log v), and for H2 (th - 1) log(-log v)
    and log v; Frank expm1(-th v) and e^(-th v) for H, e^(-th v) for H2."""
    if family == "frank":
        tv = -th * vc
        return (np.expm1(tv), np.exp(tv)) if kind == "h" else (np.exp(tv),)
    lv = np.log(vc)
    if family == "clayton":
        return (-th * lv,) if kind == "h" else (-th * lv, (th + 1.0) * lv)
    lly = np.log(-lv)
    return (th * lly,) if kind == "h" else (th * lly, (th - 1.0) * lly, lv)


def _scratch(tmp, i, like):
    """`tmp[i]` if scratch arrays are given, else a new array like `like`."""
    return np.empty_like(like) if tmp is None else tmp[i]


def _h_cells(family, th, uf, vf, out, tmp=None):
    """H from its u and v factors, into `out`."""
    if family == "clayton":
        out = _clayton_log_a(uf[0], vf[0], out, tmp)
        np.negative(out, out=out)  # exp(-la / th)
        out /= th
        return np.exp(out, out=out)
    if family == "gumbel":
        out = _gumbel_log_t(uf[0], vf[0], out, tmp)  # exp(-exp(lt / th))
        out /= th
        np.exp(out, out=out)
        np.negative(out, out=out)
        return np.exp(out, out=out)
    # -log(r) / th, r = 1 + q, q = a expm1(-th v), a = expm1(-th u) / expm1(-th):
    # log1p(q) while q >= -1/2; below it 1 + q cancels, and r is taken as
    # b + a e^(-th v) (`_frank_h2`'s same-sign denominator over expm1(-th)),
    # so log r = log1p(max(q, -1/2)) + log(min(2r, 1))
    a, a2, b2 = uf
    em1, e = vf
    np.multiply(a, em1, out=out)
    np.maximum(out, -0.5, out=out)
    np.log1p(out, out=out)
    r = np.multiply(a2, e, out=_scratch(tmp, 0, out))
    r += b2
    out += np.log(np.minimum(r, 1.0, out=r), out=r)
    out *= -1.0 / th
    return out


def _h2_cells(family, th, uf, vf, out, tmp=None):
    """H2 from its u and v factors, into `out` (not yet clipped to [0, 1])."""
    if family == "clayton":
        la = _clayton_log_a(uf[0], vf[0], out, tmp)
        return _clayton_h2(th, la, vf[1], out=la)
    if family == "gumbel":
        lt = _gumbel_log_t(uf[0], vf[0], out, tmp)
        s = np.divide(lt, th, out=_scratch(tmp, 0, lt))
        np.exp(s, out=s)
        return _gumbel_h2(th, lt, s, vf[1], vf[2], out=lt)
    return _frank_h2(uf[0], uf[1], vf[0], out, tmp)[0]


def _h_edges(out, u, v):
    """H(1, v) = v, then H(u, 1) = u, where an unclamped argument is 1:
    whole rows or columns of an outer grid."""
    for one, other in ((u, v), (v, u)):
        is_one = _as_array(one) == 1.0
        if is_one.any():
            np.copyto(out, np.clip(other, 0.0, 1.0), where=is_one)


def _clayton_log_a(lu, lv, out=None, tmp=None):
    # log(u^-th + v^-th - 1) = m + log(e^(lu - m) + e^(lv - m) - e^-m),
    # m = max(lu, lv), from lu = -th log u and lv = -th log v: log space
    # survives large theta
    acc = _out(out, lu, lv)
    m = np.maximum(lu, lv, out=_scratch(tmp, 0, acc))
    np.subtract(lu, m, out=acc)
    np.exp(acc, out=acc)
    t = _scratch(tmp, 1, m)
    acc += np.exp(np.subtract(lv, m, out=t), out=t)
    acc -= np.exp(np.negative(m, out=t), out=t)
    np.log(acc, out=acc)
    acc += m
    return acc


def _gumbel_log_t(lx, ly, out=None, tmp=None):
    # log(x^th + y^th), x = -log u, y = -log v, from lx = th log x, ly = th log y
    m = _out(out, lx, ly)
    t = np.subtract(lx, ly, out=_scratch(tmp, 0, m))
    np.maximum(lx, ly, out=m)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    m += np.log1p(t, out=t)
    return m


# Each family's H2(u, v) from the terms H1, H2 and H12 share; by
# exchangeability H1(u, v) is the same expression with u and v swapped.
# `out` may be the shared-term array itself.


def _frank_h2(a, b, e, out=None, tmp=None):
    # (H2, denominator) with H2 = n / (n + b), n = e^(-th v) a, a = expm1(-th u)
    # and b = e^(-th u) expm1(-th (1 - u)): the denominator expm1(-th) +
    # expm1(-th u) expm1(-th v) as two terms of one sign, which does not
    # cancel as th grows.  `out` receives H2.
    n = np.multiply(e, a, out=_out(out, a, e))
    denom = np.add(n, b, out=None if tmp is None else tmp[0])
    return np.divide(n, denom, out=n), denom


def _clayton_h2(th, la, lv1, out=None):
    # exp(-(1 + 1/th) la - (th + 1) log v), lv1 = (th + 1) log v
    out = np.multiply(la, -(1.0 + 1.0 / th), out=_out(out, la))
    out -= lv1
    return np.exp(out, out=out)


def _gumbel_h2(th, lt, s, lly1, lv, out=None):
    # exp(-s + (1/th - 1) lt + (th - 1) log(-log v) - log v), lly1 the
    # middle term
    out = np.multiply(lt, 1.0 / th - 1.0, out=_out(out, lt))
    out -= s
    out += lly1
    out -= lv
    return np.exp(out, out=out)


def _partials_cells(family, th, uc, vc):
    """(H2, H12) at clamped arguments, H2 clipped to [0, 1] and H12 >= 0:
    `ArchimedeanCopula.partials` after its clamp.  As in `_h_cells`, theta
    is a scalar or an array that broadcasts with the arguments: one theta
    per entry, or per row of an (onsets x cells) grid."""
    uf, vf = _u_factors(family, th, uc), _v_factors(family, th, vc, "h2")
    if family == "clayton":
        la = _clayton_log_a(uf[0], vf[0])
        h2 = _clayton_h2(th, la, vf[1])
        h12 = (1.0 + th) * np.exp(
            -(2.0 + 1.0 / th) * la - (th + 1.0) * (np.log(uc) + np.log(vc))
        )
    elif family == "gumbel":
        lt = _gumbel_log_t(uf[0], vf[0])
        s = np.exp(lt / th)
        beta = 1.0 / th
        lu, lv = np.log(uc), vf[2]
        h2 = _gumbel_h2(th, lt, s, vf[1], lv)
        h12 = (
            th
            * (1.0 - beta + beta * s)
            * np.exp(-s + (beta - 2.0) * lt + (th - 1.0) * (np.log(-lu) + np.log(-lv)) - lu - lv)
        )
    else:
        h2, denom = _frank_h2(uf[0], uf[1], vf[0])
        h12 = -th * np.exp(-th * (uc + vc)) * np.expm1(-th) / denom**2
    return h2.clip(0.0, 1.0), np.maximum(h12, 0.0)


@lru_cache(maxsize=64)
def _eulerian_row(n: int) -> tuple:
    """Eulerian numbers A(n, 0..n-1), the coefficients of the Eulerian
    polynomial A_n(w) = sum_k A(n, k) w^k; A_0 = A_1 = 1."""
    row = [1]
    for m in range(2, n + 1):  # A(m, k) = (k + 1) A(m-1, k) + (m - k) A(m-1, k-1)
        row = [(k + 1) * a + (m - k) * b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return tuple(float(c) for c in row)


@lru_cache(maxsize=512)
def _gumbel_deriv_logcoef(d: int, theta: float) -> tuple:
    """(k/theta - d, log|c_{d,k}|) over the nonzero coefficients c_{d,k} in
    psi^(d)(t) = sum_k c_{d,k} t^{k/theta - d} exp(-t^{1/theta}): k = 0 alone
    at d = 0, k in 1..d above it.

    All c_{d,k} share the sign (-1)^d, so the evaluation is cancellation
    free; the recursion follows from differentiating the k-term expansion.
    """
    beta = 1.0 / theta
    coef = np.array([1.0])  # order 0: psi itself
    for dd in range(d):
        coef = np.r_[coef * (np.arange(dd + 1) * beta - dd), 0.0] - np.r_[0.0, beta * coef]
    ks = np.flatnonzero(coef)
    return tuple(ks / theta - d), tuple(np.log(np.abs(coef[ks])))


# -- generator kernels ---------------------------------------------------------
#
# The generator, its derivative and log|psi^(d)| of one family, without the
# argument checks of the `ArchimedeanCopula` methods that call them: callers
# whose arguments are valid by construction (the likelihood's cells) call
# them directly.  theta is a scalar and the arguments are float arrays.  As
# the cell kernels above, they are called under `np.errstate`, with at least
# the floating-point errors of their methods ignored.


def _phi_cells(family, th, u):
    """Generator phi at u in (0, 1] (`ArchimedeanCopula.phi`): u is clamped
    as every copula argument is, and phi(1) is exactly 0."""
    exact_one = u == 1.0
    uc = _clamp_unit(u)
    if family == "clayton":
        out = np.expm1(-th * np.log(uc)) / th
    elif family == "gumbel":
        out = (-np.log(uc)) ** th
    else:
        # phi = -log q, q = expm1(-th u) / expm1(-th): taken directly while
        # q < 1/2 (exact as u -> 0), and as -log1p(delta), delta = q - 1,
        # above it (no cancellation as u -> 1)
        tu, c = -th * uc, np.expm1(-th)
        q = np.expm1(tu) / c
        delta = -np.exp(tu) * np.expm1(-th * (1.0 - uc)) / c
        out = np.where(q < 0.5, -np.log(q), -np.log1p(np.maximum(delta, -1.0)))
    return np.where(exact_one, 0.0, out)


def _phi_prime_cells(family, th, u):
    """phi'(u) < 0 at clamped u (`ArchimedeanCopula.phi_prime`)."""
    uc = _clamp_unit(u)
    if family == "clayton":
        return -np.exp(-(th + 1.0) * np.log(uc))
    if family == "gumbel":
        return -th * (-np.log(uc)) ** (th - 1.0) / uc
    return -th / np.expm1(th * uc)


def _log_abs_psi_deriv_cells(family, th, t, d):
    """log|psi^(d)(t)| at t >= 0 for an integer order d >= 0
    (`ArchimedeanCopula.log_abs_psi_deriv`).

    Clayton takes the product formula, Gumbel the cancellation-free
    coefficient sum through logsumexp (exact at t = 0: psi(0) = 1, and
    |psi^(d)(0)| = E[V^d] = inf for d >= 1 and th > 1), and Frank, with
    w = (1 - e^-th) e^-t,
    |psi^(d)| = w A_{d-1}(w) / (th (1 - w)^d) for d >= 1 (A_n the Eulerian
    polynomial, with positive coefficients) and psi = -log(1 - w) / th.
    Frank needs th > 0: below it psi is not completely monotone.
    """
    if family == "clayton":
        # sum_j log1p(j th) - (d + 1/th) log1p(th t): an exact sum and a
        # split product, so that the two large terms cancel cleanly
        lt = np.log1p(th * t)
        out = math.fsum(math.log1p(j * th) for j in range(d)) - d * lt - lt / th
    elif family == "gumbel":
        powers, logcoef = _gumbel_deriv_logcoef(d, th)
        expo = np.log(t)[..., None] * powers + logcoef
        m = expo.max(axis=-1)
        out = m - t ** (1.0 / th)
        out += np.log(np.exp(expo - m[..., None]).sum(axis=-1))
        out = np.where(t == 0, 0.0 if d == 0 or th == 1 else np.inf, out)
    elif th > 0:
        lw = math.log(-math.expm1(-th)) - t
        w = np.exp(lw)
        # log(1 - w), with 1 - w = -expm1(-t) + e^(-t - th) as in psi
        l1mw = np.log(-np.expm1(-t) + np.exp(-t - th))
        if d == 0:  # log(-log(1 - w)); -log(1 - w) rounds to w below 1e-16
            out = np.where(w < 0.5, -np.log1p(-w), -l1mw)
            out = np.where(w < 1e-16, lw, np.log(out))
        else:  # (Eulerian rows are palindromes, so either order suits polyval)
            out = lw + np.log(np.polyval(_eulerian_row(d - 1), w)) - d * l1mw
        out -= math.log(th)
    else:
        raise RangeError("frank psi requires theta > 0")
    return np.where(np.isposinf(t), -np.inf, out)


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
        with np.errstate(over="ignore", divide="ignore"):
            out = _phi_cells(self.family, self.theta, u_arr)
        return out if out.ndim else float(out)

    def phi_prime(self, u):
        """First derivative of the generator (strictly negative)."""
        with np.errstate(over="ignore"):
            out = _phi_prime_cells(self.family, self.theta, u)
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
        """Inverse generator psi = phi^{-1}; equals a frailty Laplace transform.
        It is `psi_deriv(t, 0)`, so Frank needs theta > 0."""
        return self.psi_deriv(t, 0)

    def log_abs_psi_deriv(self, t, d: int):
        """log|psi^(d)(t)| for any order d >= 0 (log psi at d = 0, -inf at
        t = +inf); psi^(d) has sign (-1)^d.  See `_log_abs_psi_deriv_cells`."""
        if d < 0 or int(d) != d:
            raise DomainError("derivative order must be a non-negative integer")
        t_arr = _as_array(t)
        if np.any(t_arr < 0):
            raise DomainError("psi requires t >= 0")
        with np.errstate(**_ERRSTATE):
            out = _log_abs_psi_deriv_cells(self.family, self.theta, t_arr, int(d))
        return out if out.ndim else float(out)

    def psi_deriv(self, t, d: int):
        """d-th derivative of psi, `psi` itself at d = 0: (-1)^d
        exp(`log_abs_psi_deriv`)."""
        out = (-1.0) ** d * np.exp(self.log_abs_psi_deriv(t, d))
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
        fam, th = self.family, self.theta
        with np.errstate(**_ERRSTATE):
            out = _h_cells(
                fam, th, _h_u_factors(fam, th, _u_factors(fam, th, uc)),
                _v_factors(fam, th, vc, "h"),
                _out(out, uc, vc),
            )
        _h_edges(out, u, v)
        return out if out.ndim else float(out)

    def h2(self, u, v, out=None):
        """H2(u, v) = dH/dv in [0, 1]: the survival of the first coordinate
        past u given the second at v.  H1(u, v) = dH/du is h2(v, u).

        If given, `out` (float, of the broadcast shape of u and v) receives
        the result, and the only other full-size arrays are one or two
        temporaries.
        """
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        fam, th = self.family, self.theta
        with np.errstate(**_ERRSTATE):
            out = _h2_cells(
                fam, th, _u_factors(fam, th, uc), _v_factors(fam, th, vc, "h2"),
                _out(out, uc, vc),
            )
        out.clip(0.0, 1.0, out=out)
        return out if out.ndim else float(out)

    def log_h2_inverse(self, w, v):
        """log u with H2(u, v) = w (Nelsen 2006, sec. 2.9): 0 at w = 1, -inf
        at w = 0.  v is clamped as in `h2`; u is not, since a lower-wedge
        target may lie below H2(U_FLOOR, v)."""
        w, vc = _as_array(w), _clamp_unit(v)
        th = self.theta
        with np.errstate(divide="ignore", over="ignore"):
            lw = np.log(w)
            if self.family == "clayton":
                # u^-th = 1 + v^-th expm1(a), a = -th log w / (1 + th)
                a = -th * lw / (1.0 + th)
                out = np.logaddexp(0.0, a + np.log(-np.expm1(-a)) - th * np.log(vc))
                out /= -th
            elif self.family == "gumbel":
                # -log u = z0 expm1(th log1p(delta / z0))^(1/th), z0 = -log v, where
                # delta + (th - 1) log1p(delta / z0) = -log w; that left side is
                # increasing and concave, so Newton from 0 rises to the root
                z0 = -np.log(vc)
                delta, step = np.zeros(np.broadcast(lw, z0).shape), np.inf
                while np.any(step > 1e-15 * delta):
                    f = delta + (th - 1.0) * np.log1p(delta / z0)
                    step = (-lw - f) / (1.0 + (th - 1.0) / (z0 + delta))
                    delta += np.maximum(step, 0.0)
                a = th * np.log1p(delta / z0)
                out = -np.exp(np.log(z0) + (a + np.log(-np.expm1(-a))) / th)
            else:
                # e^(-th u) = (A + w e^-th) / (A + w), A = e^(-th v) (1 - w);
                # th u from p = 1 - e^(-th u) while p < 1/2, else as a log ratio
                r = -th * vc + np.log1p(-w)
                lse = np.logaddexp(r, lw)
                p = np.exp(lw - lse) * -np.expm1(-th)
                thu = np.where(p < 0.5, -np.log1p(-p), lse - np.logaddexp(r, lw - th))
                out = np.log(thu / th)
        return out if out.ndim else float(out)

    def partials(self, u, v):
        """(H2, H12): the first partial in v and the mixed partial.

        H2 carries the conditional-survival interpretation and lives in
        [0, 1]; H12 is the copula density factor and is non-negative.  A
        caller that reads H2 alone calls `h2`; H1(u, v) is h2(v, u).
        """
        uc, vc = _clamp_unit(u), _clamp_unit(v)
        with np.errstate(**_ERRSTATE):
            h2, h12 = _partials_cells(self.family, self.theta, uc, vc)
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


# B_2k / ((2k + 1) (2k)!) for k = 1..18, each exact rational rounded once to
# a float (B_2k the Bernoulli numbers): the Taylor series of x / (e^x - 1),
# integrated term by term.
_DEBYE_SMALL = (
    0.027777777777777776,
    -0.0002777777777777778,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
    -1.9939295860721074e-14,
    4.518980029619918e-16,
    -1.0356517612181247e-17,
    2.395218621026187e-19,
    -5.581785874325009e-21,
    1.3091507554183213e-22,
    -3.0874198024267403e-24,
    7.315975652702203e-26,
    -1.740845657234001e-27,
    4.1576356446139e-29,
    -9.962148488284622e-31,
)


@lru_cache(maxsize=200_000)
def tau_from_theta(family: str, theta: float) -> float:
    """Kendall's tau for a family/parameter pair (closed form per family).

    Frank's tau = 1 - 4/x (1 - D(x)/x), x = |theta| and D(x) the integral
    of t / (e^t - 1) over [0, x], taken with the sign of theta.  That form
    cancels as x -> 0, so for x <= 2 tau is 4 theta sum_k c_k theta^(2k-2)
    over the `_DEBYE_SMALL` coefficients c_k: D's Bernoulli series x - x^2/4
    + sum_k c_k x^(2k+1) with its two leading terms cancelled exactly, whose
    terms fall by (x / 2 pi)^2 each.  Above 2, D(x) = pi^2/6 - sum_k e^(-kx)
    (x/k + 1/k^2), summed from the smallest term.
    """
    _check_theta(family, theta)
    if family == "clayton":
        return theta / (theta + 2.0)
    if family == "gumbel":
        return 1.0 - 1.0 / theta
    x = abs(theta)
    if x <= 2.0:
        x2, acc = x * x, 0.0
        for c in reversed(_DEBYE_SMALL):
            acc = acc * x2 + c
        return 4.0 * theta * acc
    tail = 0.0
    for k in range(int(45.0 / x) + 1, 0, -1):
        tail += math.exp(-k * x) * (x / k + 1.0 / (k * k))
    debye = math.pi**2 / 6.0 - tail
    return math.copysign(1.0 - 4.0 / x * (1.0 - debye / x), theta)


@lru_cache(maxsize=200_000)
def theta_from_tau(family: str, tau: float) -> float:
    """Invert the monotone tau(theta) map for a family.

    Clayton/Gumbel have closed inverses.  Frank's |theta| is the root of
    tau(x) = |tau| on [4.5 |tau|, 8 / (1 - |tau|)], a bracket because
    tau(x) <= x / 9 and tau(x) >= 1 - 4 / x, solved by brentq to RTOL_MIN.
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
    a = abs(tau)
    mag, _ = brentq(
        lambda x: tau_from_theta("frank", x) - a, 4.5 * a, 8.0 / (1.0 - a), xtol=0.0
    )
    return math.copysign(mag, tau)
