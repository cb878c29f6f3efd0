"""Integer-order Bessel functions of the first kind, in numpy alone.

The delta-kick engine and the analytic layer need only J_n(x) at integer
n: the kick weights J_d(phi_d), the closed-form echo J_0(phi_d |S|) and
the first-order q-sums.  Evaluating them here keeps scipy off the import
path of every delta-kick CLI kind.

* jn_upto(n_max, x) gives J_0(x) .. J_n_max(x) at one argument.  For
  |x| > 1 it runs Miller's backward recurrence
  J_{n-1} = (2n/x) J_n - J_{n+1} from an order well past both n_max and
  |x|, and normalises by the Neumann sum J_0 + 2 sum_k J_2k = 1
  (Abramowitz & Stegun 9.1.46, 9.12).  The recurrence converges to the
  minimal solution, so the error is relative, also deep in the tail where
  J_n decays super-exponentially; the kick kernel's KERNEL_TOL cut and
  the J_{q-1}/J_q ratio of analytic.eps_phase_slopes depend on that.  For
  |x| <= 1 it sums the power series (A&S 9.1.10), whose terms fall by at
  least x^2/4 per step.
* jn(n, x) indexes that table by |n|, with J_{-n} = (-1)^n J_n.
* j0(x) is vectorised over x, a port of the Cephes rational
  approximations that scipy.special.j0 evaluates: a rational function in
  x^2 with the first two zeros factored out for x <= 5, and the Hankel
  asymptotic form P cos(x - pi/4) - Q sin(x - pi/4) above.
"""

from __future__ import annotations

import math

import numpy as np

# Miller's recurrence starts at order max(n_max, |x|) + _START_PAD +
# _START_CUBE * |x|^(1/3): past the transition region of width ~|x|^(1/3)
# by a margin at which J falls far below 1e-16 of its peak.
_START_PAD = 20
_START_CUBE = 12.0
# Rescale the running recurrence before it can overflow.
_RESCALE_ABOVE = 1e250
# Power-series terms for |x| <= 1: the k-th term is below 4^-k / k!^2.
_SERIES_TERMS = 12

# Cephes j0.c coefficients (Moshier), x <= 5: J0 = (z - DR1)(z - DR2) RP(z)/RQ(z),
# z = x^2, with DR1 and DR2 the squares of the first two zeros.
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_RP = (
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
)
_RQ = (
    1.0,
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
)
# x > 5: J0 = sqrt(2/(pi x)) (P cos(x - pi/4) - (5/x) Q sin(x - pi/4)), with
# P = PP(w)/PQ(w) and Q = QP(w)/QQ(w) in w = 25/x^2.
_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ = (
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)


def jn_upto(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n_max(x) for one finite real x, as a float64 array."""
    n_max = int(n_max)
    x = float(x)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    ax = abs(x)
    table = _series(n_max, ax) if ax <= 1.0 else _miller(n_max, ax)
    if x < 0.0:  # J_n(-x) = (-1)^n J_n(x)
        table[1::2] *= -1.0
    return table


def jn(n, x: float) -> np.ndarray:
    """J_n(x) at integer orders n (any sign, any shape) and one finite x."""
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer):
        if not np.all(n == np.round(n)):
            raise ValueError("jn takes integer orders only")
        n = n.astype(np.int64)
    a = np.abs(n)
    table = jn_upto(int(a.max()) if a.size else 0, x)
    return table[a] * np.where((n < 0) & (a % 2 == 1), -1.0, 1.0)


def _series(n_max: int, x: float) -> np.ndarray:
    """Power series J_n(x) = (x/2)^n / n! * sum_k (-x^2/4)^k / (k! (n+1)_k), x <= 1."""
    n = np.arange(n_max + 1)
    lead = np.ones(n_max + 1)
    lead[1:] = np.cumprod(0.5 * x / n[1:])
    y = -0.25 * x * x
    term = np.ones(n_max + 1)
    total = np.ones(n_max + 1)
    for k in range(1, _SERIES_TERMS + 1):
        term *= y / (k * (n + k))
        total += term
    return lead * total


def _miller(n_max: int, x: float) -> np.ndarray:
    """Miller's backward recurrence with Neumann-sum normalisation, x > 1."""
    start = int(max(n_max, x) + _START_PAD + _START_CUBE * x ** (1.0 / 3.0))
    vals = [0.0] * (start + 1)
    two_over_x = 2.0 / x
    upper, value = 0.0, 1.0  # J_{start+1}, J_start up to a common factor
    for k in range(start, 0, -1):
        vals[k] = value
        upper, value = value, k * two_over_x * value - upper
        if abs(value) > _RESCALE_ABOVE:
            vals[k:] = [v / _RESCALE_ABOVE for v in vals[k:]]
            upper /= _RESCALE_ABOVE
            value /= _RESCALE_ABOVE
    vals[0] = value
    table = np.array(vals)
    neumann = table[0] + 2.0 * table[2::2].sum()
    return table[: n_max + 1] / neumann


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner evaluation, highest power first (Cephes polevl)."""
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def j0(x) -> np.ndarray:
    """J_0(x), elementwise over any real array; NaN where x is not finite."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.full(x.shape, np.nan)
    small = x <= 5.0
    xs = x[small]
    z = xs * xs
    near = (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _polevl(z, _RQ)
    out[small] = np.where(xs < 1e-5, 1.0 - z / 4.0, near)
    large = (x > 5.0) & np.isfinite(x)
    xl = x[large]
    w = 25.0 / (xl * xl)
    p = _polevl(w, _PP) / _polevl(w, _PQ)
    q = _polevl(w, _QP) / _polevl(w, _QQ)
    xn = xl - math.pi / 4.0
    out[large] = (p * np.cos(xn) - (5.0 / xl) * q * np.sin(xn)) * _SQ2OPI / np.sqrt(xl)
    return out[()]
