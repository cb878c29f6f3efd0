"""The numpy-only Bessel functions against scipy.special and exact identities.

scipy stays the reference here, so the package's own J_n and J_0 are
checked by an implementation they share no code with.  In the monotone
tail (order d >= x) J_d has no zeros and the error bound is relative,
which is what the kick kernel's KERNEL_TOL cut needs; where J_d
oscillates (d < x) no relative bound can hold near its zeros, and the
bound is absolute.  scipy's jv is itself off a 40-digit evaluation by up
to 1.2e-13 relative in the tail over phi in [0, 100], so the tail bound
against it is TAIL_RTOL; test_jn_tail_against_mpmath holds the package to
1e-13 against exact values where mpmath is installed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from kickecho import _bessel
from kickecho.ladder import KERNEL_TOL, kick_kernel

# Largest differences seen against scipy on 20001 phi in [0, 100]:
# 1.19e-13 relative in the tail, 8.0e-15 absolute in the oscillating range.
TAIL_RTOL = 5e-13
OSC_ATOL = 5e-14
# J_0 is the same Cephes approximation as scipy's: bit-identical on a
# 2,000,001-point grid over [0, 5000] with this numpy; the bound leaves
# room for another libm's sin and cos.
J0_ATOL = 1e-15


def _kernel_orders(phi):
    """Orders 0 .. d_max that kick_kernel evaluates before its cut."""
    return max(4, int(math.ceil(phi + 12.0 + 8.0 * phi ** (1.0 / 3.0))))


def _scipy_kernel_half_width(phi):
    ref = special.jv(np.arange(_kernel_orders(phi) + 1), phi)
    keep = np.nonzero(np.abs(ref) >= KERNEL_TOL)[0]
    return int(keep[-1]) if keep.size else 0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0))
@example(0.0)
@example(1e-300)
@example(1.0)
@example(1.0 + 1e-15)
@example(2.404825557695773)  # first zero of J_0
@example(100.0)
def test_jn_upto_matches_scipy(phi):
    d = np.arange(_kernel_orders(phi) + 1)
    ours = _bessel.jn_upto(d[-1], phi)
    ref = special.jv(d, phi)
    tail = (d >= phi) & (np.abs(ref) >= KERNEL_TOL)
    rel = np.abs(ours[tail] - ref[tail]) / np.abs(ref[tail])
    assert rel.max(initial=0.0) <= TAIL_RTOL
    osc = d < phi
    assert np.abs(ours[osc] - ref[osc]).max(initial=0.0) <= OSC_ATOL


def test_jn_tail_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    # Every tail order up to phi = 100; a sample of them at the analytic
    # layer's largest argument, N phi_d = 2500, where mpmath is slow.
    for phi, step in ((0.37, 1), (1.5, 1), (7.25, 1), (33.3, 1), (99.9, 1), (2500.0, 16)):
        d = np.arange(int(phi), _kernel_orders(phi) + 1, step)
        exact = np.array([float(mpmath.besselj(int(k), mpmath.mpf(phi))) for k in d])
        ours = _bessel.jn_upto(d[-1], phi)[d]
        keep = exact >= KERNEL_TOL
        assert np.all(np.abs(ours[keep] - exact[keep]) <= 1e-13 * exact[keep])


def test_kick_kernel_length_matches_scipy_on_dense_grid():
    for phi in np.linspace(0.0, 100.0, 2001):
        kernel = kick_kernel(float(phi))
        assert (len(kernel) - 1) // 2 == _scipy_kernel_half_width(float(phi))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0), st.sampled_from([+1, -1]))
def test_kick_kernel_matches_scipy_weights(phi, sign):
    kernel = kick_kernel(phi, sign)
    half = (len(kernel) - 1) // 2
    d = np.arange(-half, half + 1)
    ref = (sign * -1j) ** d * special.jv(d, phi)
    scale = np.where(np.abs(d) >= phi, np.abs(ref) * TAIL_RTOL, OSC_ATOL)
    assert np.all(np.abs(kernel - ref) <= scale)


def test_jn_sign_rules_match_scipy():
    n = np.arange(-9, 10)
    for x in (-7.5, -0.4, 0.4, 7.5):
        np.testing.assert_allclose(_bessel.jn(n, x), special.jv(n, x), rtol=1e-13, atol=1e-15)
    assert _bessel.jn(3, 2.0) == pytest.approx(special.jv(3, 2.0), rel=1e-14)


def test_jn_upto_far_past_the_argument():
    """Orders whose J_n underflows: the recurrence rescales instead of
    overflowing, and the representable values keep their relative error."""
    d = np.arange(401)
    ours = _bessel.jn_upto(400, 1.5)
    ref = special.jv(d, 1.5)
    assert np.isfinite(ours).all()
    keep = ref >= 1e-280
    assert keep.sum() > 100
    np.testing.assert_allclose(ours[keep], ref[keep], rtol=TAIL_RTOL)
    assert (ours[~keep] <= 1e-270).all()


def test_jn_rejects_bad_input():
    with pytest.raises(ValueError):
        _bessel.jn(np.array([0.5]), 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _bessel.jn_upto(3, bad)
    with pytest.raises(ValueError):
        _bessel.jn_upto(-1, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5000.0), min_size=1, max_size=50))
@example([0.0, 1e-6, 5.0, 5.000000000000001, 2.404825557695773, 5000.0])
def test_j0_matches_scipy(xs):
    x = np.array(xs)
    assert np.abs(_bessel.j0(x) - special.j0(x)).max() <= J0_ATOL
    assert np.abs(_bessel.j0(-x) - special.j0(x)).max() <= J0_ATOL


def test_j0_on_dense_grid_and_non_finite():
    x = np.linspace(0.0, 5000.0, 200001)
    assert np.abs(_bessel.j0(x) - special.j0(x)).max() <= J0_ATOL
    assert np.isnan(_bessel.j0(np.array([np.inf, -np.inf, np.nan]))).all()
    assert isinstance(_bessel.j0(2.0), float)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=2500.0))
@example(0.0)
@example(1.0)
@example(2500.0)
def test_neumann_sum_and_recurrence(x):
    n_max = int(x + 40.0 + 12.0 * x ** (1.0 / 3.0))
    j = _bessel.jn_upto(n_max, x)
    # J_0 + 2 sum_k J_2k = 1 (A&S 9.1.46); the sum's terms reach
    # sqrt(2 / (pi x)) each, so rounding grows like sqrt(x).
    assert abs(j[0] + 2.0 * j[2::2].sum() - 1.0) <= 1e-15 * (4.0 + math.sqrt(x))
    if x > 0.0:
        # J_{n-1} + J_{n+1} = (2n/x) J_n, relative to the terms' size.
        # Triples with a term near underflow, where it has lost its
        # relative precision or flushed to 0, are left out.
        n = np.arange(1, n_max)
        with np.errstate(over="ignore", invalid="ignore"):
            middle = 2.0 * n / x * j[1:-1]
        smallest = np.minimum(np.abs(j[:-2]), np.minimum(np.abs(j[1:-1]), np.abs(j[2:])))
        ok = np.isfinite(middle) & (smallest >= 1e-300)
        size = np.abs(j[:-2]) + np.abs(j[2:]) + np.abs(middle)
        residual = np.abs(j[:-2] + j[2:] - middle)
        assert np.all(residual[ok] <= 1e-14 * size[ok])
