"""Physical-parameter derivations and unit round trips.

Frozen reference values were computed once from the defining formulas
with CODATA 2018 constants (hbar = 1.054571817e-34 J s, u =
1.66053906660e-27 kg, Rb-85 mass 84.911789738 u, 780 nm) and are pinned
here so that silent constant drift fails loudly.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kickecho.finite_pulse import FinitePulseSpec
from kickecho.params import (
    ATOMIC_MASS_KG,
    HBAR,
    RB85_MASS_U,
    derive_params,
    gamma_from_v0,
    rb85_params,
    v0_from_gamma,
)

# Independently evaluated: T_T = 4*pi*m/(hbar*(4*pi/lambda)^2) etc.
TALBOT_TIME_RB85 = 6.473218593053594e-05  # s
OMEGA_R_RB85 = 24266.07883256896  # rad/s
KAPPA_RB85 = 16110731.556870732  # 1/m
V0_GAMMA_1 = 2.0472258276741988e-29  # J, depth at gamma = 1
PHI_D_GAMMA_1_1US = 0.09706431533027583  # pulse area at gamma = 1, tau_p = 1 us


def test_frozen_rb85_values(params):
    assert params.talbot_time == pytest.approx(TALBOT_TIME_RB85, rel=1e-12)
    assert params.omega_r == pytest.approx(OMEGA_R_RB85, rel=1e-12)
    assert params.kappa == pytest.approx(KAPPA_RB85, rel=1e-12)
    assert params.mass == pytest.approx(RB85_MASS_U * ATOMIC_MASS_KG, rel=1e-15)


def test_talbot_identity(params):
    """One full Talbot period advances the q = 1 phase by exactly 2*pi."""
    ident = HBAR * params.kappa**2 * params.talbot_time / (2.0 * params.mass)
    assert ident == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert params.ladder_phase_rate * params.talbot_time == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )


def test_recoil_momentum(params):
    assert params.recoil_momentum == pytest.approx(HBAR * params.kappa, rel=1e-15)


def test_wavelength_doubling_quadruples_talbot():
    base = rb85_params(wavelength=780e-9)
    doubled = rb85_params(wavelength=1560e-9)
    assert doubled.talbot_time == pytest.approx(4.0 * base.talbot_time, rel=1e-12)
    assert doubled.kappa == pytest.approx(base.kappa / 2.0, rel=1e-12)


def test_derive_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        derive_params(mass=-1e-25, wavelength=780e-9)
    with pytest.raises(ValueError):
        derive_params(mass=1e-25, wavelength=0.0)
    with pytest.raises(ValueError):
        derive_params(mass=math.inf, wavelength=780e-9)


def test_lost_talbot_identity_is_a_value_error():
    """Every derived value is finite and positive here, but hbar kappa^2 is
    subnormal, so the identity fails; the error names mass and wavelength."""
    with pytest.raises(ValueError, match=r"mass 1e-300 kg and wavelength 1.3e\+144 m"):
        derive_params(1e-300, 1.3e144)


def test_v0_gamma_frozen_value(params):
    assert v0_from_gamma(1.0, params) == pytest.approx(V0_GAMMA_1, rel=1e-12)
    assert gamma_from_v0(V0_GAMMA_1, params) == pytest.approx(1.0, rel=1e-12)


def test_finite_pulse_phi_d_frozen_value(params):
    """FinitePulseSpec.phi_d is the one pulse-area formula V0*tau_p/(2*hbar)."""
    spec = FinitePulseSpec(4, V0_GAMMA_1, 1e-6, params.talbot_time)
    assert spec.phi_d == pytest.approx(PHI_D_GAMMA_1_1US, rel=1e-12)
    assert spec.phi_d == pytest.approx(V0_GAMMA_1 * 1e-6 / (2.0 * HBAR), rel=1e-12)
    assert spec.gamma(params) == pytest.approx(1.0, rel=1e-12)
    assert FinitePulseSpec(4, V0_GAMMA_1, 0.0, params.talbot_time).phi_d == 0.0


@given(gamma=st.floats(min_value=1e-3, max_value=1e3))
def test_gamma_round_trip(gamma):
    params = rb85_params()
    assert gamma_from_v0(v0_from_gamma(gamma, params), params) == pytest.approx(
        gamma, rel=1e-12
    )


@given(
    mass_u=st.floats(min_value=1.0, max_value=300.0),
    wavelength_nm=st.floats(min_value=200.0, max_value=2000.0),
)
def test_talbot_identity_everywhere(mass_u, wavelength_nm):
    p = derive_params(mass_u * ATOMIC_MASS_KG, wavelength_nm * 1e-9)
    ident = HBAR * p.kappa**2 * p.talbot_time / (2.0 * p.mass)
    assert ident == pytest.approx(2.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize(
    "mass_u,wavelength_nm",
    [(1.0, 1e300), (1e300, 1e11), (1.0, 1e-160), (1e-250, 1e-120), (1e300, 1e-150)],
)
def test_derived_values_out_of_double_range_raise(mass_u, wavelength_nm):
    """A recoil rate that underflows to 0 or overflows, or a Talbot time
    that does, is a ValueError, not a division or overflow error."""
    with pytest.raises(ValueError, match="not finite and positive"):
        derive_params(mass_u * ATOMIC_MASS_KG, wavelength_nm * 1e-9)
