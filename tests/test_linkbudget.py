import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ntnsim.constants import BOLTZMANN_J_K, BOLTZMANN_TERM_DB
from ntnsim.errors import DomainError
from ntnsim.linkbudget import (
    DL_SNR_FLOOR_DB,
    LinkBudgetParams,
    LinkDirection,
    UL_SNR_FLOOR_DB,
    bandwidth_rescale,
    coverage_check,
    directional_antenna_adjust,
    fspl,
    snr,
)


def test_boltzmann_term():
    assert BOLTZMANN_TERM_DB == pytest.approx(-10.0 * math.log10(BOLTZMANN_J_K), rel=1e-12)
    assert BOLTZMANN_TERM_DB == pytest.approx(228.599, abs=5e-4)


def test_fspl_wavelength_oracle():
    # Independent oracle: 20*log10(4*pi*d/lambda).
    c = 299792458.0
    for d_km, f_ghz in ((35786.0, 2.0), (600.0, 2.0), (1000.0, 1.6)):
        lam_m = c / (f_ghz * 1e9)
        oracle = 20.0 * math.log10(4.0 * math.pi * d_km * 1000.0 / lam_m)
        # The conventional 92.45 constant is rounded from 92.4478.
        assert fspl(d_km, f_ghz) == pytest.approx(oracle, abs=5e-3)


@given(
    st.floats(min_value=1.0, max_value=50000.0),
    st.floats(min_value=0.4, max_value=6.0),
)
def test_fspl_monotone_in_distance_and_frequency(d, f):
    assert fspl(2.0 * d, f) == pytest.approx(fspl(d, f) + 20.0 * math.log10(2.0))
    assert fspl(d, 2.0 * f) == pytest.approx(fspl(d, f) + 20.0 * math.log10(2.0))


def test_fspl_rejects_nonpositive():
    with pytest.raises(DomainError):
        fspl(0.0, 2.0)
    with pytest.raises(DomainError):
        fspl(100.0, -1.0)


def _params(**kw):
    base = dict(
        eirp_dbw=51.6,
        g_over_t_db_k=-31.6,
        bandwidth_hz=180e3,
        fspl_db=190.0,
    )
    base.update(kw)
    return LinkBudgetParams(**base)


def test_snr_linear_oracle():
    # Recompute in linear units with k*T*B noise.
    p = _params()
    eirp_w = 10 ** (p.eirp_dbw / 10.0)
    g_over_t = 10 ** (p.g_over_t_db_k / 10.0)
    losses = 10 ** ((p.fspl_db + 3.0 + 2.2 + 0.03) / 10.0)
    linear = eirp_w * g_over_t / (losses * BOLTZMANN_J_K * p.bandwidth_hz)
    assert snr(p) == pytest.approx(10.0 * math.log10(linear), abs=1e-9)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_snr_additive_in_eirp(delta):
    assert snr(_params(eirp_dbw=51.6 + delta)) == pytest.approx(snr(_params()) + delta)


def test_bandwidth_rescale_exact_values():
    # The 180 -> 15 kHz direction is acceptance criterion 8.
    assert bandwidth_rescale(-5.0, 15e3, 180e3) == pytest.approx(-5.0 - 10.0 * math.log10(12.0))


@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=1e3, max_value=1e6),
    st.floats(min_value=1e3, max_value=1e6),
)
def test_bandwidth_rescale_roundtrip(s, bw1, bw2):
    assert bandwidth_rescale(bandwidth_rescale(s, bw1, bw2), bw2, bw1) == pytest.approx(
        s, abs=1e-9
    )


def test_coverage_floors_inclusive():
    assert coverage_check(DL_SNR_FLOOR_DB, LinkDirection.DOWNLINK, 180e3)
    assert not coverage_check(DL_SNR_FLOOR_DB - 1e-9, LinkDirection.DOWNLINK, 180e3)
    assert coverage_check(UL_SNR_FLOOR_DB, LinkDirection.UPLINK, 15e3)
    assert not coverage_check(UL_SNR_FLOOR_DB - 1e-9, LinkDirection.UPLINK, 15e3)


def test_coverage_rescales_to_reference_bandwidth():
    # An uplink at 180 kHz is rescaled up by 10.79 dB before the 15 kHz
    # floor comparison.
    gain = 10.0 * math.log10(12.0)
    assert coverage_check(UL_SNR_FLOOR_DB - gain, LinkDirection.UPLINK, 180e3)
    assert not coverage_check(UL_SNR_FLOOR_DB - gain - 1e-9, LinkDirection.UPLINK, 180e3)


def test_directional_antenna_adjust():
    p = _params()
    boosted = directional_antenna_adjust(p, 10.0)
    assert snr(boosted) == pytest.approx(snr(p) + 10.0)
    with pytest.raises(DomainError):
        directional_antenna_adjust(p, -1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        _params(bandwidth_hz=0.0)
    with pytest.raises(DomainError):
        _params(fspl_db=-1.0)
    with pytest.raises(DomainError):
        _params(shadow_fading_db=-0.1)
