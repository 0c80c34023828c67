"""dB-domain SNR budget for the satellite service link.

SNR = EIRP + G/T - 10 log10(k) - FSPL - SF - SL - AL - 10 log10(BW),
with every term carried in dB and summed with double-precision floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .constants import BOLTZMANN_TERM_DB
from .errors import DomainError

# Coverage floors of the narrowband radio, per reference bandwidth.
DL_SNR_FLOOR_DB = -14.5
DL_REFERENCE_BW_HZ = 180e3
UL_SNR_FLOOR_DB = -13.8
UL_REFERENCE_BW_HZ = 15e3
# Default loss terms of a service link (dB).
SHADOW_FADING_DB = 3.0
SCINTILLATION_DB = 2.2
ATMOSPHERIC_DB = 0.03
# Worst-case atmospheric loss, at the lowest service elevation (dB).
ATMOSPHERIC_DB_MAX = 0.2


class LinkDirection(Enum):
    DOWNLINK = "downlink"
    UPLINK = "uplink"


@dataclass(frozen=True)
class LinkBudgetParams:
    eirp_dbw: float
    g_over_t_db_k: float
    bandwidth_hz: float
    fspl_db: float
    shadow_fading_db: float = SHADOW_FADING_DB
    scintillation_db: float = SCINTILLATION_DB
    atmospheric_db: float = ATMOSPHERIC_DB
    boltzmann_term_db: float = BOLTZMANN_TERM_DB

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise DomainError("bandwidth must be positive")
        if self.fspl_db <= 0:
            raise DomainError("FSPL must be positive")
        if min(self.shadow_fading_db, self.scintillation_db, self.atmospheric_db) < 0:
            raise DomainError("loss terms must be non-negative")


def fspl(distance_km: float, frequency_ghz: float) -> float:
    """Free-space path loss in dB."""
    if distance_km <= 0 or frequency_ghz <= 0:
        raise DomainError("distance and frequency must be positive")
    return 92.45 + 20.0 * math.log10(distance_km) + 20.0 * math.log10(frequency_ghz)


def snr(params: LinkBudgetParams) -> float:
    """Expected SNR in dB."""
    return (
        params.eirp_dbw
        + params.g_over_t_db_k
        + params.boltzmann_term_db
        - params.fspl_db
        - params.shadow_fading_db
        - params.scintillation_db
        - params.atmospheric_db
        - 10.0 * math.log10(params.bandwidth_hz)
    )


def bandwidth_rescale(snr_db: float, bw_old_hz: float, bw_new_hz: float) -> float:
    """SNR after moving the same transmit power to a new bandwidth."""
    if bw_old_hz <= 0 or bw_new_hz <= 0:
        raise DomainError("bandwidths must be positive")
    return snr_db + 10.0 * math.log10(bw_old_hz / bw_new_hz)


def coverage_check(snr_db: float, direction: LinkDirection, bw_hz: float) -> bool:
    """Whether the link closes against the radio's SNR floor.

    SNR at a non-reference bandwidth is rescaled to the reference
    bandwidth before comparison; the boundary is inclusive.
    """
    if direction is LinkDirection.DOWNLINK:
        floor, ref_bw = DL_SNR_FLOOR_DB, DL_REFERENCE_BW_HZ
    else:
        floor, ref_bw = UL_SNR_FLOOR_DB, UL_REFERENCE_BW_HZ
    return bandwidth_rescale(snr_db, bw_hz, ref_bw) >= floor


def directional_antenna_adjust(
    params: LinkBudgetParams, gain_dbi: float
) -> LinkBudgetParams:
    """Add a directional antenna gain to the transmit EIRP."""
    if gain_dbi < 0:
        raise DomainError("antenna gain must be non-negative")
    return replace(params, eirp_dbw=params.eirp_dbw + gain_dbi)
