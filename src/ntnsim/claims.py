"""The paper's headline numbers, each listed once next to where ours comes
from (arXiv 2010.04906; 3GPP TR 36.763).  The bundled configs in
``CONFIG_DIR`` are the paper's scenarios: a row reads what the ``ntnsim``
command behind it prints for one of them (``cli.linkbudget_rows``,
``geometry_rows`` or ``doppler_trace_rows``), loaded when the row is
computed.  ``CONFIG_DIR`` is ``<repo>/configs``, so the table runs from a
source checkout only: an installed wheel has no configs.  The rescale,
LEO600 speed and period rows call the API.

``tests/test_acceptance.py`` checks every row against its tolerance and
``scripts/reproduce_overview_numbers.py`` prints the table.  A row whose
paper value is None is printed but not checked: the paper gives none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .cli import doppler_trace_rows, geometry_rows, linkbudget_rows
from .config import load_config
from .geometry import OrbitKind, OrbitSpec
from .linkbudget import bandwidth_rescale

CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"


@dataclass(frozen=True)
class Claim:
    name: str
    unit: str
    paper: Optional[float]
    compute: Callable[[], float]
    tolerance: float = 0.0
    relative: bool = False

    def error(self, value: float) -> float:
        """Ours minus the paper's, as a fraction of it for a relative tolerance."""
        return (value - self.paper) / (abs(self.paper) if self.relative else 1.0)


def _rows(rows_of, config, *args):
    """Header and rows of an ``ntnsim`` command on a bundled config."""
    return rows_of(load_config(CONFIG_DIR / f"{config}.json"), *args)


def _cell(rows_of, config, key, column="value"):
    """``column`` of the first row that holds ``key``: a link name, or a
    ``geometry`` metric (its first row is orbit 0's)."""
    header, rows = _rows(rows_of, config)
    return next(row[header.index(column)] for row in rows if key in row)


_linkbudget = partial(_cell, linkbudget_rows)
_geometry = partial(_cell, geometry_rows)


def _doppler(config, mode, statistic):
    _, rows = _rows(doppler_trace_rows, config, mode)
    return statistic([doppler for _, doppler in rows])


def _snr_rows(name, config, link, worst, best):
    """180 kHz SNR at 10 deg with the worst atmospheric loss, and at 90 deg."""
    at = partial(_linkbudget, config, link)
    return (
        Claim(f"{name} SNR at 10 deg", "dB", worst, partial(at, "snr_worst_db"), 0.15),
        Claim(f"{name} SNR at 90 deg", "dB", best, partial(at, "snr_best_db"), 0.15),
    )


def _fspl_rows(name, config, link, worst, best):
    at = partial(_linkbudget, config, link)
    return (
        Claim(f"{name} FSPL at 90 deg", "dB", best, partial(at, "fspl_best_db"), 0.1),
        Claim(f"{name} FSPL at 10 deg", "dB", worst, partial(at, "fspl_worst_db"), 0.1),
    )


def _leo(altitude_km):
    return OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=altitude_km)


def _period_min(altitude_km):
    return _leo(altitude_km).period_s() / 60.0


GEO, LEO = "geo_sband", "leo600_sband"

CLAIMS: tuple[Claim, ...] = (
    *_snr_rows("GEO DL", GEO, "geo_dl", 0.04, 1.27),
    *_snr_rows("GEO UL", GEO, "geo_ul", -7.96, -6.73),
    *_snr_rows("LEO DL", LEO, "leo_dl", 1.44, 11.8),
    *_snr_rows("LEO UL", LEO, "leo_ul", 0.54, 10.9),
    Claim("UL rescale 180 to 15 kHz", "dB", 10.792, partial(bandwidth_rescale, 0.0, 180e3, 15e3), 5e-4),
    *_fspl_rows("GEO", GEO, "geo_dl", 190.6, 189.5),
    *_fspl_rows("LEO600", LEO, "leo_dl", 164.2, 154.0),
    Claim("GEO RTT at 90 deg", "ms", 477.0, partial(_geometry, GEO, "rtt_min_ms"), 0.5),
    Claim("GEO RTT at 10 deg", "ms", 541.0, partial(_geometry, GEO, "rtt_max_ms"), 0.5),
    Claim("LEO600 RTT at 90 deg", "ms", 8.0, partial(_geometry, LEO, "rtt_min_ms"), 0.5),
    Claim("LEO600 RTT at 10 deg", "ms", 25.8, partial(_geometry, LEO, "rtt_max_ms"), 0.5),
    Claim("LEO600 inertial speed", "km/s", 7.56, _leo(600.0).inertial_speed_km_s, 0.005, True),
    Claim("LEO600 period", "min", None, partial(_period_min, 600.0)),
    Claim("LEO500 period", "min", 94.5, partial(_period_min, 500.0), 0.01, True),
    Claim("LEO2000 period", "min", 127.0, partial(_period_min, 2000.0), 0.01, True),
    # geometry looks at a LEO orbit on a pass overhead the equator at t = 3000 s.
    Claim("LEO600 max Doppler above 10 deg", "ppm", 24.0,
          partial(_geometry, LEO, "max_doppler_ppm"), 0.05, True),
    Claim("LEO600 visibility above 10 deg", "s", 450.0, partial(_geometry, LEO, "visibility_s"), 0.25, True),
    Claim("Inclined GEO peak Doppler at 59N", "Hz", 500.0,
          partial(_doppler, "inclined_geo", "inclined_geo", lambda d: max(map(abs, d))), 0.20, True),
    Claim("LEO600 Doppler span, 50 km beam", "Hz", None,
          partial(_doppler, "beam_profile", "beam_profile", lambda d: max(d) - min(d))),
    Claim("LEO600 differential delay, 1000 km beam", "ms", None,
          partial(_geometry, LEO, "differential_delay_ms")),
    Claim("GEO differential delay, 3500 km beam at 57N", "ms", None,
          partial(_geometry, GEO, "differential_delay_ms")),
)
