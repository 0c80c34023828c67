"""Scenario configuration: JSON with explicit-unit field names.

Orbit kinds, link directions and drop kinds load as the domain enums
(``OrbitKind``, ``LinkDirection``, ``MessageKind``).  Unknown fields are
rejected, and every bad field is reported once, at its own path, through
:class:`ConfigError`.  An object's own cross-field checks run only once
all of its fields have loaded, with no unknown field beside them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DomainError
from .events import US_PER_MS
from .geometry import BeamSpec, GroundPosition, OrbitKind, OrbitSpec
from .linkbudget import (
    ATMOSPHERIC_DB,
    ATMOSPHERIC_DB_MAX,
    DL_SNR_FLOOR_DB,
    SCINTILLATION_DB,
    SHADOW_FADING_DB,
    UL_SNR_FLOOR_DB,
    LinkDirection,
)
from .protocol import AccessTiming, HarqConfig, MessageKind, TimerConfig, _check_non_negative

_MISSING = dataclasses.MISSING

# Most HARQ blocks or RLC PDUs one message may need; a transfer logs four
# (HARQ) or two (RLC) events per unit from a template built per scenario.
MAX_TRANSFER_UNITS = 1_000_000


def _check_elevation(name: str, value: float) -> None:
    if not 0.0 <= value <= 90.0:
        raise DomainError(f"{name} must lie in [0, 90] degrees")


_EXPECTED = {int: "an integer", bool: "a boolean", str: "a string"}


class CsvText(str):
    """A string field that a CLI CSV writes as one cell, so it may hold no
    comma, CR or LF; it loads as a plain ``str``."""


def _coerce(tp, value, path, errors):
    """``value`` loaded as a ``tp``, or None once its error is in ``errors``."""
    origin = typing.get_origin(tp)
    if origin is typing.Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None:
            return None
        return _coerce(args[0], value, path, errors)
    if origin is list:
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return None
        inner = typing.get_args(tp)[0]
        return [_coerce(inner, v, f"{path}[{i}]", errors) for i, v in enumerate(value)]
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, path, errors)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            allowed = ", ".join(repr(member.value) for member in tp)
            errors.append(f"{path}: unknown value {value!r}, expected one of {allowed}")
            return None
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected a number")
            return None
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            errors.append(f"{path}: expected a finite number")
            return None
        return value
    if tp is CsvText:
        text = _coerce(str, value, path, errors)
        if text is not None and set(text) & set(",\r\n"):
            errors.append(f"{path}: {text!r} holds a comma, CR or LF")
            return None
        return text
    if tp in _EXPECTED:
        if type(value) is not tp:  # so a boolean is not an integer
            errors.append(f"{path}: expected {_EXPECTED[tp]}")
            return None
        return value
    errors.append(f"{path}: unsupported field type {tp!r}")
    return None


@functools.cache
def _type_hints(cls) -> dict:
    """``cls``'s resolved field types; its string annotations are evaluated
    once per process."""
    return typing.get_type_hints(cls)


def _build(cls, data, path, errors):
    """A ``cls`` from the object ``data``, or None once its errors are in
    ``errors``; ``cls`` is built only if ``data`` added no error."""
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object")
        return None
    n_errors = len(errors)
    hints = _type_hints(cls)
    known = {f.name: f for f in dataclasses.fields(cls)}
    for key in sorted(set(data) - set(known)):
        errors.append(f"{path}.{key}: unknown field")
    kwargs = {}
    for name, f in known.items():
        if name in data:
            kwargs[name] = _coerce(hints[name], data[name], f"{path}.{name}", errors)
        elif f.default is _MISSING and f.default_factory is _MISSING:
            errors.append(f"{path}.{name}: missing required field")
    if len(errors) > n_errors:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:  # DomainError included
        errors.append(f"{path}: {exc}")
        return None


@dataclass(frozen=True)
class OrbitCfg:
    """``OrbitSpec``'s fields, with ``altitude_km`` required."""

    kind: OrbitKind
    altitude_km: float
    inclination_deg: float = 0.0
    raan_deg: float = 0.0
    phase_deg: float = 0.0
    epoch_s: float = 0.0

    def __post_init__(self):
        self.to_orbit_spec()  # surface altitude/inclination errors at load time

    def to_orbit_spec(self) -> OrbitSpec:
        return OrbitSpec(**vars(self))


@dataclass(frozen=True)
class ObserverCfg:
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        self.to_ground()  # surface latitude errors at load time

    def to_ground(self) -> GroundPosition:
        return GroundPosition(self.latitude_deg, self.longitude_deg, self.altitude_m)


@dataclass(frozen=True)
class BeamCfg:
    center_latitude_deg: float
    center_longitude_deg: float
    diameter_km: float

    def __post_init__(self):
        self.to_beam()  # surface latitude and diameter errors at load time

    def to_beam(self) -> BeamSpec:
        return BeamSpec(
            center=GroundPosition(self.center_latitude_deg, self.center_longitude_deg),
            diameter_km=self.diameter_km,
        )


@dataclass(frozen=True)
class CellCfg:
    cell_id: CsvText
    center_latitude_deg: float
    center_longitude_deg: float
    max_rtt_ms: float

    def __post_init__(self):
        self.center()  # surface latitude errors at load time
        if self.max_rtt_ms <= 0:
            raise DomainError("max RTT must be positive")

    def center(self) -> GroundPosition:
        return GroundPosition(self.center_latitude_deg, self.center_longitude_deg)


@dataclass(frozen=True)
class LinkCfg:
    name: CsvText
    orbit_index: int
    direction: LinkDirection
    eirp_dbw: float
    g_over_t_db_k: float
    bandwidth_hz: float
    shadow_fading_db: float = SHADOW_FADING_DB
    scintillation_db: float = SCINTILLATION_DB
    atmospheric_db_min: float = ATMOSPHERIC_DB
    atmospheric_db_max: float = ATMOSPHERIC_DB_MAX

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise DomainError("bandwidth must be positive")
        _check_non_negative(
            ("shadow fading loss", self.shadow_fading_db),
            ("scintillation loss", self.scintillation_db),
            ("maximum atmospheric loss", self.atmospheric_db_max),
            ("minimum atmospheric loss", self.atmospheric_db_min),
        )
        if self.atmospheric_db_min > self.atmospheric_db_max:
            raise DomainError("atmospheric loss bounds out of order")


@dataclass(frozen=True)
class TransferCfg:
    tbs_bits: float = 1000.0
    tti_ms: float = 4.0
    ack_processing_ms: float = 0.0
    rlc_window_pdus: int = 16
    rlc_pdu_bits: float = 1000.0

    def __post_init__(self):
        # ms_to_us(tti_ms) >= 1 (round takes 0.5 us to 0), as the TTI spaces
        # a transfer's sends; compared in float, since ms_to_us refuses a TTI
        # past the int64 us range, which fails at run time instead.
        if not self.tti_ms * US_PER_MS > 0.5:
            raise DomainError("TTI must round to at least 1 us")
        if self.tbs_bits <= 0 or self.rlc_pdu_bits <= 0:
            raise DomainError("transport block and RLC PDU sizes must be positive")
        if self.rlc_window_pdus < 1:
            raise DomainError("RLC window must be at least one PDU")
        _check_non_negative(("ACK processing time", self.ack_processing_ms))


@dataclass(frozen=True)
class TrafficCfg:
    message_size_bits: float
    inter_arrival_ms: float
    n_messages: int

    def __post_init__(self):
        if self.message_size_bits <= 0 or self.inter_arrival_ms <= 0:
            raise DomainError("traffic sizes and spacing must be positive")
        if self.n_messages < 1:
            raise DomainError("need at least one message")


@dataclass(frozen=True, kw_only=True)
class AccessCfg(AccessTiming):
    """The access timing plus the geometry and GNSS error of a scenario."""

    max_rtt_ms: float
    service_elevation_deg: float = 10.0
    feeder_elevation_deg: float = 10.0
    gnss_error_m: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.max_rtt_ms <= 0:
            raise DomainError("max RTT must be positive")
        if self.gnss_error_m < 0:
            raise DomainError("GNSS error must be non-negative")
        _check_elevation("service elevation", self.service_elevation_deg)
        _check_elevation("feeder elevation", self.feeder_elevation_deg)


@dataclass(frozen=True)
class ChannelCfg:
    snr_threshold_dl_db: float = DL_SNR_FLOOR_DB
    snr_threshold_ul_db: float = UL_SNR_FLOOR_DB
    repetitions: int = 1
    fading_sigma_db: float = 0.0
    drop_kinds: list[MessageKind] = field(default_factory=list)

    def __post_init__(self):
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")
        if self.fading_sigma_db < 0:
            raise DomainError("fading sigma must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    constellation: list[OrbitCfg]
    carrier_frequency_hz: float
    seed: int = 0
    min_elevation_deg: float = 10.0
    max_elevation_deg: float = 90.0
    observer: Optional[ObserverCfg] = None  # absent or null: (0, 0)
    beams: list[BeamCfg] = field(default_factory=list)
    cells: list[CellCfg] = field(default_factory=list)
    links: list[LinkCfg] = field(default_factory=list)
    timers: TimerConfig = field(default_factory=TimerConfig)
    harq: HarqConfig = field(default_factory=HarqConfig)
    transfer: TransferCfg = field(default_factory=TransferCfg)
    traffic: Optional[TrafficCfg] = None
    access: Optional[AccessCfg] = None
    channel: ChannelCfg = field(default_factory=ChannelCfg)

    def __post_init__(self):
        if self.observer is None:
            object.__setattr__(self, "observer", ObserverCfg(0.0, 0.0))
        if not self.constellation:
            raise DomainError("constellation must contain at least one orbit")
        if self.carrier_frequency_hz <= 0:
            raise DomainError("carrier frequency must be positive")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed {self.seed} outside [0, 2**64)")
        _check_elevation("min elevation", self.min_elevation_deg)
        _check_elevation("max elevation", self.max_elevation_deg)
        if self.min_elevation_deg > self.max_elevation_deg:
            raise DomainError("min elevation exceeds max elevation")
        first = {}  # (orbit_index, direction) -> the index of its link
        for i, link in enumerate(self.links):
            if not 0 <= link.orbit_index < len(self.constellation):
                raise DomainError(
                    f"link {link.name!r}: orbit_index {link.orbit_index} outside the constellation"
                )
            key = (link.orbit_index, link.direction.value)
            if first.setdefault(key, i) != i:
                raise DomainError(
                    f"links[{i}]: duplicates links[{first[key]}] (orbit_index, direction) {key}"
                )
        # The ratio is compared before rounding up: two finite sizes may give inf.
        if (
            self.traffic is not None
            and self.traffic.message_size_bits / self._unit_bits() > MAX_TRANSFER_UNITS
        ):
            raise DomainError(f"a message needs more than {MAX_TRANSFER_UNITS} transfer units")

    def _unit_bits(self) -> float:
        return self.transfer.tbs_bits if self.harq.enabled else self.transfer.rlc_pdu_bits

    def transfer_units(self) -> int:
        """HARQ blocks (HARQ enabled) or RLC PDUs one message needs."""
        return math.ceil(self.traffic.message_size_bits / self._unit_bits())


def load_config_dict(data: dict) -> ScenarioConfig:
    errors: list[str] = []
    cfg = _build(ScenarioConfig, data, "config", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is an error."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"duplicate key {key!r}")
        members[key] = value
    return members


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError([f"config: {exc}"])
    return load_config_dict(data)
