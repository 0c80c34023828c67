import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ntnsim import cli
from ntnsim.cli import _cell, _write_csv, main
from ntnsim.config import load_config
from ntnsim.constants import SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S
from ntnsim.engine import run_scenario
from ntnsim.events import MEASUREMENT, TIMER_FIRE, Simulator


@pytest.mark.parametrize("value", [-0.0, -4e-7, -5e-7, 0.0, 4e-7])
def test_cell_prints_no_negative_zero(value):
    assert _cell(value) == "0.000000"


@given(st.floats())
def test_cell_prints_other_floats_at_six_places(value):
    if round(value, 6) != 0.0:
        assert _cell(value) == f"{value:.6f}"


def test_linkbudget_text_and_csv(config_dir, tmp_path, capsys):
    assert main([
        "linkbudget", "--config", str(config_dir / "geo_sband.json"), "--out", str(tmp_path)
    ]) == 0
    text = capsys.readouterr().out
    assert "geo_dl" in text and "snr_worst_db" in text
    csv_path = tmp_path / "linkbudget.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "link,direction,fspl_worst_db,fspl_best_db,snr_worst_db,snr_best_db"


def test_geometry_command(config_dir, tmp_path):
    assert main([
        "geometry", "--config", str(config_dir / "leo600_sband.json"), "--out", str(tmp_path)
    ]) == 0
    body = (tmp_path / "geometry.csv").read_text()
    assert "max_doppler_ppm" in body and "visibility_s" in body


def test_geometry_accepts_a_zero_min_elevation(config_dir, tmp_path):
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d.update(min_elevation_deg=0.0))
    assert main(["geometry", "--config", path, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "geometry.csv").read_text().splitlines()]
    visibility = next(float(row[3]) for row in rows if row[2] == "visibility_s")
    assert visibility > 600.0  # a 600 km pass lasts about 12 minutes from horizon to horizon


def _geometry_values(config_dir, tmp_path, name, edit) -> dict:
    """The geometry command's metric values for a bundled config after
    ``edit``."""
    data = json.loads((config_dir / name).read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["geometry", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "geometry.csv").read_text().splitlines()]
    return {row[2]: float(row[3]) for row in rows[1:]}


def test_geometry_of_a_geo_satellite_below_the_horizon(config_dir, tmp_path):
    """A GEO satellite on the far side of the earth never rises: no
    visibility and no Doppler, not a visibility of inf and the Doppler of
    samples below the horizon."""
    far = lambda data: data["constellation"][0].update(raan_deg=180.0)
    values = _geometry_values(config_dir, tmp_path, "geo_sband.json", far)
    assert values["visibility_s"] == 0.0
    assert values["max_doppler_hz"] == 0.0


def test_geometry_of_a_geo_satellite_that_sets(config_dir, tmp_path):
    """Inclined GEO seen between 12.5 and 33.8 degrees: above 10 degrees
    all day (inf), above 25 degrees for part of it, below 40 never."""
    def at(min_el):
        edit = lambda data: data.update(min_elevation_deg=min_el)
        return _geometry_values(config_dir, tmp_path, "inclined_geo.json", edit)

    always, part, never = at(10.0), at(25.0), at(40.0)
    assert always["visibility_s"] == math.inf
    assert 0.0 < part["visibility_s"] < SIDEREAL_DAY_S
    assert 0.0 < part["max_doppler_hz"] <= always["max_doppler_hz"]
    assert (never["visibility_s"], never["max_doppler_hz"]) == (0.0, 0.0)


def test_doppler_trace_modes(config_dir, tmp_path):
    assert main([
        "doppler-trace", "--config", str(config_dir / "inclined_geo.json"),
        "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "doppler_trace_inclined_geo.csv").exists()
    assert main([
        "doppler-trace", "--config", str(config_dir / "beam_profile.json"),
        "--mode", "beam_profile", "--out", str(tmp_path),
    ]) == 0
    assert (tmp_path / "doppler_trace_beam_profile.csv").exists()


def test_geo_beam_profile_is_seen_from_the_geo_satellite(config_dir, tmp_path):
    """geo_sband's 3500 km beam is served by the geostationary satellite at
    its epoch position, as for the geometry command's differential delay,
    not by one overhead the beam centre: no Doppler spread across it."""
    assert main([
        "doppler-trace", "--config", str(config_dir / "geo_sband.json"),
        "--mode", "beam_profile", "--out", str(tmp_path),
    ]) == 0
    rows = (tmp_path / "doppler_trace_beam_profile.csv").read_text().splitlines()[1:]
    assert len(rows) == 101
    assert max(abs(float(row.split(",")[1])) for row in rows) < 1e-3


@pytest.mark.parametrize(
    "config, edit, mode, message",
    [
        # The geostationary satellite over longitude 0 sets about 81.3
        # degrees from the point under it, so the beam's far edge at
        # latitude 89 + 15.7 (over the pole) cannot see it.
        ("geo_sband.json", lambda d: d["beams"][0].update(center_latitude_deg=89.0),
         "beam_profile", "beam profile extends below the horizon"),
        # The inclined GEO satellite is never more than 10 degrees of
        # latitude from the equator, below the horizon all day from -89.
        ("inclined_geo.json", lambda d: d.update(observer={"latitude_deg": -89.0, "longitude_deg": 180.0}),
         "inclined_geo", "orbit 0 is below the observer's horizon at time_of_day_s 0"),
    ],
    ids=["beam_profile", "inclined_geo"],
)
def test_doppler_trace_of_a_satellite_below_the_horizon_exits_3(
    config_dir, tmp_path, capsys, config, edit, mode, message
):
    data = json.loads((config_dir / config).read_text())
    edit(data)
    path = tmp_path / "below.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["doppler-trace", "--config", str(path), "--mode", mode, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"runtime failure: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_simulate_writes_report_and_trace(config_dir, tmp_path):
    assert main([
        "simulate", "--config", str(config_dir / "leo600_sband.json"),
        "--out", str(tmp_path), "--seed", "5",
    ]) == 0
    report = json.loads((tmp_path / "report_seed5.json").read_text())
    assert report["access_attempts"] == 5
    assert (tmp_path / "trace_seed5.csv").exists()


def test_simulate_jobs_runs_multiple_seeds(config_dir, tmp_path):
    assert main([
        "simulate", "--config", str(config_dir / "leo600_sband.json"),
        "--out", str(tmp_path), "--seed", "11", "--jobs", "3",
    ]) == 0
    for seed in (11, 12, 13):
        assert (tmp_path / f"report_seed{seed}.json").exists()
    single = tmp_path / "single"
    assert main([
        "simulate", "--config", str(config_dir / "leo600_sband.json"),
        "--out", str(single), "--seed", "12",
    ]) == 0
    for name in ("report_seed12.json", "trace_seed12.csv"):
        assert (tmp_path / name).read_bytes() == (single / name).read_bytes()


def test_rank_cells_command(config_dir, tmp_path):
    assert main([
        "rank-cells", "--config", str(config_dir / "leo600_sband.json"),
        "--out", str(tmp_path), "--format", "csv",
    ]) == 0
    lines = (tmp_path / "rank_cells.csv").read_text().splitlines()
    assert lines[1].startswith("1,cell_a")


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "constellation": [], "carrier_frequency_hz": 2e9}')
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main([
        "simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)
    ]) == 2


@pytest.mark.parametrize(
    "content",
    [b'{"name": "\xff"}', b"[" * 100000],
    ids=["invalid_utf8", "deeply_nested"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["linkbudget", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config fields: config: ") and "Traceback" not in err


def test_missing_section_exits_2(config_dir, tmp_path):
    # the inclined-geo config has no cells; rank-cells treats that as a config error.
    assert main([
        "rank-cells", "--config", str(config_dir / "inclined_geo.json"),
        "--out", str(tmp_path),
    ]) == 2


@pytest.mark.parametrize(
    "longitude_deg, max_rtt_ms",
    [(0.0, 0.001), (120.0, 200.0)],
    ids=["rtt_too_long", "satellite_below_horizon"],
)
def test_unsuitable_cells_exit_3(config_dir, tmp_path, longitude_deg, max_rtt_ms):
    # At longitude 120 the satellite is 58.5 deg below the horizon: no
    # RTT estimate exists, however long a cell allows.
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["observer"]["longitude_deg"] = longitude_deg
    for cell in data["cells"]:
        cell["max_rtt_ms"] = max_rtt_ms
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(data))
    assert main(["rank-cells", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_rank_cells_takes_the_rtt_from_every_orbit(config_dir, tmp_path):
    # The first orbit's satellite is 58.5 deg below the observer at (0, 120);
    # a copy of the orbit at RAAN 120 puts a second one overhead.
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["observer"]["longitude_deg"] = 120.0
    data["constellation"].append(dict(data["constellation"][0], raan_deg=120.0))
    for cell in data["cells"]:
        cell["max_rtt_ms"] = 200.0
    cfg = tmp_path / "two_orbits.json"
    cfg.write_text(json.dumps(data))
    assert main(["rank-cells", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "rank_cells.csv").read_text().splitlines()[1:]
    assert len(rows) == len(data["cells"])
    # The overhead satellite's round trip: 4 x 600 km at the speed of light.
    zenith_rtt_ms = 4.0 * 600.0 / SPEED_OF_LIGHT_KM_S * 1000.0
    assert all(float(row.split(",")[3]) == pytest.approx(zenith_rtt_ms, abs=1e-6) for row in rows)


def test_csv_output_byte_stable(config_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "simulate", "--config", str(config_dir / "geo_sband.json"),
            "--out", str(out), "--seed", "9",
        ]) == 0
    assert (out1 / "report_seed9.json").read_bytes() == (out2 / "report_seed9.json").read_bytes()
    assert (out1 / "trace_seed9.csv").read_bytes() == (out2 / "trace_seed9.csv").read_bytes()


# sha256 of the stdout of one run per command in each --format.
STDOUT_SHA256 = {
    ("linkbudget", "csv"): "e9690699a1971f8ce7869a9bc580bd198b17ee6eea6f9e40c0766e722dd208bb",
    ("linkbudget", "text"): "11fa5788c1e6c971e6e37768e137b23dd9b09ff5c2ef57f46b7b4a6e2ee84f33",
    ("geometry", "csv"): "23b356ed89480032ca2c524bef4373e9d8378d538fdf5a738dc98fb28ced75d4",
    ("geometry", "text"): "3742443ba8e14c5568e73d3684bb050da8bf825ef618b5627e3b2251d5f8cefd",
    ("rank-cells", "csv"): "606c62fdea36df4814039c0570c1b2a202a9f50fbb0e48262bdad93c5607061c",
    ("rank-cells", "text"): "e72f7e3483f1f2bfe25ca376676817ff11c530a006f4800b839b4ae418a3b1ba",
    ("simulate", "csv"): "c21410c79d3e2783d0c3e3a0681d42439769a9a28d6258e8c638c072c846660d",
    ("simulate", "text"): "2c4bc21ab255a6747dbd05a93167a35d1a5c635d7e5b3c2822a0e41c22fa8f6f",
}
STDOUT_ARGS = {
    "linkbudget": ["--config", "geo_sband.json"],
    "geometry": ["--config", "leo600_sband.json"],
    "rank-cells": ["--config", "leo600_sband.json"],
    "simulate": ["--config", "geo_sband.json", "--seed", "1", "--jobs", "2"],
}


@pytest.mark.parametrize("command, fmt", sorted(STDOUT_SHA256))
def test_stdout_is_pinned_in_both_formats(config_dir, tmp_path, capsys, command, fmt):
    flag, config, *rest = STDOUT_ARGS[command]
    argv = [command, flag, str(config_dir / config), *rest, "--out", str(tmp_path), "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[(command, fmt)]
    if fmt == "csv":  # the CSV on stdout is the file's text
        (csv_path,) = (p for p in tmp_path.glob("*.csv") if not p.name.startswith("trace_"))
        assert out == csv_path.read_text()


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_simulate_rejects_bad_jobs_at_argparse(config_dir, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", "--config", str(config_dir / "leo600_sband.json"),
            "--out", str(tmp_path), "--jobs", jobs,
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, config",
    [
        ("linkbudget", "leo600_sband.json"),
        ("geometry", "leo600_sband.json"),
        ("doppler-trace", "inclined_geo.json"),
        ("rank-cells", "leo600_sband.json"),
    ],
)
def test_jobs_is_a_simulate_flag(config_dir, tmp_path, capsys, command, config):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_dir / config), "--out", str(tmp_path),
              "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _edited_leo_config(config_dir, tmp_path, edit) -> str:
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _exits_2_at_load(config_path, tmp_path, capsys, message):
    out = tmp_path / "out"
    # linkbudget first: it never transfers, so a missing check fails fast.
    for command in ("linkbudget", "simulate"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["constellation"][0].update(kind="meo"),
         "config.constellation[0].kind: unknown value 'meo'"),
        (lambda d: d["links"][0].update(direction="sideways"),
         "config.links[0].direction: unknown value 'sideways'"),
        (lambda d: d["channel"].update(drop_kinds=["msg2_rar", "bogus"]),
         "config.channel.drop_kinds[1]: unknown value 'bogus'"),
    ],
    ids=["orbit_kind", "link_direction", "drop_kind"],
)
def test_unknown_enum_value_exits_2(config_dir, tmp_path, capsys, edit, message):
    _exits_2_at_load(_edited_leo_config(config_dir, tmp_path, edit), tmp_path, capsys, message)


def test_link_orbit_index_outside_constellation_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d["links"][1].update(orbit_index=7))
    _exits_2_at_load(path, tmp_path, capsys, "orbit_index 7 outside the constellation")


def test_duplicate_link_exits_2(config_dir, tmp_path, capsys):
    """Two links for one (orbit_index, direction) are rejected, not left to
    the last one."""
    path = _edited_leo_config(
        config_dir, tmp_path, lambda d: d["links"].append(dict(d["links"][0], name="dl2"))
    )
    _exits_2_at_load(
        path, tmp_path, capsys,
        "config: links[2]: duplicates links[0] (orbit_index, direction) (0, 'downlink')",
    )


def _second_orbit(data):
    data["constellation"].append(dict(data["constellation"][0], phase_deg=180.0))


def _weak_uplink_on_orbit_1(data):
    _second_orbit(data)
    data["links"][1].update(eirp_dbw=-67.0, orbit_index=1)


NO_UPLINK = "config.links: orbit 0 has no uplink, which simulate needs"
TWO_ORBITS = "config.constellation: simulate runs one orbit, not 2"
LINK_HOLES = {
    # Each ran and exited 0, reading a missing direction as 100 dB (5 of 5
    # successes) and ignoring every orbit but the first.
    "uplink_removed": (lambda d: d["links"].pop(1), [NO_UPLINK]),
    "downlink_removed": (
        lambda d: d["links"].pop(0),
        ["config.links: orbit 0 has no downlink, which simulate needs"],
    ),
    "weak_uplink_on_orbit_1": (_weak_uplink_on_orbit_1, [NO_UPLINK, TWO_ORBITS]),
    "second_orbit": (_second_orbit, [TWO_ORBITS]),
}


@pytest.mark.parametrize("hole", LINK_HOLES)
def test_simulate_refuses_a_link_hole(config_dir, tmp_path, capsys, hole):
    edit, messages = LINK_HOLES[hole]
    path = _edited_leo_config(config_dir, tmp_path, edit)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(message in err for message in messages) and "Traceback" not in err
    assert not out.exists()
    # The other commands keep reading every orbit and link.
    assert main(["linkbudget", "--config", path, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["linkbudget", "--config", "leo600_sband.json"], "linkbudget: links 2, worst SNR 0.557 dB"),
        (["linkbudget", "--config", "geo_sband.json"], "linkbudget: links 2, worst SNR -7.991 dB"),
        (
            ["doppler-trace", "--config", "inclined_geo.json"],
            "doppler-trace: mode inclined_geo, rows 1437, max |doppler| 496.931 Hz",
        ),
        (
            ["doppler-trace", "--config", "beam_profile.json", "--mode", "beam_profile"],
            "doppler-trace: mode beam_profile, rows 101, max |doppler| 2104.676 Hz",
        ),
    ],
    ids=["linkbudget-leo", "linkbudget-geo", "inclined_geo", "beam_profile"],
)
def test_linkbudget_and_doppler_trace_log_one_info_line(
    config_dir, tmp_path, capsys, caplog, argv, message
):
    """At INFO, one summary line: the links and the worst SNR; the mode, the
    rows and the largest |Doppler|.  Nothing at WARNING, and stdout and the
    files are the same bytes at both levels."""
    argv = [*argv[:2], str(config_dir / argv[2]), *argv[3:]]
    outputs = []
    for level, messages in ((logging.WARNING, []), (logging.INFO, [message])):
        caplog.clear()
        caplog.set_level(level, logger="ntnsim")
        out = tmp_path / logging.getLevelName(level)
        assert main([*argv, "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "ntnsim"] == messages
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]


def test_simulate_frees_each_seed_before_the_next_runs(config_dir, tmp_path, monkeypatch):
    """A seed's result, trace included, is dead when the next seed starts."""
    traces = []

    def run_scenario_checked(config, seed):
        assert all(trace() is None for trace in traces)
        result = run_scenario(config, seed=seed)
        traces.append(weakref.ref(result.trace))
        return result

    monkeypatch.setattr(cli, "run_scenario", run_scenario_checked)
    argv = ["simulate", "--config", str(config_dir / "leo600_sband.json"), "--out", str(tmp_path),
            "--seed", "11", "--jobs", "3"]
    assert main(argv) == 0
    assert len(traces) == 3


def test_simulate_logs_each_seed_at_info_and_each_path_at_debug(
    config_dir, tmp_path, capsys, caplog
):
    """INFO gives a seed's report counts; DEBUG adds each path that
    occurred, with its count and first message.  At WARNING nothing is
    logged, and at every level stdout and the files are the same bytes."""
    def noisy(data):
        data["access"]["gnss_error_m"] = 3000.0
        data["channel"]["fading_sigma_db"] = 6.0
        data["traffic"]["n_messages"] = 200

    path = _edited_leo_config(config_dir, tmp_path, noisy)
    info = [
        "seed 3: 200 attempts, 175 successes, failure causes {'rar_timeout': 1, 'ta_range': 24}",
        "seed 4: 200 attempts, 178 successes, failure causes {'rar_timeout': 1, 'ta_range': 21}",
    ]
    debug = [
        "seed 3: success: 175 messages, the first is message 0",
        "seed 3: rar_timeout: 1 messages, the first is message 191",
        "seed 3: ta_range: 24 messages, the first is message 3",
        "seed 4: success: 178 messages, the first is message 0",
        "seed 4: rar_timeout: 1 messages, the first is message 56",
        "seed 4: ta_range: 21 messages, the first is message 16",
    ]
    expected = {
        logging.WARNING: [],
        logging.INFO: info,
        logging.DEBUG: [info[0], *debug[:3], info[1], *debug[3:]],
    }
    outputs = []
    for level, messages in expected.items():
        caplog.clear()
        caplog.set_level(level, logger="ntnsim")
        out = tmp_path / logging.getLevelName(level)
        argv = ["simulate", "--config", path, "--out", str(out), "--seed", "3", "--jobs", "2"]
        assert main(argv) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "ntnsim"] == messages
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_runs_a_weak_uplink_on_orbit_0(config_dir, tmp_path):
    """The hole table's control: the weak uplink of the orbit-1 row, left
    on orbit 0, is read, and no access gets through it."""
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d["links"][1].update(eirp_dbw=-67.0))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "report_seed1.json").read_text())["access_successes"] == 0


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"seed": 1,', '"seed": 7, "seed": 1,', "seed"),
        ('"max_rtt_ms": 26.0,', '"max_rtt_ms": 1.0, "max_rtt_ms": 26.0,', "max_rtt_ms"),
    ],
    ids=["top_level", "nested"],
)
def test_a_key_repeated_in_one_object_exits_2(config_dir, tmp_path, capsys, old, new, key):
    """JSON would keep the last value; the config rejects the repeat."""
    text = (config_dir / "leo600_sband.json").read_text()
    assert text.count(old) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new))
    _exits_2_at_load(str(path), tmp_path, capsys, f"config: duplicate key {key!r}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["cells"][0].update(cell_id="a,b"),
         "config.cells[0].cell_id: 'a,b' holds a comma, CR or LF"),
        (lambda d: d["links"][1].update(name="leo\nul"),
         "config.links[1].name: 'leo\\nul' holds a comma, CR or LF"),
        (lambda d: d["links"][0].update(name="dl\r"),
         "config.links[0].name: 'dl\\r' holds a comma, CR or LF"),
    ],
    ids=["comma_in_cell_id", "lf_in_link_name", "cr_in_link_name"],
)
def test_a_name_that_would_split_a_csv_row_exits_2(config_dir, tmp_path, capsys, edit, message):
    path = _edited_leo_config(config_dir, tmp_path, edit)
    assert main(["rank-cells", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    _exits_2_at_load(path, tmp_path, capsys, message)


def test_an_rlc_window_beyond_int64_simulates_as_the_whole_message(config_dir, tmp_path):
    """geo_sband's message is 4 RLC PDUs: a window of 2**70 sends them as
    one window of 4 does, byte for byte."""
    outputs = []
    for window in (4, 2**70):
        data = json.loads((config_dir / "geo_sband.json").read_text())
        data["harq"]["enabled"] = False
        data["transfer"]["rlc_window_pdus"] = window
        path, out = tmp_path / f"w{window}.json", tmp_path / f"out{window}"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "2"]) == 0
        outputs.append([(out / f).read_bytes() for f in ("report_seed2.json", "trace_seed2.csv")])
    assert load_config(tmp_path / "w4.json").transfer_units() == 4
    assert outputs[1] == outputs[0]


def test_non_finite_number_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(
        config_dir, tmp_path, lambda d: d["access"].update(gnss_error_m=float("nan"))
    )
    _exits_2_at_load(path, tmp_path, capsys, "config.access.gnss_error_m: expected a finite number")


def test_negative_gnss_error_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d["access"].update(gnss_error_m=-1.0))
    _exits_2_at_load(path, tmp_path, capsys, "GNSS error must be non-negative")


OUT_OF_RANGE = [
    # A TTI that rounds to 0 us would send two blocks in the same us.
    ({"transfer.tti_ms": 0.0004}, "config.transfer: TTI must round to at least 1 us"),
    ({"transfer.tti_ms": 0.0005}, "config.transfer: TTI must round to at least 1 us"),
    ({"transfer.tbs_bits": 0.0}, "transport block and RLC PDU sizes must be positive"),
    ({"transfer.rlc_pdu_bits": -1.0}, "transport block and RLC PDU sizes must be positive"),
    (
        {"transfer.ack_processing_ms": -1.0},
        "config.transfer: ACK processing time must be non-negative",
    ),
    ({"traffic.message_size_bits": 1e300}, "more than 1000000 transfer units"),
    # The size ratio overflows to inf.
    (
        {"traffic.message_size_bits": 1e300, "transfer.tbs_bits": 1e-10},
        "more than 1000000 transfer units",
    ),
    # The engine reads a seed's draws in one getrandbits call, whose bit count is a C int.
    ({"traffic.n_messages": 10**7 + 1}, "config.traffic: n_messages 10000001 exceeds 10000000"),
    ({"traffic.n_messages": 2**63}, f"config.traffic: n_messages {2**63} exceeds 10000000"),
    ({"harq.n_processes": 0}, "HARQ needs one or two processes"),
    ({"harq.n_processes": 5}, "HARQ needs one or two processes"),
    ({"harq.enabled": False, "harq.n_processes": 0}, "HARQ needs one or two processes"),
    ({"access.service_elevation_deg": -30.0}, "service elevation must lie in [0, 90] degrees"),
    ({"access.feeder_elevation_deg": 90.5}, "feeder elevation must lie in [0, 90] degrees"),
    ({"min_elevation_deg": 120.0}, "min elevation must lie in [0, 90] degrees"),
    ({"max_elevation_deg": -1.0}, "max elevation must lie in [0, 90] degrees"),
    (
        {"min_elevation_deg": 85.0, "max_elevation_deg": 80.0},
        "min elevation exceeds max elevation",
    ),
    ({"timers.contention_resolution_ms": 20000.0}, "contention resolution timer exceeds 10.24 s"),
    ({"timers.t_reordering_ms": 2000.0}, "base t-reordering exceeds 1600 ms"),
    ({"timers.ntn_start_offset_ms": -5.0}, "timer start offset must be non-negative"),
    ({"timers.t_reordering_extension_ms": -1.0}, "t-reordering extension must be non-negative"),
    (
        {"timers.contention_resolution_ms": -5.0},
        "contention resolution timer must be non-negative",
    ),
    ({"timers.harq_rtt_ms": -1.0}, "HARQ RTT timer must be non-negative"),
    ({"timers.t_reordering_ms": -1.0}, "base t-reordering must be non-negative"),
    ({"access.bs_processing_ms": -100.0}, "base-station processing time must be non-negative"),
    ({"access.device_processing_ms": -1e6}, "device processing time must be non-negative"),
    ({"access.rar_window_length_ms": -1.0}, "RAR window length must be non-negative"),
    ({"observer.latitude_deg": 100.0}, "config.observer: latitude 100.0 outside [-90, 90]"),
    ({"cells.0.center_latitude_deg": 100.0}, "config.cells[0]: latitude 100.0 outside [-90, 90]"),
    ({"cells.0.max_rtt_ms": -5.0}, "config.cells[0]: max RTT must be positive"),
    ({"cells.0.max_rtt_ms": 0.0}, "config.cells[0]: max RTT must be positive"),
    ({"beams.0.center_latitude_deg": 100.0}, "config.beams[0]: latitude 100.0 outside [-90, 90]"),
    ({"beams.0.diameter_km": -5.0}, "config.beams[0]: beam diameter must be non-negative"),
    ({"links.0.bandwidth_hz": 0.0}, "config.links[0]: bandwidth must be positive"),
    (
        {"links.0.shadow_fading_db": -1.0},
        "config.links[0]: shadow fading loss must be non-negative",
    ),
    (
        {"links.1.scintillation_db": -0.5},
        "config.links[1]: scintillation loss must be non-negative",
    ),
    (
        {"links.0.atmospheric_db_min": -1.0},
        "config.links[0]: minimum atmospheric loss must be non-negative",
    ),
    # Both bounds negative, so that they stay in order.
    (
        {"links.0.atmospheric_db_min": -2.0, "links.0.atmospheric_db_max": -1.0},
        "config.links[0]: maximum atmospheric loss must be non-negative",
    ),
    (
        {"observer.altitude_m": -1e7},
        "config.observer: altitude -10000000.0 m outside [-500, 100000] m",
    ),
    ({"seed": -5}, "config: seed -5 outside [0, 2**64)"),
    ({"seed": 2**70}, f"config: seed {2**70} outside [0, 2**64)"),
]


@pytest.mark.parametrize(
    "edits, message",
    OUT_OF_RANGE,
    ids=[",".join(f"{k}={v:g}" for k, v in edits.items()) for edits, _ in OUT_OF_RANGE],
)
def test_out_of_range_transfer_harq_or_elevation_exits_2(
    config_dir, tmp_path, capsys, edits, message
):
    path = _edited_leo_config(config_dir, tmp_path, lambda data: _set_fields(data, edits))
    _exits_2_at_load(path, tmp_path, capsys, message)


def _set_fields(data, edits):
    for dotted, value in edits.items():
        *path, field = dotted.split(".")
        target = data
        for key in path:  # a list index is a number, such as cells.0
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[field] = value


# Configs that load but whose event times leave the int64 us range; the
# fourth only through a transfer's offsets (four TTIs of 4e15 ms).
PAST_THE_US_RANGE = [
    {"transfer.tti_ms": 1e300},
    {"transfer.ack_processing_ms": 1e300},
    {"timers.ntn_start_offset_ms": 1e300},
    {"transfer.tti_ms": 4e15, "traffic.n_messages": 1},
    # The CR start, each term in range but their sum not.
    {"access.max_rtt_ms": 2.4e15, "access.device_processing_ms": 2.2e15,
     "timers.ntn_start_offset_ms": 2.4e15},
    # The RAR window's end.
    {"access.max_rtt_ms": 4.6e15, "access.rar_window_length_ms": 4.6e15},
]


@pytest.mark.parametrize(
    "edits",
    PAST_THE_US_RANGE,
    ids=[",".join(f"{k}={v:g}" for k, v in edits.items()) for edits in PAST_THE_US_RANGE],
)
def test_event_times_past_the_us_range_exit_3(config_dir, tmp_path, capsys, edits):
    path = _edited_leo_config(config_dir, tmp_path, lambda data: _set_fields(data, edits))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "runtime failure: event time outside the int64 us range\n"
    assert "unexpected" not in err


@pytest.mark.parametrize("seed, message", [
    # The message's GNSS error draw is positive: its delay estimate is below 0.
    (1, "delay estimate must be non-negative"),
    # It is negative: the estimate is 1e294 ms too long, and the residual
    # printed at Msg1 has no int64 ns.
    (5, "detail residual_us outside the int64 range"),
])
def test_a_gnss_error_of_1e300_m_exits_3(config_dir, tmp_path, capsys, seed, message):
    def edit(data):
        data["access"]["gnss_error_m"] = 1e300
        data["traffic"]["n_messages"] = 1

    path = _edited_leo_config(config_dir, tmp_path, edit)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--out", out, "--seed", str(seed)]) == 3
    assert capsys.readouterr().err == f"runtime failure: {message}\n"


def test_trace_writer_matches_generic_csv_writer(config_dir, tmp_path):
    header = ["time_ms", "seq", "entity", "kind", "detail"]
    sim = run_scenario(load_config(config_dir / "geo_sband.json"), seed=4).trace
    # Later than every scenario event, so the log stays sorted.
    sim.schedule(10**12, TIMER_FIRE, "bs")
    sim.schedule(10**12 + 1, MEASUREMENT, "device", "x=1,y")
    with (tmp_path / "trace.csv").open("w") as fh:
        sim.write_csv(fh)
    _write_csv(tmp_path / "generic.csv", header, [list(map(_cell, row)) for row in sim.trace_rows()])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()


def test_simulate_builds_no_trace_rows(config_dir, tmp_path, monkeypatch):
    def no_rows(self):
        raise AssertionError("simulate built the float row list")

    monkeypatch.setattr(Simulator, "trace_rows", no_rows)
    assert main(["simulate", "--config", str(config_dir / "geo_sband.json"),
                 "--out", str(tmp_path), "--seed", "1", "--jobs", "2"]) == 0
    golden = json.loads((Path(__file__).parent / "golden" / "cli_sha256.json").read_text())
    want = golden["geo_sband/simulate/seed1"]
    for name in ("report_seed1.json", "trace_seed1.csv"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want[name]
    assert (tmp_path / "trace_seed2.csv").exists()


def _read_trace(path):
    rows = [line.split(",", 4) for line in path.read_text().splitlines()[1:]]
    return [(float(t), int(seq), entity, kind, detail) for t, seq, entity, kind, detail in rows]


def test_overlapping_traffic_is_the_time_merged_union_of_attempts(config_dir, tmp_path):
    runs = {}
    for spacing in (10.0, 5000.0):
        path = _edited_leo_config(
            config_dir, tmp_path, lambda d: d["traffic"].update(inter_arrival_ms=spacing)
        )
        out = tmp_path / f"spacing{spacing:g}"
        assert main(["simulate", "--config", path, "--out", str(out), "--seed", "3"]) == 0
        report = json.loads((out / "report_seed3.json").read_text())
        runs[spacing] = report, _read_trace(out / "trace_seed3.csv")
    (report, trace), (spaced_report, spaced_trace) = runs[10.0], runs[5000.0]
    assert report == spaced_report
    assert report["access_successes"] == 5
    assert trace == sorted(trace, key=lambda row: (row[0], row[1]))
    assert trace != spaced_trace  # the attempts really interleave
    assert sorted(row[2:] for row in trace) == sorted(row[2:] for row in spaced_trace)


def test_unknown_log_level_exits_2(config_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NTNSIM_LOG", "bogus")
    out = tmp_path / "out"
    assert main(["linkbudget", "--config", str(config_dir / "leo600_sband.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "NTNSIM_LOG: unknown level 'BOGUS'\n"
    assert not out.exists()


def _crash(config, args):
    raise ZeroDivisionError("division by zero")


def test_unexpected_exception_exits_3_with_one_line(config_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "linkbudget", _crash)
    assert main(["linkbudget", "--config", str(config_dir / "leo600_sband.json"),
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "runtime failure: unexpected ZeroDivisionError: division by zero\n"


@pytest.mark.parametrize("level", ["WARNING", "DEBUG"])
def test_unexpected_exception_traceback_only_at_debug(config_dir, tmp_path, level):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, NTNSIM_LOG=level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import sys; from ntnsim import cli\n"
        "def crash(config, args): raise ZeroDivisionError('division by zero')\n"
        "cli._COMMANDS['linkbudget'] = crash\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "linkbudget",
         "--config", str(config_dir / "leo600_sband.json"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert lines[-1] == "runtime failure: unexpected ZeroDivisionError: division by zero"
    assert ("Traceback (most recent call last):" in lines) == (level == "DEBUG")
    if level != "DEBUG":
        assert len(lines) == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "command", ["linkbudget", "geometry", "doppler-trace", "simulate", "rank-cells"]
)
def test_seed_outside_u64_exits_2_at_argparse(config_dir, tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_dir / "leo600_sband.json"),
              "--out", str(tmp_path), "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_largest_u64_seed_is_accepted(config_dir, tmp_path):
    seed = str(2**64 - 1)
    assert main(["simulate", "--config", str(config_dir / "leo600_sband.json"),
                 "--out", str(tmp_path), "--seed", seed]) == 0
    assert (tmp_path / f"report_seed{seed}.json").exists()


@pytest.mark.parametrize("seed_from", ["flag", "config"])
def test_jobs_past_the_u64_range_exits_2(config_dir, tmp_path, capsys, seed_from):
    last = 2**64 - 1
    argv = ["simulate", "--out", str(tmp_path / "out"), "--jobs", "2"]
    if seed_from == "flag":
        argv += ["--config", str(config_dir / "geo_sband.json"), "--seed", str(last)]
    else:
        path = _edited_leo_config(config_dir, tmp_path, lambda d: d.update(seed=last))
        argv += ["--config", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs 2" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()



def _add_the_geo_orbit(data):
    geo = {"kind": "geosynchronous", "altitude_km": 35786.0, "inclination_deg": 5.0}
    data["constellation"].append(dict(geo, raan_deg=0.0, phase_deg=0.0, epoch_s=0.0))


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("geometry", _add_the_geo_orbit, "geometry: orbits 2, samples 9231, visibility_s [481.0, inf]"),
        (
            "rank-cells",
            lambda data: data["cells"][1].update(max_rtt_ms=5.0),
            "rank-cells: candidate cells 3, suitable 2, estimated RTT 8.006 ms",
        ),
    ],
    ids=["geometry", "rank-cells"],
)
def test_geometry_and_rank_cells_log_one_info_line(
    config_dir, tmp_path, capsys, caplog, command, edit, message
):
    """At INFO, one summary line per command: the orbits, the kernel samples
    and each orbit's visibility; the candidate and suitable cells and the
    RTT estimate.  Nothing at WARNING, and stdout and the files are the
    same bytes at both levels."""
    path = _edited_leo_config(config_dir, tmp_path, edit)
    outputs = []
    for level, messages in ((logging.WARNING, []), (logging.INFO, [message])):
        caplog.clear()
        caplog.set_level(level, logger="ntnsim")
        out = tmp_path / logging.getLevelName(level)
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "ntnsim"] == messages
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
