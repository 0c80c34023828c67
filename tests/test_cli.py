import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ntnsim import cli
from ntnsim.cli import _write_csv, main
from ntnsim.config import load_config
from ntnsim.engine import run_scenario
from ntnsim.events import EventKind, Simulator


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


def test_unknown_drop_kind_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(
        config_dir, tmp_path, lambda d: d["channel"].update(drop_kinds=["msg2_rar", "bogus"])
    )
    _exits_2_at_load(path, tmp_path, capsys, "config.channel: unknown drop kinds ['bogus']")


def test_link_orbit_index_outside_constellation_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d["links"][1].update(orbit_index=7))
    _exits_2_at_load(path, tmp_path, capsys, "orbit_index 7 outside the constellation")


def test_non_finite_number_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(
        config_dir, tmp_path, lambda d: d["access"].update(gnss_error_m=float("nan"))
    )
    _exits_2_at_load(path, tmp_path, capsys, "config.access.gnss_error_m: expected a finite number")


def test_negative_gnss_error_exits_2(config_dir, tmp_path, capsys):
    path = _edited_leo_config(config_dir, tmp_path, lambda d: d["access"].update(gnss_error_m=-1.0))
    _exits_2_at_load(path, tmp_path, capsys, "GNSS error must be non-negative")


OUT_OF_RANGE = [
    ({"transfer.tbs_bits": 0.0}, "transport block and RLC PDU sizes must be positive"),
    ({"transfer.rlc_pdu_bits": -1.0}, "transport block and RLC PDU sizes must be positive"),
    ({"traffic.message_size_bits": 1e300}, "more than 1000000 transfer units"),
    # The size ratio overflows to inf.
    (
        {"traffic.message_size_bits": 1e300, "transfer.tbs_bits": 1e-10},
        "more than 1000000 transfer units",
    ),
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
    def edit(data):
        for dotted, value in edits.items():
            *path, field = dotted.split(".")
            target = data
            for key in path:  # a list index is a number, such as cells.0
                target = target[int(key)] if isinstance(target, list) else target[key]
            target[field] = value

    _exits_2_at_load(_edited_leo_config(config_dir, tmp_path, edit), tmp_path, capsys, message)


def test_trace_writer_matches_generic_csv_writer(config_dir, tmp_path):
    header = ["time_ms", "seq", "entity", "kind", "detail"]
    sim = run_scenario(load_config(config_dir / "geo_sband.json"), seed=4).trace
    # Later than every scenario event, so the log stays sorted.
    sim.schedule(10**12, EventKind.TIMER_FIRE, "bs")
    sim.schedule(10**12 + 1, EventKind.MEASUREMENT, "device", "x=1,y")
    with (tmp_path / "trace.csv").open("w") as fh:
        sim.write_csv(fh)
    _write_csv(tmp_path / "generic.csv", header, [list(row) for row in sim.trace_rows()])
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
