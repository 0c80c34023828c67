import json

import pytest

from ntnsim.cli import main


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


def test_missing_section_exits_2(config_dir, tmp_path):
    # the inclined-geo config has no cells; rank-cells treats that as a config error.
    assert main([
        "rank-cells", "--config", str(config_dir / "inclined_geo.json"),
        "--out", str(tmp_path),
    ]) == 2


def test_unsuitable_cells_exit_3(config_dir, tmp_path):
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    for cell in data["cells"]:
        cell["max_rtt_ms"] = 0.001
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
