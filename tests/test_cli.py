"""Command-line interface: CSV/manifest outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sawtooth_echo import cli, scaling
from sawtooth_echo.echo import EchoConfig, run_trace
from sawtooth_echo.engine import TASK_BYTES_PER_AMPLITUDE, TASK_REGISTERS
from sawtooth_echo.measures import ergodic_entropy_reference
from sawtooth_echo.output import (
    CURVE_HEADER,
    load_manifest,
    manifest_path_for,
    read_records_csv,
    write_csv,
    write_manifest,
)
from sawtooth_echo.verify import check_map_program_matches_oracle


def run_cli(*args):
    return cli.main([str(a) for a in args])


def trace_args(out, **overrides):
    options = {
        "nq": 3,
        "tr": 5,
        "epsilon": 0.02,
        "realizations": 3,
        "seed": 5,
        "threads": 1,
    }
    options.update(overrides)
    args = ["trace"]
    for key, value in options.items():
        args += [f"--{key}", value]
    return args + ["--out", out]


def test_trace_row_count_and_header(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(*trace_args(out, tr=20)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,E_mean,E_std,S_mean,S_std,f_mean,f_std"
    assert len(lines) == 42  # header + t = 0..40
    assert manifest_path_for(out).exists()


def test_trace_noiseless_final_row(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(*trace_args(out, epsilon=0.0, realizations=1)) == 0
    records = read_records_csv(out)
    assert records[-1].e_mean == pytest.approx(1.0, abs=1e-10)
    assert records[-1].f_mean == pytest.approx(1.0, abs=1e-10)


def test_trace_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(*trace_args(out_a)) == 0
    assert run_cli(*trace_args(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    # thread count must not affect the bytes either
    out_c = tmp_path / "c.csv"
    assert run_cli(*trace_args(out_c, threads=2)) == 0
    assert out_a.read_bytes() == out_c.read_bytes()
    # n_q = 3 rotates every target through one Hadamard matmul layout;
    # n_q = 6 goes through both
    out_d = tmp_path / "d.csv"
    out_e = tmp_path / "e.csv"
    assert run_cli(*trace_args(out_d, nq=6, tr=3, realizations=4)) == 0
    assert run_cli(*trace_args(out_e, nq=6, tr=3, realizations=4, threads=2)) == 0
    assert out_d.read_bytes() == out_e.read_bytes()


def test_trace_manifest_replay(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(*trace_args(out)) == 0
    replay = tmp_path / "replay.csv"
    assert run_cli("trace", "--from-manifest", manifest_path_for(out), "--out", replay) == 0
    assert out.read_bytes() == replay.read_bytes()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("trace", "--nq", 4),
        ("trace", "--epsilon", 0.03),
        ("trace", "--tr", 2),
        ("trace", "--K", 4.0),
        ("trace", "--realizations", 3),
        ("trace", "--seed", 99),
        ("trace", "--seed", 5),  # the recorded value
        ("echo-curve", "--tr-grid", "1..3"),
    ],
)
def test_manifest_replay_refuses_flags_it_fixes(tmp_path, capsys, command, flag, value):
    # a flag the manifest records would be silently overridden by it; the
    # replay names the flag and exits 1 before writing anything, even when
    # the value matches the recorded one
    out = tmp_path / "run.csv"
    if command == "trace":
        assert run_cli(*trace_args(out)) == 0
    else:
        assert run_cli(
            "echo-curve", "--nq", 3, "--epsilon", 0.02, "--tr-grid", "1,2",
            "--realizations", 2, "--threads", 1, "--out", out,
        ) == 0
    capsys.readouterr()
    manifest = manifest_path_for(out)
    replay = tmp_path / "replay.csv"
    code = run_cli(command, "--from-manifest", manifest, flag, value, "--out", replay)
    assert code == 1
    assert f"--from-manifest fixes {flag}" in capsys.readouterr().err
    assert not replay.exists()
    # --threads and --out stay allowed
    assert run_cli(command, "--from-manifest", manifest, "--threads", 2, "--out", replay) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_trace_csv_roundtrips_doubles_exactly(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(*trace_args(out)) == 0
    records = read_records_csv(out)
    expected = run_trace(
        EchoConfig(n_q=3, epsilon=0.02, t_r=5, realizations=3, master_seed=5, workers=1)
    )
    assert records == expected


def test_trace_manifest_contents(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(*trace_args(out)) == 0
    manifest = load_manifest(manifest_path_for(out))
    assert manifest["command"] == "trace"
    assert manifest["n_q"] == 3
    assert manifest["t_r"] == 5
    assert manifest["N"] == 8
    assert manifest["n_g_per_iteration"] == 24
    assert manifest["T"] == pytest.approx(2 * math.pi / 8)
    assert manifest["k"] * manifest["T"] == pytest.approx(manifest["K"])
    assert manifest["csv"] == "trace.csv"


def test_echo_curve_rows_and_grid(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        "echo-curve", "--nq", 3, "--epsilon", 0.02, "--tr-grid", "1..30",
        "--realizations", 2, "--seed", 1, "--threads", 1, "--out", out,
    )
    assert code == 0
    records = read_records_csv(out)
    assert [r.t for r in records] == list(range(2, 61, 2))
    manifest = load_manifest(manifest_path_for(out))
    assert manifest["t_r_grid"] == list(range(1, 31))


def test_echo_curve_noiseless_is_unity(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        "echo-curve", "--nq", 4, "--epsilon", 0, "--tr-grid", "1,2,5",
        "--realizations", 1, "--threads", 1, "--out", out,
    )
    assert code == 0
    for record in read_records_csv(out):
        assert record.e_mean == pytest.approx(1.0, abs=1e-10)


def test_grid_parsing():
    assert cli.parse_int_grid("1..5") == (1, 2, 3, 4, 5)
    assert cli.parse_int_grid("2..10:3") == (2, 5, 8)
    assert cli.parse_int_grid("1,4,9") == (1, 4, 9)
    assert cli.parse_float_list("0.01,0.02") == (0.01, 0.02)
    with pytest.raises(cli.UsageError):
        cli.parse_int_grid("a..b")
    with pytest.raises(cli.UsageError):
        cli.parse_int_grid("5..1")
    with pytest.raises(cli.UsageError):
        cli.parse_float_list("x")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli("trace", "--nq", 3) == 1  # missing required flags
    assert run_cli("trace", "--nq", 1, "--tr", 2, "--epsilon", 0, "--out", tmp_path / "x.csv") == 1
    assert run_cli("echo-curve", "--nq", 3, "--epsilon", 0.1, "--tr-grid", "9..1", "--out", tmp_path / "y.csv") == 1
    assert run_cli("nonsense") == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_parameters_exit_one(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    assert run_cli(*trace_args(out, epsilon=value)) == 1
    assert run_cli(*trace_args(out, K=value)) == 1
    assert run_cli("echo-curve", "--nq", 3, "--epsilon", value, "--out", out) == 1
    scaling = ["scaling", "--nq-list", "3", "--tr-grid", "1,2", "--out", tmp_path / "s.json"]
    assert run_cli(*scaling, "--epsilon-list", f"0.01,{value}") == 1
    assert run_cli(*scaling, "--epsilon-list", "0.01", "--K", value) == 1
    assert run_cli(*scaling, "--epsilon-list", "0.01", "--c", value) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [1, 2])
def test_register_too_large_exits_one(tmp_path, capsys, threads):
    # 2**40 amplitudes are 16 TiB: refused before anything is allocated
    out = tmp_path / "x.csv"
    assert run_cli(*trace_args(out, nq=40, threads=threads)) == 1
    assert run_cli("echo-curve", "--nq", 40, "--epsilon", 0.01, "--threads", threads, "--out", out) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.count("physical memory") == 2


def test_memory_guard_counts_every_task_register(tmp_path, capsys, monkeypatch):
    # physical memory of 2 MiB holds what an echo task needs per amplitude,
    # its TASK_REGISTERS registers of 16 bytes and the 24 bytes of its
    # shared phase and factor table, up to n_q = 15
    memory = 2 << 20
    fits = max(n for n in range(1, 30) if TASK_BYTES_PER_AMPLITUDE << n <= memory)
    assert (TASK_REGISTERS, TASK_BYTES_PER_AMPLITUDE, fits) == (2, 56, 15)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert EchoConfig(n_q=fits, epsilon=0.01, t_r=1).n_q == fits
    with pytest.raises(ValueError, match="physical memory"):
        EchoConfig(n_q=fits + 1, epsilon=0.01, t_r=1)
    out = tmp_path / "x.csv"
    assert run_cli(*trace_args(out, nq=fits + 1, tr=1, realizations=1)) == 1
    assert not out.exists()
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("nq_list", ["6,1", "6,40", "6,6"])
def test_scaling_validates_every_point_before_simulating(tmp_path, capsys, monkeypatch, nq_list):
    calls = []
    monkeypatch.setattr(scaling, "run_echo_curve", lambda config: calls.append(config) or [])
    out = tmp_path / "s.json"
    code = run_cli(
        "scaling", "--nq-list", nq_list, "--epsilon-list", "0.01",
        "--tr-grid", "1..20", "--realizations", 20, "--out", out,
    )
    assert code == 1
    assert calls == []
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["n_q", "epsilon", "K", "realizations", "master_seed", "csv", "t_r", "t_r_grid"]
)
def test_manifest_missing_key_exits_one(tmp_path, capsys, key):
    # a missing, null or wrong-typed entry exits 1 and is named
    out = tmp_path / "run.csv"
    if key == "t_r_grid":
        command = "echo-curve"
        recorded = run_cli(
            "echo-curve", "--nq", 3, "--epsilon", 0.02, "--tr-grid", "1,2",
            "--realizations", 2, "--threads", 1, "--out", out,
        )
    else:
        command = "trace"
        recorded = run_cli(*trace_args(out))
    assert recorded == 0
    capsys.readouterr()
    manifest = load_manifest(manifest_path_for(out))
    wrong_type = 5 if key in ("t_r_grid", "csv") else [5]
    bad_values = [None, wrong_type, True]
    if key not in ("epsilon", "K"):  # integers (and the csv name) reject 2.9
        bad_values.append([1, 2.5] if key == "t_r_grid" else 2.9)
    if key != "csv":  # numbers reject strings
        bad_values.append("1,2" if key == "t_r_grid" else "3")
    missing = {k: v for k, v in manifest.items() if k != key}
    broken = tmp_path / "broken.manifest.json"
    for bad in [missing] + [{**manifest, key: value} for value in bad_values]:
        write_manifest(broken, bad)
        assert run_cli(command, "--from-manifest", broken) == 1
        assert repr(key) in capsys.readouterr().err
    # a manifest must be a JSON object
    write_manifest(broken, [manifest])
    assert run_cli(command, "--from-manifest", broken) == 1
    assert "not a JSON object" in capsys.readouterr().err


def test_manifest_command_mismatch_exits_one(tmp_path, capsys):
    # a manifest of the other command is named as such, before any key check
    trace_out = tmp_path / "trace.csv"
    assert run_cli(*trace_args(trace_out)) == 0
    curve_out = tmp_path / "curve.csv"
    assert run_cli(
        "echo-curve", "--nq", 3, "--epsilon", 0.02, "--tr-grid", "1,2",
        "--realizations", 2, "--threads", 1, "--out", curve_out,
    ) == 0
    capsys.readouterr()
    for command, recorded in (("trace", curve_out), ("echo-curve", trace_out)):
        recorded_command = load_manifest(manifest_path_for(recorded))["command"]
        replay = tmp_path / f"replay-{command}.csv"
        code = run_cli(command, "--from-manifest", manifest_path_for(recorded), "--out", replay)
        assert code == 1
        err = capsys.readouterr().err
        assert f"manifest records command {recorded_command!r}" in err
        assert not replay.exists()


def test_module_entry_point_runs_commands():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("sawtooth_echo", "sawtooth_echo.cli"):
        ok = subprocess.run(
            [sys.executable, "-m", module, "verify"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert ok.returncode == 0
        assert ok.stdout.count("[PASS]") == 7
        bad = subprocess.run(
            [sys.executable, "-m", module, "verify", "--no-such-flag"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert bad.returncode == 1
        assert "error:" in bad.stderr


def test_io_error_exit_three(tmp_path, monkeypatch):
    # a missing output directory fails before the simulation starts
    calls = []
    monkeypatch.setattr(cli, "run_trace", lambda config: calls.append(config) or [])
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli(*trace_args(missing_dir)) == 3
    assert calls == []


def test_verify_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert "[PASS] noisy-echo-reversibility" in out
    assert "FAIL" not in out


def test_verify_negative_control(capsys, monkeypatch):
    # the oracle check fails on the program built at the flipped kick
    # K = -5, and verify reports a failing check and exits 2
    flipped = check_map_program_matches_oracle(-5.0)
    assert not flipped.passed
    monkeypatch.setattr(cli, "run_checks", lambda: [flipped])
    assert run_cli("verify") == 2
    out = capsys.readouterr().out
    assert "[FAIL] map-program-vs-dense-oracle" in out
    assert "1 of 1 checks failed" in out


def synth_curve_files(tmp_path, n_q, epsilon, t_star, gamma, rate):
    s_inf = ergodic_entropy_reference(1 << n_q)
    slope = 0.1 / t_star  # E = 1 - slope * t crosses 0.9 at exactly t_star
    rows = []
    for t_r in range(1, 31):
        t = 2 * t_r
        e = 1.0 - slope * t
        s = s_inf * (1 - math.exp(-gamma * t))
        f = math.exp(-rate * t)
        rows.append((str(t), f"{e:.17g}", "0", f"{s:.17g}", "0", f"{f:.17g}", "0"))
    csv_path = tmp_path / f"synth_nq{n_q}_eps{epsilon}.csv"
    write_csv(csv_path, CURVE_HEADER, rows)
    write_manifest(
        manifest_path_for(csv_path),
        {
            "command": "echo-curve",
            "n_q": n_q,
            "epsilon": epsilon,
            "K": 5.0,
            "realizations": 1,
            "master_seed": 0,
            "t_r_grid": list(range(1, 31)),
            "csv": csv_path.name,
        },
    )
    return csv_path


def test_scaling_from_csv_recovers_synthesis(tmp_path):
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    out = tmp_path / "summary.json"
    assert run_cli("scaling", "--from-csv", csv_path, "--out", out) == 0
    summary = json.loads(out.read_text())
    point = summary["points"][0]
    assert point["t_e_star"] == pytest.approx(25.0, abs=1e-6)
    assert point["gamma"] == pytest.approx(0.05, abs=1e-6)
    assert point["fidelity_decay_rate"] == pytest.approx(0.012, abs=1e-6)
    assert point["C_hat"] == pytest.approx(0.012 / (0.02**2 * 84), rel=1e-6)
    constants = summary["constants"]
    assert constants["A_hat"] == pytest.approx(25.0 * 36 * 4e-4, rel=1e-6)
    assert constants["B_hat"] == pytest.approx(0.05 / (4e-4 * 36), rel=1e-6)
    assert "A_discrepancy_factor" in constants


def test_scaling_from_csv_names_bad_manifest_entry(tmp_path, capsys):
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    manifest = load_manifest(manifest_path_for(csv_path))
    out = tmp_path / "summary.json"
    for key, value in (("n_q", None), ("n_q", 6.5), ("n_q", "6"), ("epsilon", "0.02")):
        write_manifest(manifest_path_for(csv_path), {**manifest, key: value})
        assert run_cli("scaling", "--from-csv", csv_path, "--out", out) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()


def test_scaling_from_csv_skips_non_positive_ordinates(tmp_path):
    # a curve whose entropy decreases fits a negative Gamma; the power law
    # over epsilon then uses the other points instead of aborting the summary
    paths = [
        synth_curve_files(
            tmp_path, n_q=6, epsilon=eps, t_star=20.0, gamma=0.05 * (eps / 0.02) ** 2,
            rate=0.012,
        )
        for eps in (0.01, 0.02, 0.04)
    ]
    paths.append(
        synth_curve_files(tmp_path, n_q=6, epsilon=0.03, t_star=20.0, gamma=-0.01, rate=0.012)
    )
    out = tmp_path / "summary.json"
    assert run_cli("scaling", "--from-csv", *paths, "--out", out) == 0
    summary = json.loads(out.read_text())
    assert summary["points"][3]["gamma"] == pytest.approx(-0.01, abs=1e-6)
    gamma_fit = summary["fits"]["gamma_vs_epsilon"]["6"]
    assert gamma_fit["n_points"] == 3
    assert gamma_fit["exponent"] == pytest.approx(2.0, abs=1e-6)
    assert 0.0 <= gamma_fit["exponent_stderr"] < 1e-6  # an exact power law
    assert summary["fits"]["t_e_star_vs_epsilon"]["6"]["n_points"] == 4


@pytest.mark.parametrize("column, value", [("f_mean", "inf"), ("E_mean", "nan")])
def test_scaling_from_csv_refuses_non_finite_cells(tmp_path, capsys, column, value):
    # an infinite f_mean would fit a NaN rate into the summary, and a NaN
    # E_mean would be skipped by the threshold search
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[CURVE_HEADER.index(column)] = value
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "summary.json"
    assert run_cli("scaling", "--from-csv", csv_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{csv_path}: non-finite value in row {lines[5]!r}" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="non-finite"):
        read_records_csv(csv_path)


def test_scaling_from_csv_refuses_a_repeated_point(tmp_path, capsys):
    # a second curve at the same (n_q, epsilon) would enter every fit twice
    paths = [
        synth_curve_files(tmp_path, n_q=6, epsilon=eps, t_star=20.0, gamma=0.05, rate=0.012)
        for eps in (0.02, 0.04)
    ]
    copy = tmp_path / "copy.csv"
    copy.write_bytes(paths[0].read_bytes())
    manifest_path_for(copy).write_bytes(manifest_path_for(paths[0]).read_bytes())
    out = tmp_path / "summary.json"
    assert run_cli("scaling", "--from-csv", *paths, copy, "--out", out) == 1
    assert f"{paths[0]} and {copy} both record n_q = 6, epsilon = 0.02" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("scaling", "--from-csv", *paths, "--out", out) == 0


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nq-list", "9"),
        ("--epsilon-list", "0.5"),
        ("--tr-grid", "1..3"),
        ("--realizations", 7),
        ("--seed", 99),
        ("--K", 4.0),
        ("--threads", 1),
        ("--curves-dir", "curves"),
    ],
)
def test_scaling_from_csv_refuses_simulation_flags(tmp_path, capsys, flag, value):
    # the recorded curves fix every simulation setting; a flag that sets one
    # would be silently ignored, so the fit names it and exits 1 unwritten
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    out = tmp_path / "summary.json"
    assert run_cli("scaling", "--from-csv", csv_path, flag, value, "--out", out) == 1
    assert f"--from-csv fits recorded curves and takes no {flag}" in capsys.readouterr().err
    assert not out.exists()
    # --c and --out stay allowed
    assert run_cli("scaling", "--from-csv", csv_path, "--c", 0.8, "--out", out) == 0


def test_scaling_missing_out_dir_exits_three_before_simulating(tmp_path):
    scaling_args = (
        "scaling", "--nq-list", "3", "--epsilon-list", "0.05,0.1",
        "--tr-grid", "1..4", "--realizations", 2, "--threads", 1,
    )
    curves_dir = tmp_path / "curves"
    out = tmp_path / "missing" / "s.json"
    assert run_cli(*scaling_args, "--curves-dir", curves_dir, "--out", out) == 3
    assert list(curves_dir.glob("*")) == []
    assert not out.parent.exists()
    # without --curves-dir the derived '<stem>_curves' directory creates
    # the summary's directory
    assert run_cli(*scaling_args, "--out", out) == 0
    assert out.exists()
    assert len(list((out.parent / "s_curves").glob("*.csv"))) == 2


def test_scaling_simulation_writes_curves_and_summary(tmp_path):
    out = tmp_path / "scaling.json"
    code = run_cli(
        "scaling", "--nq-list", "3", "--epsilon-list", "0.05",
        "--tr-grid", "1..6", "--realizations", 2, "--seed", 3,
        "--threads", 1, "--out", out,
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["config"]["nq_list"] == [3]
    assert len(summary["curve_files"]) == 1
    curve_file = tmp_path / summary["curve_files"][0]
    records = read_records_csv(curve_file)
    assert [r.t for r in records] == [2, 4, 6, 8, 10, 12]
    # replaying the emitted curves reproduces the same fitted points
    replay_out = tmp_path / "replay.json"
    assert run_cli("scaling", "--from-csv", curve_file, "--out", replay_out) == 0
    replay = json.loads(replay_out.read_text())
    assert replay["points"] == summary["points"]
