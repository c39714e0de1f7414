"""Command-line interface: CSV/manifest outputs, determinism, exit codes."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from sawtooth_echo import MapParams, cli, echo, map_program, scaling
from sawtooth_echo.echo import EchoConfig, realization_rng, run_trace
from sawtooth_echo.engine import TASK_BYTES_PER_AMPLITUDE, TASK_REGISTERS, staged_block
from sawtooth_echo.measures import ergodic_entropy_reference
from sawtooth_echo.output import (
    CURVE_HEADER,
    load_manifest,
    manifest_path_for,
    read_records_csv,
    records_to_rows,
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
    assert tuple(cli.parse_int_grid("1..5")) == (1, 2, 3, 4, 5)
    assert tuple(cli.parse_int_grid("2..10:3")) == (2, 5, 8)
    assert tuple(cli.parse_int_grid("1,4,9")) == (1, 4, 9)
    # a range comes back unlisted: the configs size it before they list it
    assert cli.parse_int_grid(f"1..{10**12}") == range(1, 10**12 + 1)
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
    # an empty grid is refused, not replaced by the default one
    assert run_cli("echo-curve", "--nq", 3, "--epsilon", 0.1, "--tr-grid", "", "--out", tmp_path / "y.csv") == 1
    assert run_cli("scaling", "--nq-list", 3, "--epsilon-list", 0.1, "--tr-grid", "", "--out", tmp_path / "s.json") == 1
    assert run_cli("nonsense") == 1
    capsys.readouterr()


_FLOAT_BASE = {
    "trace": {"--nq": 3, "--tr": 2, "--epsilon": 0.02, "--K": 5.0},
    "echo-curve": {"--nq": 3, "--tr-grid": "1,2", "--epsilon": 0.02, "--K": 5.0},
    "scaling": {"--nq-list": 3, "--tr-grid": "1,2", "--epsilon-list": 0.01, "--K": 5.0, "--c": 0.9},
    "from-csv": {"--c": 0.9},
}
_FLOAT_VALUES = ["0", "-1", "1e308", "-1e308", "inf", "-inf", "nan", "1e-320", "", "a"]
#: the values each flag admits; the scaling run takes "0.01,<value>" as its
#: --epsilon-list, so an empty value leaves the list "0.01,"
_FLOAT_ADMITTED = {
    "--epsilon": {"0", "1e-320"},
    "--K": {"0", "-1", "1e-320"},
    "--c": {"1e-320"},
    "--epsilon-list": {"0", "1e-320", ""},
}
_FLOAT_CASES = [
    (command, flag, value)
    for command, base in _FLOAT_BASE.items()
    for flag in _FLOAT_ADMITTED
    if flag in base
    for value in _FLOAT_VALUES
]


@pytest.mark.parametrize(("command", "flag", "value"), _FLOAT_CASES)
def test_float_flags_run_or_exit_one_in_one_line(tmp_path, capsys, command, flag, value):
    # every float flag at hostile values: the run ends in exit 0, or in exit
    # 1 with one line, no traceback and no file.  An infinite or NaN value
    # was once admitted, and a positive epsilon whose square underflows to 0
    # once ended a finished scaling run in a ZeroDivisionError
    before = []
    options = dict(_FLOAT_BASE[command])
    if command == "from-csv":
        csv_path = synth_curve_files(
            tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
        )
        before = sorted(tmp_path.iterdir())
        command, options = "scaling", {"--from-csv": csv_path, **options}
    else:
        options.update({"--realizations": 2, "--threads": 1})
    options[flag] = f"0.01,{value}" if flag == "--epsilon-list" else value
    out = tmp_path / ("s.json" if command == "scaling" else "x.csv")
    code = run_cli(command, *(f"{k}={v}" for k, v in options.items()), "--out", out)
    err = capsys.readouterr().err
    assert code == (0 if value in _FLOAT_ADMITTED[flag] else 1)
    assert err.count("\n") == code and "Traceback" not in err
    if code:
        assert err.startswith("error:")
        assert sorted(tmp_path.iterdir()) == before


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
    # physical memory of 3 MiB holds what an echo task needs, per amplitude
    # its TASK_REGISTERS registers of 16 bytes and the 24 bytes of its
    # shared phase and factor table, and its binding's staging, up to n_q = 15
    memory = 3 << 20

    def task(n):  # the bytes of an n-qubit echo task
        return (TASK_BYTES_PER_AMPLITUDE << n) + staged_block(map_program(MapParams(n, 5.0)))[1]

    fits = max(n for n in range(2, 20) if task(n) <= memory)
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


@pytest.mark.parametrize(
    ("args", "named"),
    [
        (["trace", "--nq", 6, "--tr", 3, "--epsilon", 9e307, "--realizations", 2], "epsilon"),
        (["trace", "--nq", 6, "--tr", 3, "--epsilon", 8e307, "--realizations", 2], "epsilon"),
        (["trace", "--nq", 4, "--tr", 10**13, "--epsilon", 0.01, "--realizations", 2], "t_r"),
        (["echo-curve", "--nq", 4, "--tr-grid", "1,2", "--epsilon", 0.01,
          "--realizations", 10**14], "realizations"),
        (["trace", "--nq", 3, "--tr", 2, "--epsilon", 0.01, "--K", 1e308,
          "--realizations", 4], "K = 1e+308"),
        (["scaling", "--nq-list", 4, "--epsilon-list", 0.01, "--tr-grid", "1,2,3",
          "--K", 1e308, "--realizations", 2], "K = 1e+308"),
        (["echo-curve", "--nq", 3, "--tr-grid", f"1..{10**12}", "--epsilon", 0.01,
          "--realizations", 1], "t_r grid"),
        (["scaling", "--nq-list", f"3..{10**12}", "--epsilon-list", 0.01, "--tr-grid", "1,2",
          "--realizations", 1], "n_q = "),
    ],
)
def test_huge_inputs_exit_one_before_any_task(tmp_path, capsys, monkeypatch, args, named):
    # an epsilon far above pi, observables beyond physical memory, a K whose
    # map phases overflow and a range grid too long to list once failed
    # inside the run or the parser with a traceback
    monkeypatch.setattr(echo, "_scatter", lambda *a: pytest.fail("a task started"))
    assert run_cli(*args, "--threads", 2, "--out", tmp_path / "x.csv") == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and named in err


def test_overlong_range_grid_exits_one_under_an_address_space_limit(tmp_path):
    # listing a 5e7-point grid takes about 40 bytes per value, more than a
    # 1.5 GB address space holds, though its observables (24 bytes per
    # value) fit in physical memory: the rule counts every byte the parent
    # holds per value and refuses the grid before anything lists it
    resource = pytest.importorskip("resource")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    length = max(50_000_000, memory // echo._RECORD_BYTES + 1)
    limit = 1_500_000 * 1024
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "sawtooth_echo", "echo-curve", "--nq", "3", "--epsilon", "0.01",
         "--tr-grid", f"1..{length}", "--realizations", "1", "--threads", "1",
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert f"a {length}-point t_r grid" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_record_bytes_cover_the_parents_peak_per_grid_value(monkeypatch):
    # with each task's work stubbed out, the parent's peak over a long curve
    # (the grid tuple, tasks, result blocks, records and CSV rows) stays
    # within the bytes per grid value that the memory rule counts.  A
    # scaling run holds one point's records at a time, so four points peak
    # near where one does (holding every point's records peaks at about 2.6
    # times the one-point peak, and keeping the previous one alive at 1.6)
    monkeypatch.setattr(echo, "_echo_block", lambda task: np.zeros((task[3], 1, 3)))
    length = 10_000
    grid = range(1, length + 1)
    rows = []

    def write_curve(point, records):
        rows.append(len(records_to_rows(records)))

    def peak_of(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def curve():
        config = EchoConfig(n_q=3, epsilon=0.01, t_r_grid=grid, realizations=1, workers=1)
        write_curve(config, echo.run_echo_curve(config))

    def sweep():
        config = scaling.ScalingConfig(
            nq_list=range(3, 7), epsilon_list=(0.01,), t_r_grid=grid, realizations=1, workers=1
        )
        assert all(point.t_r_grid is config.t_r_grid for point in config.echo_configs)
        scaling.run_scaling(config, write_curve)

    one, four = peak_of(curve), peak_of(sweep)
    assert rows == [length] * 5
    assert max(one, four) <= echo._RECORD_BYTES * length
    assert four < 1.25 * one


class _Admitted(Exception):
    """Raised in place of the first task: the run was admitted."""


_SIZE_BASE = {
    "trace": {"--nq": 3, "--tr": 2, "--epsilon": 0.01, "--realizations": 2, "--threads": 1},
    "echo-curve": {
        "--nq": 3, "--tr-grid": "1,2", "--epsilon": 0.01, "--realizations": 2, "--threads": 1,
    },
    "scaling": {
        "--nq-list": 3, "--epsilon-list": 0.01, "--tr-grid": "1,2", "--realizations": 2,
        "--threads": 1,
    },
}
_SIZE_VALUES = ["0", "-1", str(2**63), str(10**12), "", "a"]
_SIZE_CASES = [
    (command, flag, value)
    for command, base in _SIZE_BASE.items()
    for flag in ("--nq", "--tr", "--tr-grid", "--nq-list", "--realizations", "--threads")
    if flag in base
    for value in _SIZE_VALUES + (["1..", f"1..{10**12}"] if "grid" in flag or "list" in flag else [])
]


@pytest.mark.parametrize(("command", "flag", "value"), _SIZE_CASES)
def test_size_flags_are_admitted_or_refused_in_one_line(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    # every flag the memory rule reads, at hostile values: the run reaches
    # its first task, or exits 1 with one line, no traceback and no file
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(echo, "_scatter", admitted)
    options = {**_SIZE_BASE[command], flag: value}
    args = [command, *(a for item in options.items() for a in item), "--out", tmp_path / "x.csv"]
    try:
        code = run_cli(*args)
    except _Admitted:
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


_HOSTILE_VALUES = [
    0, -1, 2**63, 10**12, 1e308, -1e308, math.inf, -math.inf, math.nan, "", "1..", "a", True,
    None, [],
]
_MANIFEST_CASES = [
    (command, key, value)
    for command, grid in (("trace", "t_r"), ("echo-curve", "t_r_grid"))
    for key in ("n_q", "epsilon", "K", grid, "realizations", "master_seed", "csv")
    for value in _HOSTILE_VALUES + ([[1, 10**12], [2, 1], ["a"]] if key == "t_r_grid" else [])
]


@pytest.mark.parametrize(
    ("command", "key", "value"), _MANIFEST_CASES,
    ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in _MANIFEST_CASES],
)
def test_manifest_entries_are_admitted_or_refused_in_one_line(
    tmp_path, capsys, monkeypatch, command, key, value
):
    # every key a replay reads, at hostile values: the replay runs (its
    # tasks stubbed, so t_r_grid = [1, 10**12] runs no iteration) or exits
    # 1 or 3 with one line, no traceback and no file written
    def scatter(tasks, processes):  # (config, t_r, first, count, record_trace) each
        return [np.zeros((task[3], 2 * task[1] + 1 if task[4] else 1, 3)) for task in tasks]

    monkeypatch.setattr(echo, "_scatter", scatter)
    grid = {"t_r": 2} if command == "trace" else {"t_r_grid": (1, 2)}
    config = EchoConfig(n_q=3, epsilon=0.02, realizations=2, master_seed=5, **grid)
    manifest = tmp_path / "run.manifest.json"
    recorded = cli._base_manifest(command, config, tmp_path / "run.csv")
    manifest.write_text(json.dumps({**recorded, key: value}))
    code = run_cli(command, "--from-manifest", manifest, "--threads", 1)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code:
        assert list(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize("absolute", [False, True], ids=["parent-relative", "absolute"])
def test_manifest_csv_entry_must_be_a_bare_file_name(tmp_path, capsys, monkeypatch, absolute):
    # a replay writes beside its manifest; a csv entry with a directory part
    # would write the CSV and its manifest elsewhere, over whatever is there
    runs = tmp_path / "runs"
    runs.mkdir()
    out = runs / "run.csv"
    assert run_cli(*trace_args(out)) == 0
    capsys.readouterr()
    escaped = tmp_path / "escaped.csv"
    entry = str(escaped) if absolute else "../escaped.csv"
    broken = runs / "broken.manifest.json"
    write_manifest(broken, {**load_manifest(manifest_path_for(out)), "csv": entry})
    calls = []
    monkeypatch.setattr(cli, "run_trace", lambda config: calls.append(config) or [])
    assert run_cli("trace", "--from-manifest", broken) == 1
    err = capsys.readouterr().err
    assert "'csv'" in err and repr(entry) in err
    assert calls == []
    assert not escaped.exists()
    assert not manifest_path_for(escaped).exists()


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


def test_master_seeds_from_2_to_the_32_are_refused_before_any_task(tmp_path, capsys, monkeypatch):
    # SeedSequence splits a seed into 32-bit words: 2**32 is the words
    # (0, 1), so its stream at (t_r, r) = (7, 0) is seed 0's at (1, 7)
    assert realization_rng(2**32, 7, 0).random() == realization_rng(0, 1, 7).random()
    out = tmp_path / "run.csv"
    assert run_cli(*trace_args(out, seed=2**32 - 1)) == 0
    manifest = manifest_path_for(out)
    recorded = load_manifest(manifest)
    write_manifest(manifest, {**recorded, "master_seed": 2**32})
    for seed in (2**32, 2**63):
        with pytest.raises(ValueError, match="master_seed"):
            EchoConfig(n_q=3, epsilon=0.01, t_r=2, master_seed=seed)
    monkeypatch.setattr(echo, "_scatter", lambda *a: pytest.fail("a task started"))
    refused = tmp_path / "refused"
    refused.mkdir()
    runs = [
        ["trace", "--nq", 3, "--tr", 2, "--epsilon", 0.01, "--out", refused / "t.csv"],
        ["echo-curve", "--nq", 3, "--tr-grid", "1,2", "--epsilon", 0.01, "--out", refused / "c.csv"],
        ["scaling", "--nq-list", 3, "--epsilon-list", 0.01, "--tr-grid", "1,2",
         "--out", refused / "s.json"],
    ]
    for args in runs:
        for seed in (2**32, 2**63):
            assert run_cli(*args, "--seed", seed, "--threads", 2) == 1
    assert run_cli("trace", "--from-manifest", manifest, "--out", refused / "r.csv") == 1
    assert list(refused.iterdir()) == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7 and all("master_seed must lie in [0, 2**32)" in line for line in err)


def test_scaling_closes_its_one_pool_when_it_returns_or_raises(tmp_path, monkeypatch):
    # a real fork pool, two processes whatever the host: one for the whole
    # four-point run, and no process left once the command returns, nor
    # once a run fails part-way
    pools = []

    def executor(max_workers):
        pools.append(ProcessPoolExecutor(max_workers=max_workers))
        return pools[-1]

    monkeypatch.setattr(echo, "_cpus", lambda: 2)
    monkeypatch.setattr(echo, "ProcessPoolExecutor", executor)
    args = ["scaling", "--nq-list", "3,4", "--epsilon-list", "0.01,0.02", "--tr-grid", "1,2",
            "--realizations", 2, "--threads", 2]
    assert run_cli(*args, "--out", tmp_path / "s.json") == 0
    assert len(pools) == 1 and multiprocessing.active_children() == []
    assert len(list((tmp_path / "s_curves").glob("*.csv"))) == 4

    def write_curve(point, records):
        raise OSError("disk full")

    config = scaling.ScalingConfig(
        nq_list=(3, 4), epsilon_list=(0.01,), t_r_grid=(1, 2), realizations=2, workers=2
    )
    with pytest.raises(OSError, match="disk full"):
        scaling.run_scaling(config, write_curve)
    assert len(pools) == 2 and multiprocessing.active_children() == []


def test_cli_timer_prints_one_row_per_checkout(tmp_path):
    # tools/time_cli.py for one pair of this checkout against itself: a
    # header and one row per checkout, the quartiles of one run each
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(root / "tools" / "time_cli.py"), "--pairs", "1", root, root, "--",
         "trace", "--nq", "3", "--tr", "2", "--epsilon", "0.01", "--realizations", "2",
         "--threads", "2", "--out", "t.csv"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    measures = ("wall_s", "cpu_s", "minflt")
    assert header.split() == ["checkout"] + [
        f"{m}_{q}" for m in measures for q in ("q1", "median", "q3")
    ]
    assert len(rows) == 2
    for row in rows:
        checkout, *cells = row.split()
        assert Path(checkout) == root
        values = [float(cell) for cell in cells]
        assert all(v > 0 for v in values[:6]) and values[6] >= 0
        # one run: its quartiles are its value
        assert all(len(set(values[i : i + 3])) == 1 for i in (0, 3, 6))
    assert list(tmp_path.iterdir()) == []


def test_code_line_counter_counts_code_and_names_a_missing_path(tmp_path):
    # tools/count_code_lines.py: a docstring, a comment and blank lines are
    # not code; a path that does not exist exits 1 with one line naming it
    tool = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
    source = tmp_path / "small.py"
    source.write_text('"""A module\ndocstring."""\n\n# a comment\nx = 1  # and another\n'
                      "def f():\n    \"\"\"Doc.\"\"\"\n    return (x,\n            2)\n")
    run = subprocess.run(
        [sys.executable, str(tool), str(source)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert [line.split() for line in run.stdout.splitlines()] == [
        ["4", str(source)], ["4", "total"]
    ]
    missing = tmp_path / "missing"
    for arg in (str(missing), "--help"):
        run = subprocess.run(
            [sys.executable, str(tool), arg], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.count("\n") == 1 and arg in run.stderr
        assert "Traceback" not in run.stderr


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


def test_out_naming_a_directory_exits_three_before_simulating(tmp_path, capsys, monkeypatch):
    # every data command refuses it before it simulates, fits or creates a
    # directory, not after the whole run
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    calls = []
    for name in ("run_trace", "run_echo_curve", "run_scaling", "summarize_curves"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: calls.append(name))
    out = tmp_path / "adir"
    out.mkdir()
    scaling_args = (
        "scaling", "--nq-list", "3", "--epsilon-list", "0.05", "--tr-grid", "1..4",
        "--realizations", 2, "--threads", 1,
    )
    commands = [
        trace_args(out),
        ["echo-curve", "--nq", 3, "--epsilon", 0.02, "--tr-grid", "1,2", "--out", out],
        [*scaling_args, "--out", out],
        [*scaling_args, "--curves-dir", tmp_path / "curves", "--out", out],
        ["scaling", "--from-csv", csv_path, "--out", out],
    ]
    for args in commands:
        assert run_cli(*args) == 3
        assert "is a directory" in capsys.readouterr().err
    assert calls == []
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [out.name, csv_path.name, manifest_path_for(csv_path).name]
    )


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
    # an unreadable entry is named; a point outside the echo protocol's
    # domain, as EchoConfig applies it, is refused with its manifest named.
    # An epsilon of 1e308 and an n_q whose 2**n_q is no float once ended in
    # an OverflowError traceback, and the other points in fitted nonsense
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    manifest_path = manifest_path_for(csv_path)
    manifest = load_manifest(manifest_path)
    out = tmp_path / "summary.json"
    unreadable = [("n_q", None), ("n_q", 6.5), ("n_q", "6"), ("epsilon", "0.02")]
    outside = [("n_q", -3), ("n_q", 1024), ("n_q", 3000)] + [
        ("epsilon", value) for value in (1e308, -1e308, math.inf, math.nan)
    ]
    for key, value in unreadable + outside:
        write_manifest(manifest_path, {**manifest, key: value})
        assert run_cli("scaling", "--from-csv", csv_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {manifest_path}: ")
        named = "[0, pi]" if key == "epsilon" else f"2 <= n_q < {sys.float_info.max_exp}"
        assert (repr(key) if (key, value) in unreadable else named) in err
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


@pytest.mark.parametrize("column, value", [("E_mean", "abc"), ("t_e", "2.5")])
def test_scaling_from_csv_names_an_unreadable_cell(tmp_path, capsys, column, value):
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
    assert f"{csv_path}: unreadable value in row {lines[5]!r}" in capsys.readouterr().err
    assert not out.exists()


_CSV_VALUES = [
    "1" + "0" * 400, "-1", "0", "1e400", "-1e400", "nan", "inf", "1e308", "-0", " 3", "0x10",
    "1_0", "", "3.5", "2", "9" * 20,
]
_CSV_CASES = [
    (column, row, value)
    for column in CURVE_HEADER
    for row in ("first", "middle", "last")
    for value in _CSV_VALUES
]


@pytest.mark.parametrize(
    ("column", "row", "value"), _CSV_CASES,
    ids=[f"{c}-{r}-{v[:12]}" for c, r, v in _CSV_CASES],
)
def test_csv_cells_are_admitted_or_refused_in_one_line(tmp_path, capsys, column, row, value):
    # every column of a recorded curve, in its first, a middle and its last
    # row, at hostile values: the fit runs or exits 1 or 3 with one line, no
    # traceback and no summary.  A time too large for a float once ended in
    # an OverflowError traceback in the threshold search
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    lines = csv_path.read_text().splitlines()
    index = {"first": 1, "middle": len(lines) // 2, "last": len(lines) - 1}[row]
    cells = lines[index].split(",")
    cells[CURVE_HEADER.index(column)] = value
    lines[index] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "summary.json"
    code = run_cli("scaling", "--from-csv", csv_path, "--out", out)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code:
        assert not out.exists()


@pytest.mark.parametrize("c", [1.5, 1.0, 0.0, -0.5])
def test_scaling_threshold_outside_unit_interval_exits_one(tmp_path, capsys, monkeypatch, c):
    # both paths refuse c before they simulate or fit anything
    calls = []
    monkeypatch.setattr(scaling, "run_echo_curve", lambda config: calls.append(config) or [])
    monkeypatch.setattr(scaling, "analyze_curve", lambda *args: calls.append(args))
    csv_path = synth_curve_files(
        tmp_path, n_q=6, epsilon=0.02, t_star=25.0, gamma=0.05, rate=0.012
    )
    out = tmp_path / "summary.json"
    simulate = ("scaling", "--nq-list", "3", "--epsilon-list", "0.01", "--tr-grid", "1,2")
    assert run_cli(*simulate, "--c", c, "--out", out) == 1
    assert run_cli("scaling", "--from-csv", csv_path, "--c", c, "--out", out) == 1
    assert capsys.readouterr().err.count(f"threshold c must lie in (0, 1), got {c}") == 2
    assert calls == []
    assert not out.exists()


def test_scaling_two_qubit_point_notes_its_entropy_rate(tmp_path):
    # the ergodic entropy reference needs N >= 8, so an n_q = 2 point has no
    # Gamma; it is noted like any other unfittable quantity on both paths
    out = tmp_path / "s.json"
    code = run_cli(
        "scaling", "--nq-list", 2, "--epsilon-list", "0.03", "--tr-grid", "1..30",
        "--realizations", 4, "--seed", 1, "--threads", 1, "--out", out,
    )
    assert code == 0
    summary = json.loads(out.read_text())
    replay_out = tmp_path / "replay.json"
    assert run_cli("scaling", "--from-csv", *summary["curve_files"], "--out", replay_out) == 0
    replay = json.loads(replay_out.read_text())
    for point in (summary["points"][0], replay["points"][0]):
        assert point["gamma"] is None and point["gamma_over_fidelity_rate"] is None
        assert "entropy rate: reference needs N >= 8, got 4" in point["notes"]
    assert replay["points"] == summary["points"]


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
    assert not curves_dir.exists()
    assert not out.parent.exists()
    # without --curves-dir the derived '<stem>_curves' directory creates
    # the summary's directory
    assert run_cli(*scaling_args, "--out", out) == 0
    assert out.exists()
    assert len(list((out.parent / "s_curves").glob("*.csv"))) == 2


def test_scaling_writes_each_curve_as_its_point_ends(tmp_path, monkeypatch):
    # a run that fails at its third point leaves the first two curves and
    # manifests, byte for byte as a full run writes them, and no summary
    class Clock:
        @staticmethod
        def now(tz):
            return datetime(2026, 1, 1, tzinfo=tz)

    class Failure(Exception):
        pass

    monkeypatch.setattr(cli, "datetime", Clock)
    args = (
        "scaling", "--nq-list", "3,4", "--epsilon-list", "0.02,0.04", "--tr-grid", "1..4",
        "--realizations", 2, "--seed", 7, "--threads", 1,
    )
    full = tmp_path / "full" / "s.json"
    assert run_cli(*args, "--out", full) == 0
    curve_files = [Path(p) for p in json.loads(full.read_text())["curve_files"]]
    assert len(curve_files) == 4
    run_echo_curve, points = scaling.run_echo_curve, []

    def fail_at_third(config):
        points.append(config)
        if len(points) == 3:
            raise Failure
        return run_echo_curve(config)

    monkeypatch.setattr(scaling, "run_echo_curve", fail_at_third)
    cut = tmp_path / "cut" / "s.json"
    with pytest.raises(Failure):
        run_cli(*args, "--out", cut)
    assert not cut.exists()
    kept = [f for path in curve_files[:2] for f in (path, manifest_path_for(path))]
    assert sorted(p.name for p in (cut.parent / "s_curves").iterdir()) == sorted(
        p.name for p in kept
    )
    for path in kept:
        assert (cut.parent / "s_curves" / path.name).read_bytes() == path.read_bytes()


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
    for key in ("points", "fits", "constants"):
        assert replay[key] == summary[key]
