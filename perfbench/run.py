"""Benchmark of the sawtooth-echo CLI on three fixed-shape workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's src/ directory.  Every CLI run is a fresh interpreter started
with --threads 2, one at a time, and is timed from outside (wall time,
CPU time and peak RSS of the CLI process and its pool workers, from
wait4).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the workload also runs traced (tracer.py) and the
last line carries the per-layer metrics.  The line before it is a detail
record: machine fingerprint, sample counts and quartiles, output digest,
counts and check results.  README.md describes workloads and metrics.

Exit code 0 whenever a result is printed; a checkout without the
sawtooth_echo sources exits 2 without one.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench_work"

THREADS = 2
MIN_REPS = 3
SETUPS_PER_ROUND = 2
MIN_TRACED_PAIRS = 2
CLI_TIMEOUT_S = 120.0
# no CLI run starts later than this, so a run ends well inside 180 s
RUN_BUDGET_S = 140.0
# check (c): a row mean may sit this many standard errors from the reference
K_SIGMA = 10.0
ABS_TOL = 1e-9
IDENTITY_TOL = 1e-10

SWEEP_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30, 36, 42, 50, 60, 75, 90)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    n_q: int
    epsilons: tuple
    t_r: tuple
    realizations: int
    reduced_t_r: tuple
    reduced_realizations: int
    refit: str

    def args(self, t_r, realizations, seed, threads=THREADS):
        grid = ",".join(str(t) for t in t_r)
        common = [
            "--realizations", str(realizations),
            "--seed", str(seed),
            "--threads", str(threads),
        ]
        if self.command == "scaling":
            epsilons = ",".join(repr(e) for e in self.epsilons)
            return ["scaling", "--nq-list", str(self.n_q), "--epsilon-list", epsilons,
                    "--tr-grid", grid, *common, "--out", "out.json"]
        flag = "--tr" if self.command == "trace" else "--tr-grid"
        return [self.command, "--nq", str(self.n_q), "--epsilon", repr(self.epsilons[0]),
                flag, grid, *common, "--out", "out.csv"]

    def rit(self, t_r, realizations) -> int:
        """Realization-iterations: R * 2*t_r summed over the grid and points."""
        return realizations * 2 * sum(t_r) * len(self.epsilons)

    def snapshots(self, t_r, realizations) -> int:
        per_point = 2 * t_r[0] + 1 if self.command == "trace" else len(t_r)
        return realizations * per_point * len(self.epsilons)

    def expected_t(self, t_r) -> list:
        if self.command == "trace":
            return list(range(2 * t_r[0] + 1))
        return [2 * t for t in t_r]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-nq6",
            why="shape of the acceptance sweeps: scaling at n_q=6 over 3 epsilons on "
            "the default grid, dispatch-bound engine, one pool per point, fits",
            command="scaling",
            n_q=6,
            epsilons=(0.01, 0.02, 0.04),
            t_r=SWEEP_GRID,
            realizations=2,
            reduced_t_r=(1, 2, 3, 5, 8),
            reduced_realizations=2,
            refit="none",
        ),
        Workload(
            name="trace-nq5",
            why="trace at n_q=5: measures after every iteration, balanced "
            "realization chunks; measure-heavy",
            command="trace",
            n_q=5,
            epsilons=(0.01,),
            t_r=(20,),
            realizations=150,
            reduced_t_r=(20,),
            reduced_realizations=16,
            refit="forward",
        ),
        Workload(
            name="curve-nq12",
            why="echo-curve at n_q=12 with few realizations: arithmetic-bound "
            "engine, measures under 1%, little to batch over",
            command="echo-curve",
            n_q=12,
            epsilons=(0.01,),
            t_r=(1, 2, 3, 4, 6, 8, 10, 12),
            realizations=8,
            reduced_t_r=(1, 2, 3, 4),
            reduced_realizations=2,
            refit="curve",
        ),
    )
}


# ----------------------------------------------------------------- CLI runs


@dataclass
class CliRun:
    run_dir: Path
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    files: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.files):
            h.update(key.encode() + b"\0" + self.files[key] + b"\0")
        return h.hexdigest()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args, run_dir: Path, child_flags=()) -> CliRun:
    """Run the CLI once in a fresh interpreter and time it from outside."""
    run_dir.mkdir(parents=True)
    run = CliRun(run_dir)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *child_flags, "--", *args]
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=run_dir, stdout=out, stderr=err, start_new_session=True
        )
        # the leader is not reaped before the timer is cancelled, so the group
        # id cannot have been reused when the timer fires
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        run.wall_s = time.perf_counter() - begin
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child plus the pool workers it has waited for
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
        run.error = f"exit code {proc.returncode}: {tail}"
    return run


# ----------------------------------------------------------- output checks


def _parse_csv(data: bytes) -> dict:
    """t -> [E_mean, E_std, S_mean, S_std, f_mean, f_std]."""
    lines = data.decode("utf-8").split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    if header[1:] != ["E_mean", "E_std", "S_mean", "S_std", "f_mean", "f_std"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = {}
    for line in lines[1:-1]:
        cells = line.split(",")
        values = [float(c) for c in cells[1:]]
        if len(values) != 6 or not all(math.isfinite(v) for v in values):
            raise ValueError(f"malformed row {line!r}")
        rows[int(cells[0])] = values
    return rows


# largest admissible value of E, S (bits) and f
_UPPER = (1.0, 2.0, 1.0)


def _row_problem(t, values) -> str | None:
    for column, upper in zip((0, 2, 4), _UPPER):
        mean, std = values[column], values[column + 1]
        if not -ABS_TOL <= mean <= upper + ABS_TOL or std < 0.0:
            return f"t={t}: value {mean!r} (std {std!r}) outside [0, {upper}]"
    return None


def _reference_problem(t, values, realizations, reference) -> str | None:
    """Check (c): each mean within K_SIGMA standard errors of the reference."""
    ref_rows, ref_realizations = reference
    ref = ref_rows.get(t)
    if ref is None:
        return f"t={t} has no reference row"
    scale = math.sqrt(1.0 / realizations + 1.0 / ref_realizations)
    for column, label in zip((0, 2, 4), "ESf"):
        std = max(values[column + 1], ref[column + 1])
        tol = K_SIGMA * std * scale + ABS_TOL
        if abs(values[column] - ref[column]) > tol:
            return (
                f"t={t}: {label}_mean {values[column]!r} differs from reference "
                f"{ref[column]!r} by more than {tol:.3g}"
            )
    return None


def point_key(n_q: int, epsilon: float) -> str:
    return f"nq{n_q}_eps{epsilon!r}"


def load_reference(workload: Workload) -> dict:
    index = json.loads((REFERENCE_DIR / "reference.json").read_text())
    realizations = index[workload.name]["realizations"]
    out = {}
    for epsilon in workload.epsilons:
        key = point_key(workload.n_q, epsilon)
        rows = _parse_csv((REFERENCE_DIR / workload.name / f"{key}.csv").read_bytes())
        out[key] = (rows, realizations)
    return out


def check_outputs(workload, run, t_r, realizations, seed, reference=None, exact_start=False):
    """Fill run.files with the CSVs, or set run.error on the first problem.

    Checks: every expected CSV exists, is non-empty and parses; its manifest
    records the flags given; the t column is the expected grid; values lie
    in their physical range; optionally, means agree with the reference
    (check c) or the t=0 row is exactly the initial Bell state.
    """
    try:
        if workload.command == "scaling":
            summary = json.loads((run.run_dir / "out.json").read_text())
            paths = [run.run_dir / p for p in summary["curve_files"]]
        else:
            paths = [run.run_dir / "out.csv"]
        if len(paths) != len(workload.epsilons):
            raise ValueError(f"{len(paths)} CSVs, expected {len(workload.epsilons)}")
        for path in paths:
            data = path.read_bytes()
            manifest = json.loads(path.with_name(path.stem + ".manifest.json").read_text())
            if (manifest["realizations"], manifest["master_seed"], manifest["n_q"]) != (
                realizations, seed, workload.n_q
            ):
                raise ValueError(f"{path.name}: manifest does not record the flags given")
            key = point_key(manifest["n_q"], manifest["epsilon"])
            rows = _parse_csv(data)
            if list(rows) != workload.expected_t(t_r):
                raise ValueError(f"{path.name}: t column {list(rows)} is not the grid")
            for t, values in rows.items():
                problem = _row_problem(t, values)
                if problem is None and reference is not None:
                    problem = _reference_problem(t, values, realizations, reference[key])
                if problem is not None:
                    raise ValueError(f"{path.name}: {problem}")
            if exact_start:
                start = rows[0]
                if max(abs(start[0] - 1.0), abs(start[2]), abs(start[4] - 1.0)) > ABS_TOL:
                    raise ValueError(f"{path.name}: t=0 row is not the initial Bell state")
            run.files[key] = data
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        run.error = f"output check: {exc}"


# ------------------------------------------------------------------ session


class Session:
    """CLI runs of one benchmark invocation, with their outcome counts."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.reference = load_reference(workload)
        self.attempted = 0
        self.failures = []
        self.errors = []
        self._serial = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _new_dir(self, stem: str) -> Path:
        self._serial += 1
        return self.work_dir / f"{self._serial:03d}-{stem}"

    def record(self, run: CliRun) -> CliRun:
        self.attempted += 1
        if not run.ok:
            self.failures.append(f"{run.run_dir.name}: {run.error}")
        return run

    def cleanup(self, run: CliRun) -> None:
        shutil.rmtree(run.run_dir, ignore_errors=True)

    def setup_run(self) -> CliRun:
        """The command with no iterations and one realization."""
        w = self.workload
        run = launch(w.args((0,), 1, self.seed), self._new_dir("setup"))
        if run.ok:
            check_outputs(w, run, (0,), 1, self.seed, exact_start=True)
        self.cleanup(run)
        return self.record(run)

    def main_run(self, first_digest=None, trace_dir=None) -> CliRun:
        w = self.workload
        flags = ()
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
            flags = ("--trace-dir", str(trace_dir), "--check",
                     f"{w.n_q},{max(w.t_r)}", "--refit", w.refit)
        run = launch(w.args(w.t_r, w.realizations, self.seed), self._new_dir("main"), flags)
        if run.ok:
            check_outputs(w, run, w.t_r, w.realizations, self.seed, self.reference)
        if run.ok and first_digest is not None and run.digest() != first_digest:
            run.error = "check (a): CSV bytes differ from the first run of this invocation"
        return self.record(run)

    def reduced_pair(self) -> dict:
        """Check (b): a reduced instance at --threads 1 and 2, byte-identical."""
        w = self.workload
        runs = {}
        for threads in (1, THREADS):
            args = w.args(w.reduced_t_r, w.reduced_realizations, self.seed, threads)
            run = launch(args, self._new_dir(f"reduced-t{threads}"))
            if run.ok:
                check_outputs(w, run, w.reduced_t_r, w.reduced_realizations, self.seed,
                              self.reference)
            self.cleanup(run)
            runs[threads] = run
        one, two = runs[1], runs[THREADS]
        if one.ok and two.ok and one.files != two.files:
            one.error = "check (b): CSV bytes differ between --threads 1 and --threads 2"
        self.record(one)
        self.record(two)
        return {
            "identical": one.ok and two.ok,
            "digest": two.digest() if two.ok else None,
            "wall_s_threads_1": one.wall_s,
            f"wall_s_threads_{THREADS}": two.wall_s,
            "rit": w.rit(w.reduced_t_r, w.reduced_realizations),
        }

    def another_round(self, deadline: float, rounds: list, minimum: int) -> bool:
        """Whether a round as long as the longest so far still fits."""
        finish = self.elapsed() + max(rounds)
        if finish > RUN_BUDGET_S:
            return False
        return len(rounds) < minimum or finish <= deadline


# ------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def summary(values) -> dict:
    values = list(values)
    out = {"n": len(values), "median": median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_call(entry) -> float:
    """Mean seconds per call of a [calls, total, self] layer entry."""
    return ratio(entry[1], entry[0])


# --------------------------------------------------------- end-to-end run


def end_to_end(session: Session, seconds: float):
    w = session.workload
    session.setup_run()  # warm-up: byte-compiles the package, not timed
    deadline = session.elapsed() + seconds
    reps, setups, rounds = [], [], []
    digest = None
    while True:
        begin = session.elapsed()
        rep = session.main_run(first_digest=digest)
        if rep.ok and digest is None:
            digest = rep.digest()
        session.cleanup(rep)
        if rep.ok:
            reps.append(rep)
        for _ in range(SETUPS_PER_ROUND):
            setup = session.setup_run()
            if setup.ok:
                setups.append(setup)
        rounds.append(session.elapsed() - begin)
        if not session.another_round(deadline, rounds, MIN_REPS):
            break
    reduced = session.reduced_pair()
    rit = w.rit(w.t_r, w.realizations)
    metrics, detail = {}, {}
    if reps and setups:
        samples = {
            "wall_s": [r.wall_s for r in reps],
            "rit_per_s": [rit / r.wall_s for r in reps],
            "cpu_us_per_rit": [1e6 * r.cpu_s / rit for r in reps],
            "setup_s": [s.wall_s for s in setups],
            "peak_rss_mb": [r.rss_mb for r in reps],
        }
        units = {"wall_s": "s", "rit_per_s": "1/s", "cpu_us_per_rit": "us",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": median(v), "unit": units[k]} for k, v in samples.items()}
        detail["samples"] = {k: summary(v) for k, v in samples.items()}
    detail.update(
        rit=rit,
        digest=digest,
        threads_check=reduced,
    )
    return metrics, detail


# ----------------------------------------------------------- traced run


def _load_trace(trace_dir: Path):
    # these files were written by tracer.py in this invocation's CLI runs
    with open(trace_dir / "cli.pkl", "rb") as f:
        cli = pickle.load(f)
    tasks = []
    for path in sorted(trace_dir.glob("task-*.pkl")):
        with open(path, "rb") as f:
            tasks.append(pickle.load(f))
    return cli, tasks


def _layer_times(records) -> dict:
    """name -> [calls, total seconds, self seconds] over the given records."""
    layers = defaultdict(lambda: [0, 0.0, 0.0])
    for rec in records:
        durations = [end - start for start, end in zip(rec["start"], rec["end"])]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(rec["parent"]):
            if parent >= 0:
                covered[parent] += durations[index]
        for index, name_id in enumerate(rec["name"]):
            entry = layers[rec["names"][name_id]]
            entry[0] += 1
            entry[1] += durations[index]
            entry[2] += durations[index] - covered[index]
    return layers


def _spans(rec, name):
    name_id = rec["names"].index(name) if name in rec["names"] else -1
    return [
        (rec["start"][i], rec["end"][i]) for i, n in enumerate(rec["name"]) if n == name_id
    ]


def _pool_stats(cli, tasks):
    """Per run_trace / run_echo_curve call: spawn delay and largest task share."""
    pools = sorted(_spans(cli, "echo.run_trace") + _spans(cli, "echo.run_echo_curve"))
    task_spans = [(rec["start"][0], rec["end"][0]) for rec in tasks]
    spawn, largest = [], []
    for begin, end in pools:
        inside = [(s, e) for s, e in task_spans if begin <= s <= end]
        if not inside:
            continue
        spawn.append(min(s for s, _ in inside) - begin)
        durations = [e - s for s, e in inside]
        largest.append(max(durations) / sum(durations))
    return spawn, largest


def _counts(cli, tasks, layers, out) -> dict:
    observed = defaultdict(set)
    for rec in tasks:
        for key, values in rec["counts"].items():
            observed[key].update(values)
    for key, values in observed.items():
        if len(values) != 1:
            out.append(f"{key} varies between tasks: {sorted(values)}")
    scaling_points = sum(
        1
        for name_id, parent in zip(cli["name"], cli["parent"])
        if cli["names"][name_id] == "echo.run_echo_curve"
        and parent >= 0
        and cli["names"][cli["name"][parent]] == "scaling.run_scaling"
    )
    return {
        "program.ops_per_iter": max(observed["program.ops_per_iter"], default=0),
        "engine.draws_per_iter": max(observed["engine.draws_per_iter"], default=0),
        "measures.snapshots": layers["measures.snapshot"][0],
        "echo.tasks": len(tasks),
        "scaling.points": scaling_points,
        "echo.rit": layers["engine.apply_noisy"][0],
    }


COUNT_UNITS = "count"
LAYER_UNITS = {
    "cli.import_s": "s",
    "program.build_ms": "ms",
    "engine.bind_ms": "ms",
    "engine.iter_us": "us",
    "engine.us_per_op": "us",
    "engine.busy_share": "fraction",
    "engine.gbps_computed": "GB/s",
    "engine.norm_drift_max": "abs",
    "measures.snapshot_us": "us",
    "measures.concurrence_us": "us",
    "measures.entropy_us": "us",
    "state.partial_trace_us": "us",
    "measures.busy_share": "fraction",
    "echo.max_task_share": "fraction",
    "echo.pool_spawn_ms": "ms",
    "echo.parallel_eff": "fraction",
    "echo.rng_setup_us": "us",
    "echo.other_share": "fraction",
    "fits.analyze_ms": "ms",
    "output.write_ms": "ms",
    "output.bytes": "bytes",
    "trace.overhead_s": "s",
}


def trace_metrics(workload: Workload, run: CliRun, trace_dir: Path, problems: list) -> tuple:
    """Per-layer times and counts of one traced run."""
    cli, tasks = _load_trace(trace_dir)
    meta = cli["meta"]
    if not meta["identity_ok"]:
        problems.append(f"check (d): eps=0 echo identity off by {meta['identity_error']:.3g}")
    worker = _layer_times(tasks)
    parent = _layer_times([cli])
    counts = _counts(cli, tasks, worker, problems)
    drift = max((rec["norm_drift_max"] for rec in tasks), default=0.0)
    if not drift <= IDENTITY_TOL:
        problems.append(f"check (d): norm drift {drift:.3g} above {IDENTITY_TOL}")
    busy = worker["echo.task"][1]
    engine_self = worker["engine.apply_noisy"][2]
    iterations = worker["engine.apply_noisy"][0]
    snapshots = worker["measures.snapshot"]
    builds = worker["program.map_program"]
    rng_s = worker["echo.seed_sequence"][1] + worker["echo.default_rng"][1]
    iter_s = ratio(engine_self, iterations)
    ops = counts["program.ops_per_iter"]
    # computed, not measured: each op reads and writes the whole complex128 register
    bytes_per_iter = ops * 2 * 16 * (1 << workload.n_q)
    spawn, largest = _pool_stats(cli, tasks)
    written = sum(
        p.stat().st_size
        for p in run.run_dir.rglob("*")
        if p.is_file() and p.name not in ("stdout.txt", "stderr.txt")
    )
    times = {
        "cli.import_s": meta["import_s"],
        "program.build_ms": 1e3 * ratio(builds[2] + worker["program.inverse"][2], builds[0]),
        "engine.bind_ms": 1e3 * per_call(worker["engine.bind"]),
        "engine.iter_us": 1e6 * iter_s,
        "engine.us_per_op": 1e6 * ratio(iter_s, ops),
        "engine.busy_share": ratio(engine_self, busy),
        "engine.gbps_computed": ratio(bytes_per_iter, iter_s) / 1e9,
        "engine.norm_drift_max": drift,
        "measures.snapshot_us": 1e6 * per_call(snapshots),
        "measures.concurrence_us": 1e6 * per_call(worker["measures.concurrence"]),
        "measures.entropy_us": 1e6 * per_call(worker["measures.entropy"]),
        "state.partial_trace_us": 1e6 * ratio(snapshots[2], snapshots[0]),
        "measures.busy_share": ratio(snapshots[1], busy),
        "echo.max_task_share": max(largest, default=0.0),
        "echo.pool_spawn_ms": 1e3 * ratio(sum(spawn), len(spawn)),
        "echo.rng_setup_us": 1e6 * ratio(rng_s, worker["echo.default_rng"][0]),
        "echo.other_share": ratio(busy - engine_self - snapshots[1], busy),
        "fits.analyze_ms": 1e3 * per_call(parent["fits.analyze_curve"]),
        "output.write_ms": 1e3 * (parent["output.write_csv"][1] + parent["output.write_manifest"][1]),
        "output.bytes": written,
    }
    return times, counts


def traced(session: Session, seconds: float):
    w = session.workload
    session.setup_run()  # warm-up, not timed
    deadline = session.elapsed() + seconds
    plain, traced_runs, samples, count_sets, problems, rounds = [], [], defaultdict(list), [], [], []
    digest = None
    while True:
        begin = session.elapsed()
        rep = session.main_run(first_digest=digest)
        if rep.ok:
            digest = digest or rep.digest()
            plain.append(rep)
        session.cleanup(rep)
        trace_dir = session.work_dir / f"trace-{len(rounds)}"
        run = session.main_run(first_digest=digest, trace_dir=trace_dir)
        if run.ok:
            digest = digest or run.digest()
            found = []
            try:
                times, counts = trace_metrics(w, run, trace_dir, found)
            except (OSError, KeyError, ValueError, pickle.UnpicklingError) as exc:
                found.append(f"trace files unreadable: {exc!r}")
            if found:
                run.error = "; ".join(found)
                session.failures.append(f"{run.run_dir.name}: {run.error}")
            else:
                traced_runs.append(run)
                count_sets.append(counts)
                for key, value in times.items():
                    samples[key].append(value)
        session.cleanup(run)
        shutil.rmtree(trace_dir, ignore_errors=True)
        rounds.append(session.elapsed() - begin)
        if not session.another_round(deadline, rounds, MIN_TRACED_PAIRS):
            break
    reduced = session.reduced_pair()
    expected = {
        "echo.rit": w.rit(w.t_r, w.realizations),
        "measures.snapshots": w.snapshots(w.t_r, w.realizations),
    }
    for counts in count_sets:
        if counts != count_sets[0]:
            problems.append(f"counts differ between traced runs: {count_sets}")
            break
    for key, value in expected.items():
        if count_sets and count_sets[0][key] != value:
            problems.append(f"{key} = {count_sets[0][key]}, expected {value}")
    metrics, detail = {}, {"counts": count_sets[0] if count_sets else None}
    if plain and traced_runs and not problems:
        samples["echo.parallel_eff"] = [r.cpu_s / (r.wall_s * THREADS) for r in plain]
        overhead = median(r.wall_s for r in traced_runs) - median(r.wall_s for r in plain)
        for key, values in samples.items():
            metrics[key] = {"value": median(values), "unit": LAYER_UNITS[key]}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for key, value in count_sets[0].items():
            metrics[key] = {"value": value, "unit": COUNT_UNITS}
        detail["samples"] = {k: summary(v) for k, v in samples.items()}
        detail["wall_s_untraced"] = summary(r.wall_s for r in plain)
        detail["wall_s_traced"] = summary(r.wall_s for r in traced_runs)
    detail.update(digest=digest, threads_check=reduced, problems=problems)
    return metrics, detail, problems


# ------------------------------------------------------------- fingerprint

_NUMPY_PROBE = """
import ctypes, glob, json, os
import numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = config = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            info = getattr(lib, prefix + "_get_config" + suffix, None)
            if get is not None and threads is None:
                get.restype = ctypes.c_int
                threads = get()
            if info is not None and config is None:
                info.restype = ctypes.c_char_p
                config = info().decode()
print(json.dumps({"numpy": numpy.__version__, "blas_name": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads,
                  "blas_config": config}))
"""


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True, timeout=60
    )
    numpy_info = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr[-300:]}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **numpy_info,
        "blas_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "src_sha256": _source_digest(),
    }


# --------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sawtooth_echo" / "cli.py").is_file():
        print(f"error: no sawtooth_echo sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    work_dir = WORK_DIR / f"{os.getpid()}-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        session = Session(workload, args.seed, work_dir)
        if args.trace:
            metrics, detail, problems = traced(session, args.seconds)
        else:
            metrics, detail = end_to_end(session, args.seconds)
            problems = []
        detail = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "elapsed_s": session.elapsed(),
            "failures": session.failures,
            "failed_frac": ratio(len(session.failures), session.attempted),
            **detail,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    failed = len(session.failures)
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
