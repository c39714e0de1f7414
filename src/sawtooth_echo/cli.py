"""Command-line front end.

Subcommands:

* trace       -- one echo experiment, observables after every iteration
* echo-curve  -- echo-time observables across a reversal-time grid
* scaling     -- decay-law fits over a (n_q, epsilon) grid
* verify      -- built-in oracle suite, exit 0/2

Each data command writes a CSV plus a JSON manifest holding everything
needed to reproduce the CSV byte for byte (tool version aside, see README).
Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .echo import EchoConfig, check_point, run_echo_curve, run_trace
from .output import (
    CURVE_HEADER,
    TRACE_HEADER,
    load_manifest,
    manifest_path_for,
    read_records_csv,
    records_to_rows,
    write_csv,
    write_manifest,
)
from .program import MapParams, gates_per_iteration
from .scaling import DEFAULT_T_R_GRID, ScalingConfig, run_scaling, summarize_curves
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int_tuple(value):
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(_json_int(t) for t in value)


def _file_name(value) -> str:
    """A bare file name, as _base_manifest records it: a replay writes
    beside its manifest, never elsewhere."""
    if not isinstance(value, str):
        raise TypeError(f"expected a file name, got {value!r}")
    if value in ("", "..") or Path(value).name != value:
        raise ValueError("expected a bare file name, with no directory part")
    return value


#: the EchoConfig fields a manifest records, each with its JSON reader
_MANIFEST_FIELDS = {
    "n_q": _json_int,
    "epsilon": _json_float,
    "K": _json_float,
    "t_r": _json_int,
    "t_r_grid": _int_tuple,
    "realizations": _json_int,
    "master_seed": _json_int,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


class _Fixed(argparse.Action):
    """Store a flag that sets up a simulation, and note it as given: a
    --from-manifest or --from-csv run refuses it rather than ignore it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.fixed_flags += (self.option_strings[0],)


def parse_int_grid(text: str):
    """Grid syntax: 'a..b', 'a..b:step', or a comma-separated list.  A range
    comes back unlisted, so EchoConfig and ScalingConfig size it before
    they list it."""
    text = text.strip()
    try:
        if ".." in text:
            bounds, _, step_text = text.partition(":")
            start_text, _, stop_text = bounds.partition("..")
            start, stop = int(start_text), int(stop_text)
            step = int(step_text) if step_text else 1
            if step < 1:
                raise ValueError
            values = range(start, stop + 1, step)
        else:
            values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"cannot parse grid {text!r}; use 'a..b[:step]' or 'a,b,c'")
    if not values:
        raise UsageError(f"grid {text!r} is empty")
    return values


def parse_float_list(text: str):
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"cannot parse float list {text!r}")
    if not values:
        raise UsageError(f"float list {text!r} is empty")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="sawtooth-echo", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    trace = commands.add_parser(
        "trace", help="observables after every iteration of one echo experiment"
    )
    curve = commands.add_parser(
        "echo-curve", help="echo-time observables across a reversal-time grid"
    )
    scaling = commands.add_parser(
        "scaling", help="decay-law fits over a grid of qubit counts and strengths"
    )
    for sub in (trace, curve, scaling):
        sub.set_defaults(fixed_flags=())
        sub.add_argument(
            "--K", type=float, default=5.0, action=_Fixed, help="chaos parameter (default 5)"
        )
        sub.add_argument(
            "--realizations",
            type=int,
            default=200 if sub is scaling else 400,
            action=_Fixed,
            help="noise realizations to average (default %(default)s)",
        )
        sub.add_argument(
            "--seed", type=int, default=0, action=_Fixed, help="master seed (default 0)"
        )
        sub.add_argument(
            "--threads",
            type=int,
            default=None,
            action=_Fixed if sub is scaling else "store",
            help="parallel realization processes (default and cap: available cores)",
        )
        sub.add_argument(
            "--out", type=Path, help="output path (CSV; JSON summary for scaling)"
        )
    for sub in (trace, curve):
        sub.add_argument("--nq", type=int, action=_Fixed, help="number of qubits")
        sub.add_argument("--epsilon", type=float, action=_Fixed, help="perturbation strength")
        sub.add_argument(
            "--from-manifest", type=Path, help="re-run the experiment recorded in a manifest"
        )

    trace.add_argument("--tr", type=int, action=_Fixed, help="reversal time in map iterations")
    trace.set_defaults(handler=cmd_run, tr_grid=None)
    curve.add_argument(
        "--tr-grid",
        type=str,
        default="1..60",
        action=_Fixed,
        help="reversal times, 'a..b[:step]' or comma list (default 1..60)",
    )
    curve.set_defaults(handler=cmd_run, tr=None)

    scaling.add_argument(
        "--nq-list", type=str, action=_Fixed, help="qubit counts, e.g. 4,5,6"
    )
    scaling.add_argument(
        "--epsilon-list", type=str, action=_Fixed, help="strengths, e.g. 0.01,0.02"
    )
    scaling.add_argument(
        "--tr-grid",
        type=str,
        default=None,
        action=_Fixed,
        help="reversal-time grid per point (default: built-in coarse grid)",
    )
    scaling.add_argument("--c", type=float, default=0.9, help="echo threshold (default 0.9)")
    scaling.add_argument(
        "--curves-dir",
        type=Path,
        default=None,
        action=_Fixed,
        help="directory for per-point curve CSVs (default: '<out stem>_curves')",
    )
    scaling.add_argument(
        "--from-csv",
        type=Path,
        nargs="+",
        default=None,
        help="fit existing echo-curve CSVs (with manifests) instead of simulating",
    )
    scaling.set_defaults(handler=cmd_scaling)

    verify = commands.add_parser("verify", help="run the built-in oracle suite")
    verify.set_defaults(handler=cmd_verify)
    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise UsageError(f"--{name} is required")


def _base_manifest(command: str, config: EchoConfig, csv_path: Path) -> dict:
    params = MapParams(config.n_q, config.K)
    manifest = {
        "command": command,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "N": params.N,
        "T": params.T,
        "k": params.k,
        "n_g_per_iteration": gates_per_iteration(config.n_q),
        "csv": csv_path.name,
    }
    for key in _MANIFEST_FIELDS:
        if getattr(config, key) is not None:
            manifest[key] = getattr(config, key)
    return manifest


def _write_run(command: str, config: EchoConfig, out: Path, records) -> None:
    """The one writer of a run: command's CSV at out, its manifest beside it."""
    header = TRACE_HEADER if command == "trace" else CURVE_HEADER
    write_csv(out, header, records_to_rows(records))
    write_manifest(manifest_path_for(out), _base_manifest(command, config, out))


def _check_out(out: Path) -> None:
    """Refuse an --out that cannot be written, before any simulation or
    directory creation: an existing directory, or a missing parent."""
    if out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory {out.parent} does not exist")


def _manifest_entry(manifest: dict, path: Path, key: str, read=None):
    """manifest[key] through read (by default the key's EchoConfig reader);
    a missing, null or unreadable entry is a UsageError that names it."""
    value = manifest.get(key)
    if value is None:
        raise UsageError(f"{path}: manifest entry {key!r} is missing or null")
    try:
        return (read or _MANIFEST_FIELDS[key])(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: cannot read manifest entry {key!r} = {value!r}: {exc}")


def cmd_run(args) -> int:
    """trace and echo-curve: one experiment, from flags or from a manifest."""
    trace = args.command == "trace"
    if args.from_manifest is not None:
        if args.fixed_flags:
            raise UsageError(
                f"--from-manifest fixes {', '.join(dict.fromkeys(args.fixed_flags))}; "
                f"only --threads and --out may be given with it"
            )
        manifest = load_manifest(args.from_manifest)
        if manifest.get("command") != args.command:
            raise UsageError(
                f"manifest records command {manifest.get('command')!r}, "
                f"expected {args.command!r}"
            )
        other_grid_key = "t_r_grid" if trace else "t_r"
        fields = {
            key: _manifest_entry(manifest, args.from_manifest, key)
            for key in _MANIFEST_FIELDS
            if key != other_grid_key
        }
        config = EchoConfig(**fields, workers=args.threads)
        csv_name = _manifest_entry(manifest, args.from_manifest, "csv", _file_name)
        out = args.out or args.from_manifest.parent / csv_name
    else:
        required = ["nq", "tr", "epsilon", "out"] if trace else ["nq", "epsilon", "out"]
        _require(args, required)
        config = EchoConfig(
            n_q=args.nq,
            epsilon=args.epsilon,
            K=args.K,
            t_r=args.tr,
            t_r_grid=None if trace else parse_int_grid(args.tr_grid),
            realizations=args.realizations,
            master_seed=args.seed,
            workers=args.threads,
        )
        out = args.out
    _check_out(out)
    records = run_trace(config) if trace else run_echo_curve(config)
    _write_run(args.command, config, out, records)
    print(f"wrote {len(records)} rows -> {out}")
    return EXIT_OK


def _load_curves(paths):
    """Yield (n_q, epsilon, records) of each echo-curve CSV, one file at a
    time as the fit asks for it; each grid point once, and each inside the
    echo protocol's domain (echo.check_point)."""
    seen = {}  # (n_q, epsilon) -> CSV path
    for csv_path in paths:
        manifest_path = manifest_path_for(csv_path)
        manifest = load_manifest(manifest_path)
        if manifest.get("command") != "echo-curve":
            raise UsageError(f"{csv_path}: manifest is not an echo-curve record")
        n_q = _manifest_entry(manifest, manifest_path, "n_q")
        epsilon = _manifest_entry(manifest, manifest_path, "epsilon")
        try:
            check_point(n_q, epsilon)
        except ValueError as exc:
            raise UsageError(f"{manifest_path}: {exc}")
        if (n_q, epsilon) in seen:
            raise UsageError(
                f"{seen[n_q, epsilon]} and {csv_path} both record "
                f"n_q = {n_q}, epsilon = {epsilon!r}"
            )
        seen[n_q, epsilon] = csv_path
        yield n_q, epsilon, read_records_csv(csv_path)


def cmd_scaling(args) -> int:
    _require(args, ["out"])
    if args.from_csv is not None:
        if args.fixed_flags:
            raise UsageError(
                f"--from-csv fits recorded curves and takes no "
                f"{', '.join(dict.fromkeys(args.fixed_flags))}; "
                f"only --c and --out may be given with it"
            )
        _check_out(args.out)
        summary = summarize_curves(_load_curves(args.from_csv), c=args.c)
        summary["source"] = [str(p) for p in args.from_csv]
    else:
        _require(args, ["nq-list", "epsilon-list"])
        config = ScalingConfig(
            nq_list=parse_int_grid(args.nq_list),
            epsilon_list=parse_float_list(args.epsilon_list),
            t_r_grid=DEFAULT_T_R_GRID if args.tr_grid is None else parse_int_grid(args.tr_grid),
            realizations=args.realizations,
            master_seed=args.seed,
            c=args.c,
            K=args.K,
            workers=args.threads,
        )
        if args.curves_dir is None:  # the default '<stem>_curves' creates --out's directory
            args.out.parent.mkdir(parents=True, exist_ok=True)
        _check_out(args.out)
        curves_dir = args.curves_dir or args.out.parent / (args.out.stem + "_curves")
        curves_dir.mkdir(parents=True, exist_ok=True)
        curve_files = []

        def write_curve(point, records):
            csv_path = curves_dir / f"echo_nq{point.n_q}_eps{point.epsilon!r}.csv"
            _write_run("echo-curve", point, csv_path, records)
            curve_files.append(str(csv_path))

        summary = run_scaling(config, write_curve)
        summary["curve_files"] = curve_files
        summary["config"] = {  # tuples, which JSON writes as lists
            key: getattr(config, key)
            for key in ("nq_list", "epsilon_list", "t_r_grid", "realizations", "master_seed", "K")
        }
    summary["version"] = __version__
    summary["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    write_manifest(args.out, summary)
    constants = summary["constants"]
    print(f"wrote scaling summary -> {args.out}")
    for key in ("A_hat", "B_hat", "C_hat"):
        value = constants.get(key)
        print(f"  {key} = {value:.4e}" if value is not None else f"  {key} unavailable")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_checks()
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
