"""Span tracing of sawtooth_echo's public calls, installed from outside.

Only traced runs import this module (see child.py).  install() replaces the
module attributes through which the CLI reaches each layer with wrappers
that record a span: name, start, end and the enclosing span.  Nothing
under src/ changes, and untraced runs never load this file.

Spans stay in memory, in one Recorder for the CLI process and one per
worker task, and are written to the trace directory when the task or the
process ends.  Times come from time.perf_counter, which reads the
system-wide CLOCK_MONOTONIC on Linux, so spans of the CLI process and of
its pool workers lie on one time axis.
"""

import array
import functools
import os
import pickle
import time
import uuid

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_clock = time.perf_counter


class Recorder:
    """Spans of one process or one worker task, kept in memory."""

    def __init__(self):
        self.names = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts = {}
        self.norm_drift_max = 0.0
        self._open = [-1]

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(_clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _clock()
        self._open.pop()

    def count(self, key: str, value: int) -> None:
        """Record a count; every distinct value seen is kept."""
        self.counts.setdefault(key, set()).add(value)

    def dump(self, stem: str, **meta) -> None:
        record = {
            "names": sorted(self.names, key=self.names.get),
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
            "norm_drift_max": self.norm_drift_max,
            "meta": meta,
        }
        path = os.path.join(os.environ[TRACE_DIR_ENV], stem + ".pkl")
        with open(path, "wb") as f:
            pickle.dump(record, f, protocol=pickle.HIGHEST_PROTOCOL)


_active = Recorder()
_originals = {}


def _traced(name, fn, after=None):
    """fn wrapped in a span; after(recorder, args, result) runs outside it."""

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        recorder = _active
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def call(name, fn, *args):
    """Run fn(*args) inside a span of the process recorder."""
    return _traced(name, fn)(*args)


def echo_task(task):
    """Traced stand-in for sawtooth_echo.echo._echo_block (one pool task).

    Defined at module level so the pool pickles it by reference; it installs
    the wrappers itself in case the worker did not inherit them.
    """
    global _active
    install()
    outer = _active
    recorder = _active = Recorder()
    index = recorder.begin("echo.task")
    try:
        return _originals["echo_block"](task)
    finally:
        recorder.finish(index)
        _active = outer
        recorder.dump("task-" + uuid.uuid4().hex)


def _count_ops(recorder, args, program):
    recorder.count("program.ops_per_iter", len(program.gates))


def _count_draws(recorder, args, bound):
    recorder.count("engine.draws_per_iter", bound.draw_count)


def _check_norm(recorder, args, result):
    amps = args[0]
    drift = abs(float((amps.conj() @ amps).real) - 1.0)
    recorder.norm_drift_max = max(recorder.norm_drift_max, drift)


def install() -> None:
    """Wrap every layer boundary the CLI goes through; idempotent."""
    if _originals:
        return
    import numpy as np

    from sawtooth_echo import cli, echo, engine, program, scaling

    _originals["echo_block"] = echo._echo_block
    patches = [
        (cli, "run_trace", "echo.run_trace", None),
        (cli, "run_echo_curve", "echo.run_echo_curve", None),
        (cli, "run_scaling", "scaling.run_scaling", None),
        (cli, "write_csv", "output.write_csv", None),
        (cli, "write_manifest", "output.write_manifest", None),
        (scaling, "run_echo_curve", "echo.run_echo_curve", None),
        (scaling, "analyze_curve", "fits.analyze_curve", None),
        (echo, "map_program", "program.map_program", _count_ops),
        (program.GateProgram, "inverse", "program.inverse", None),
        (engine.BoundProgram, "apply_noisy", "engine.apply_noisy", None),
        (echo, "BoundProgram", "engine.bind", _count_draws),
        (echo, "_record_measures", "measures.snapshot", _check_norm),
        (echo, "concurrence", "measures.concurrence", None),
        (echo, "eof", "measures.eof", None),
        (echo, "von_neumann_entropy", "measures.entropy", None),
        (np.random, "SeedSequence", "echo.seed_sequence", None),
        (np.random, "default_rng", "echo.default_rng", None),
    ]
    for owner, attribute, name, after in patches:
        setattr(owner, attribute, _traced(name, getattr(owner, attribute), after))
    echo._echo_block = echo_task


def dump_process(**meta) -> None:
    _active.dump("cli", **meta)
