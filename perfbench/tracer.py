"""Per-layer spans for the benchmark, recorded without touching the package.

`install` replaces every public function of the loaded `vecmag` modules
with a wrapper that appends an open and a close event to a per-thread list.
`numpy.linalg.eigh` is wrapped too: calls from `vecmag.spin` are reported
as `spin.eigh` and calls from `vecmag.pulses` (its pulse eigenbases) as
`pulses.eigh`. `Recorder.summary` turns the events into calls, inclusive
seconds and self seconds per span name, plus counters computed from the
call arguments.

Self time is a span's duration minus the time its child spans cover, per
thread. Spans that the CLI's thread pool runs in worker threads count as
children of the span open in the main thread, which waits for them: while
any worker thread has a span open, the main thread gets no self time. So
each thread's self times sum to at most the wall time its spans cover.

Run as a script, this module is a traced stand-in for `python -m vecmag.cli`:

    python perfbench/tracer.py TRACE_JSON <vecmag cli arguments>

It writes the same artifact to stdout, exits with the same code, and writes
the span summary to TRACE_JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "spin", "pulses", "schemes", "estimation", "validation")


class _ThreadLog:
    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.events: list = []  # (time, name) on open, (time, None) on close
        self.counters: Counter = Counter()


class Recorder:
    """Spans and counters of one traced job or round, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def summary(self) -> dict:
        """{"spans": {name: [calls, inclusive_s, self_s]}, "counters": {...},
        "thread_self_s": [self seconds summed per thread]}."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        counters: Counter = Counter()
        innermost, outermost = [], []
        for log in self._logs:
            counters.update(log.counters)
            intervals, tops, stack, last = [], [], [], None
            for t, name in log.events:
                if stack:
                    intervals.append((last, t, stack[-1][0]))
                if name is None:
                    opened_name, opened_at = stack.pop()
                    inclusive[opened_name] += t - opened_at
                    if not stack:
                        tops.append((opened_at, t))
                else:
                    calls[name] += 1
                    stack.append((name, t))
                last = t
            if stack:
                raise RuntimeError(f"span {stack[-1][0]!r} never closed")
            innermost.append((log.main, intervals))
            if not log.main:
                outermost += tops
        workers = _union(outermost)
        self_s: defaultdict = defaultdict(float)
        thread_self = []
        for main, intervals in innermost:
            total = 0.0
            for t0, t1, name in intervals:
                dt = t1 - t0 - (_covered(workers, t0, t1) if main else 0.0)
                self_s[name] += dt
                total += dt
            thread_self.append(total)
        spans = {name: [calls[name], inclusive[name], self_s[name]] for name in calls}
        return {"spans": spans, "counters": dict(counters), "thread_self_s": thread_self}


def _union(intervals) -> list:
    """Sorted, disjoint cover of the given (start, end) intervals."""
    merged = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return merged


def _covered(merged, t0: float, t1: float) -> float:
    """Seconds of [t0, t1] that the disjoint intervals in `merged` cover."""
    return sum(max(0.0, min(t1, b) - max(t0, a)) for a, b in merged if a < t1 and b > t0)


# ----------------------------------------------------------- counter hooks

def _eigh_hook(log, dt, fn, args, kwargs):
    dim = args[0].shape[-1]
    log.counters["spin.eigh.dim3_sum"] += dim ** 3


def _final_state_hook(log, dt, fn, args, kwargs):
    config = args[0] if args else kwargs["config"]
    log.counters[f"schemes.final_state.n{config.dims.N}.s"] += dt


def _pairs(log, dt, pairs):
    log.counters["pulses.pairs"] += pairs
    log.counters["pulses.pair_s"] += dt


def _evolve_exact_hook(log, dt, fn, args, kwargs):
    schedules = args[2] if len(args) > 2 else kwargs["schedules"]
    _pairs(log, dt, sum(s.pairs for s in schedules))


def _fidelity_f2_hook(log, dt, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    schedules, noise = bound.arguments["schedules"], bound.arguments["noise"]
    _pairs(log, dt, sum(s.pairs for s in schedules) * (noise.trials + 1))


def _fidelity_f1_hook(log, dt, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    fixed = bound.arguments["L_per_axis"]
    blocks = len(bound.arguments["block_order"])
    pairs = 0
    for ratio in _as_list(bound.arguments["tau_over_T"]):
        pairs += blocks * (fixed if fixed is not None else max(1, round(1.0 / (2.0 * ratio))))
    _pairs(log, dt, pairs)


def _as_list(value):
    try:
        return [float(v) for v in value]
    except TypeError:
        return [float(value)]


HOOKS = {
    "spin.eigh": _eigh_hook,
    "schemes.final_state": _final_state_hook,
    "pulses.evolve_exact": _evolve_exact_hook,
    "pulses.fidelity_f2": _fidelity_f2_hook,
    "pulses.fidelity_f1": _fidelity_f1_hook,
}


def _wrap(recorder: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log = recorder.log()
        events = log.events
        t0 = perf_counter()
        events.append((t0, name))
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            events.append((t1, None))
            if hook is not None:
                hook(log, t1 - t0, fn, args, kwargs)

    return wrapper


def _wrap_eigh(recorder: Recorder, fn):
    """numpy.linalg.eigh, traced under the calling vecmag module's name."""
    traced = {"vecmag.spin": _wrap(recorder, "spin.eigh", fn),
              "vecmag.pulses": _wrap(recorder, "pulses.eigh", fn)}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__")
        return traced.get(caller, fn)(*args, **kwargs)

    return wrapper


def install(recorder: Recorder):
    """Wrap the public functions of every loaded vecmag module.

    Every module attribute (and every function held in a module-level
    tuple, such as the criteria table) that refers to a wrapped function is
    redirected, so calls between modules are traced too. Returns a callable
    that restores the original attributes.
    """
    import numpy as np

    modules = {name: sys.modules[f"vecmag.{name}"] for name in MODULES
               if f"vecmag.{name}" in sys.modules}
    wrappers = {}
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[id(value)] = _wrap(recorder, f"{short}.{attr}", value)
    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                replacement = wrappers[id(value)]
            elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                replacement = tuple(wrappers.get(id(v), v) for v in value)
            else:
                continue
            undo.append((module, attr, value))
            setattr(module, attr, replacement)
    undo.append((np.linalg, "eigh", np.linalg.eigh))
    np.linalg.eigh = _wrap_eigh(recorder, np.linalg.eigh)

    def uninstall():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return uninstall


def _traced_cli(trace_path: str, argv: list[str]) -> int:
    import vecmag.cli

    recorder = Recorder()
    install(recorder)
    try:
        code = vecmag.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
