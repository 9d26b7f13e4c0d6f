"""The `large-n` workload: chains at large N in one process, as a library user.

Reads one JSON request on stdin and writes one JSON result on stdout:

    {"seed": 1, "seconds": 30, "trace": false, "smoke": false}

With "setup_only", it imports `vecmag.schemes`, warms up and exits; the
benchmark times such runs as the workload's set-up. Otherwise it repeats
the seeded job list in rounds (workloads.plan_more_rounds), alternating
untraced and traced rounds when "trace" is set, and reports per-round wall
times, per-job latencies, result digests and oracle failures, peak RSS and
the traced span summaries.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter

import tracer
import workloads
from vecmag import schemes
from vecmag.spin import EnsembleDims, FieldVector


def _warm_up() -> None:
    """First BLAS/LAPACK calls and lazy numpy set-up, outside timing."""
    for scheme, axis in (("sequential", None), ("parallel", "x")):
        cfg = schemes.SchemeConfig(scheme, "ghz", EnsembleDims(4),
                                   FieldVector(0.3, 0.2, 0.1), (1.0, 1.0, 1.0))
        schemes.jz_moments(schemes.final_state(cfg, axis))


def _check(cfg, axis, jz, jz2) -> str | None:
    spin = cfg.dims.N / 2.0
    want, want2 = schemes.analytic_jz(cfg, axis), schemes.analytic_jz2(cfg, axis)
    if abs(jz - want) > 1e-9 * spin or abs(jz2 - want2) > 1e-9 * spin * spin:
        return (f"N={cfg.dims.N} {cfg.scheme} {cfg.probe} axis={axis}: "
                f"<Jz>={jz!r} vs {want!r}, <Jz^2>={jz2!r} vs {want2!r}")
    return None


def _config(job):
    return schemes.SchemeConfig(
        "parallel" if job["kind"] == "parallel" else "sequential", job["probe"],
        EnsembleDims(job["n"]), FieldVector(*job["field"]), tuple(job["durations"]))


def _run_round(jobs):
    latencies, outputs = [], []
    start = perf_counter()
    for job in jobs:
        cfg = _config(job)
        t0 = perf_counter()
        if job["kind"] == "precision":
            report = schemes.precision_report(cfg)
            moments = [(None, a.jz, a.jz2) for a in report.axes]
        elif job["kind"] == "parallel":
            moments = [(ax, *schemes.jz_moments(schemes.final_state(cfg, ax))) for ax in "xyz"]
        else:
            moments = [(None, *schemes.jz_moments(schemes.final_state(cfg)))]
        latencies.append(perf_counter() - t0)
        outputs.append(moments)
    return perf_counter() - start, latencies, outputs


def _problems(jobs, outputs) -> list:
    problems = []
    for index, (job, moments) in enumerate(zip(jobs, outputs)):
        cfg = _config(job)
        for axis, jz, jz2 in moments:
            problem = _check(cfg, axis, jz, jz2)
            if problem:
                problems.append([index, problem])
    return problems


def main() -> int:
    request = json.load(sys.stdin)
    _warm_up()
    if request.get("setup_only"):
        return 0
    jobs = workloads.large_n_jobs(request["seed"], request["smoke"])
    rounds = []
    start = perf_counter()
    while workloads.plan_more_rounds([r["wall"] for r in rounds],
                                     perf_counter() - start, request["seconds"]):
        traced = request["trace"] and len(rounds) % 2 == 1
        recorder = tracer.Recorder()
        uninstall = tracer.install(recorder) if traced else None
        try:
            wall, latencies, outputs = _run_round(jobs)
        finally:
            if uninstall:
                uninstall()
        rounds.append({"wall": wall, "traced": traced, "latencies": latencies,
                       "digests": [hashlib.sha256(repr(m).encode()).hexdigest()
                                   for m in outputs],
                       "problems": _problems(jobs, outputs),
                       "trace": recorder.summary() if traced else None})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"rounds": rounds, "jobs": len(jobs), "peak_rss_kb": peak_kb}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
