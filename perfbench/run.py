"""vecmag benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each workload is a closed loop with one client: one job at
a time from this process. A run builds the seeded job list, times set-up,
then repeats the list in rounds for about `--seconds` seconds (at least two
rounds), and checks every job's output against its oracle and every job's
artifact bytes against the first round's.

Workloads (see workloads.py for the job lists and oracles):

* cli-light: cold `python -m vecmag.cli` runs of simulate (analytic),
  spectrum, precision and qfi, plus typed-failure spectra; mostly import.
* sweeps: cold runs of robustness (both modes), simulate --evolution exact,
  scaling and validate; per-call cost on small matrices.
* large-n: final_state and precision_report for N up to 1000 in one
  process (largen.py); O(N^3) eigendecompositions.

With `--trace 0` the last stdout line holds the end-to-end metrics (wall_s,
job_p50_s, setup_s, peak_rss_mb). With `--trace 1` rounds alternate between
untraced and traced; the last line holds the per-layer metrics of the traced
rounds (tracer.py) and the tracing overhead. Earlier lines give the
environment, the failure fraction and the typed-failure share. `--smoke`
runs every workload at a small size and checks the metric names, units,
self-time sums and that tracing changes no artifact byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 150.0
# set-up probes before the rounds, and as many after them (large-n's are short)
SETUP_PROBES = {"cli-light": 3, "sweeps": 3, "large-n": 5}
IMPORT_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ENTRY_MODULES = {"cli-light": "vecmag.cli", "sweeps": "vecmag.cli", "large-n": "vecmag.schemes"}
CLI_JOBS = {"cli-light": workloads.cli_light_jobs, "sweeps": workloads.sweeps_jobs}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up)."""


# --------------------------------------------------------------- processes

def program_env() -> tuple[dict, dict]:
    """Child environment: the checkout's src/ first, default pools.

    Returns (env, notes). VECMAG_WORKERS is removed so the CLI's default
    pool is measured; BLAS thread variables above nproc are capped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    nproc = os.cpu_count() or 1
    notes = {}
    if env.pop("VECMAG_WORKERS", None) is not None:
        notes["VECMAG_WORKERS"] = "removed"
    for var in THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > nproc:
            env[var] = str(nproc)
            notes[var] = f"capped {value} -> {nproc}"
    return env, notes


class Runner:
    """Starts one child at a time and waits for it, recording its peak RSS."""

    def __init__(self, env: dict, workdir: Path):
        self.env = env
        self.workdir = workdir

    def run(self, cmd: list[str], stdin: bytes | None = None):
        """-> (exit code, stdout, stderr, seconds, peak RSS in KiB)."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin is not None
                                    else subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                if stdin is not None:
                    proc.stdin.write(stdin)
                    proc.stdin.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(), err.read().decode(),
                    seconds, usage.ru_maxrss)


def check_program(runner: Runner) -> dict:
    """Versions and BLAS of the interpreter that runs the jobs.

    Fails unless `vecmag` imports from this checkout's src/.
    """
    probe = (
        "import json, sys, importlib.metadata as md, numpy, vecmag\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'vecmag_file': vecmag.__file__, 'python': sys.version.split()[0],"
        " 'numpy': numpy.__version__, 'scipy': md.version('scipy'),"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n")
    code, out, err, _, _ = runner.run([sys.executable, "-c", probe])
    if code != 0:
        raise BenchmarkError(f"cannot import vecmag from {ROOT / 'src'}: {err.strip()[-300:]}")
    info = json.loads(out)
    if not Path(info["vecmag_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"vecmag imported from {info['vecmag_file']}, not this checkout")
    del info["vecmag_file"]
    return info


def environment(runner: Runner, notes: dict) -> dict:
    info = check_program(runner)
    info["nproc"] = os.cpu_count()
    info["thread_env"] = {v: os.environ[v] for v in THREAD_VARS + ("VECMAG_WORKERS",)
                          if v in os.environ}
    info["thread_env_changes"] = notes
    info["loadavg_start"] = list(os.getloadavg())
    return info


def _median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------- setup

def setup_seconds(runner: Runner, workload: str, probes: int) -> list[float]:
    """Times for fresh interpreters to import the entry module (and, for
    large-n, to warm up as largen.py does before timing)."""
    if workload == "large-n":
        cmd, stdin = [sys.executable, str(HERE / "largen.py")], b'{"setup_only": true}'
    else:
        cmd, stdin = [sys.executable, "-c", f"import {ENTRY_MODULES[workload]}"], None
    times = []
    for _ in range(probes):
        code, _, err, seconds, _ = runner.run(cmd, stdin)
        if code != 0:
            raise BenchmarkError(f"set-up failed: {err.strip()[-300:]}")
        times.append(seconds)
    return times


def import_seconds(runner: Runner, probes: int) -> dict:
    """Median cumulative `-X importtime` of vecmag.cli and vecmag.estimation."""
    found = {"vecmag.cli": [], "vecmag.estimation": []}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(probes):
        code, _, err, _, _ = runner.run([sys.executable, "-X", "importtime", "-c",
                                         "import vecmag.cli"])
        if code != 0:
            raise BenchmarkError(f"import failed: {err.strip()[-300:]}")
        for line in err.splitlines():
            match = pattern.match(line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {name: _median(values) for name, values in found.items()}


# ------------------------------------------------------------------ rounds

def merge_summaries(summaries, walls) -> dict:
    """One summary from several, keeping each one's per-thread self times
    with the wall time they must not exceed."""
    spans, counters, limits = {}, {}, []
    for summary, wall in zip(summaries, walls):
        limits.append([summary["thread_self_s"], wall])
        for name, (calls, inclusive, self_s) in summary["spans"].items():
            have = spans.setdefault(name, [0, 0.0, 0.0])
            have[0] += calls
            have[1] += inclusive
            have[2] += self_s
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters, "limits": limits}


def cli_round(runner: Runner, jobs, traced: bool) -> dict:
    results, summaries, traced_walls = [], [], []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if traced:
            trace_path = runner.workdir / f"trace-{i}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *job.argv]
        else:
            cmd = [sys.executable, "-m", "vecmag.cli", *job.argv]
        results.append(runner.run(cmd))
        if traced and trace_path.exists():
            summaries.append(json.loads(trace_path.read_text()))
            traced_walls.append(results[-1][3])
            trace_path.unlink()
    wall = perf_counter() - start
    problems, digests = [], []
    for index, (job, (code, out, err, _, _)) in enumerate(zip(jobs, results)):
        digests.append(hashlib.sha256((out + "\0" + err).encode()).hexdigest())
        if code != job.expect_exit:
            problem = f"exit {code}, expected {job.expect_exit}: {err.strip()[-300:]}"
        else:
            try:
                problem = job.check(out, err)
            except Exception as exc:  # a malformed artifact fails the job, not the run
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            problems.append([index, f"{job.kind} [{job.key}]: {problem}"])
    return {"wall": wall, "traced": traced, "latencies": [r[3] for r in results],
            "digests": digests, "problems": problems,
            "peak_rss_kb": max(r[4] for r in results),
            "trace": merge_summaries(summaries, traced_walls) if traced else None}


def run_cli_workload(runner: Runner, jobs, seconds: float, trace: bool) -> dict:
    rounds = []
    start = perf_counter()
    while workloads.plan_more_rounds([r["wall"] for r in rounds],
                                     perf_counter() - start, seconds):
        rounds.append(cli_round(runner, jobs, trace and len(rounds) % 2 == 1))
    return {"rounds": rounds, "jobs": len(jobs),
            "peak_rss_kb": max(r["peak_rss_kb"] for r in rounds if not r["traced"])}


def run_large_n(runner: Runner, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    request = json.dumps({"seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke})
    code, out, err, _, _ = runner.run([sys.executable, str(HERE / "largen.py")],
                                      request.encode())
    if code != 0:
        raise BenchmarkError(f"large-n worker failed: {err.strip()[-500:]}")
    result = json.loads(out)
    for rnd in result["rounds"]:
        if rnd["traced"]:
            rnd["trace"] = merge_summaries([rnd["trace"]], [rnd["wall"]])
    return result


def score(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a job fails its oracle, or writes
    other bytes than the same job in the first round."""
    rounds = result["rounds"]
    first = rounds[0]["digests"]
    attempted = failed = 0
    problems = []
    for number, rnd in enumerate(rounds):
        attempted += len(rnd["digests"])
        bad = {index for index, _ in rnd["problems"]}
        problems += [text for _, text in rnd["problems"]]
        changed = {i for i, (a, b) in enumerate(zip(rnd["digests"], first)) if a != b}
        if changed:
            problems.append(f"round {number} ({'traced' if rnd['traced'] else 'untraced'}): "
                            f"jobs {sorted(changed)} wrote other bytes than in round 0")
        failed += len(bad | changed)
    return attempted, failed, problems


# ----------------------------------------------------------------- metrics

def end_to_end(result: dict, setup_s: float) -> dict:
    plain = [r for r in result["rounds"] if not r["traced"]]
    return {
        "wall_s": _median([r["wall"] for r in plain]),
        "job_p50_s": _median([t for r in plain for t in r["latencies"]]),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(summary: dict, imports: dict, traced_wall: float, plain_wall: float) -> dict:
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {"cli.import_s": imports["vecmag.cli"],
         "estimation.import_s": imports["vecmag.estimation"],
         "cli.main.self_s": self_s("cli.main")}
    for module in tracer.MODULES:
        m[f"{module}.self_s"] = sum((v[2] for k, v in spans.items()
                                     if k.startswith(module + ".")), 0.0)
    m["spin.eigh.calls"] = calls("spin.eigh")
    m["spin.eigh.s"] = self_s("spin.eigh")
    m["spin.eigh.dim3_sum"] = counters.get("spin.eigh.dim3_sum", 0)
    for name in ("spin.unitary_from_generator", "spin.apply_unitary",
                 "schemes.final_state", "schemes.qfi_numeric", "pulses.evolve_exact",
                 "estimation.sample_signal", "estimation.minimized_delta_b"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for n in workloads.LARGE_N_SIZES:
        m[f"schemes.final_state.n{n}.s"] = counters.get(f"schemes.final_state.n{n}.s", 0.0)
    for name in ("schemes.delta_b_numeric", "schemes.precision_report",
                 "pulses.fidelity_f2", "pulses.fidelity_f1",
                 "estimation.recover_from_trace"):
        m[f"{name}.self_s"] = self_s(name)
    pairs, pair_s = counters.get("pulses.pairs", 0), counters.get("pulses.pair_s", 0.0)
    m["pulses.pairs"] = pairs
    m["pulses.pairs_per_s"] = pairs / pair_s if pair_s > 0 else 0.0
    for k in range(1, 11):
        m[f"validation.criterion_{k}.s"] = inclusive(f"validation.criterion_{k}")
    m["trace.spans"] = sum(v[0] for v in spans.values())
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    return m


def layer_metrics(result: dict, imports: dict) -> dict:
    """Median over traced rounds of each per-layer metric."""
    plain_wall = _median([r["wall"] for r in result["rounds"] if not r["traced"]])
    per_round = [per_layer(r["trace"], imports, r["wall"], plain_wall)
                 for r in result["rounds"] if r["traced"]]
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        counts = all(isinstance(v, int) for v in values)
        metrics[name] = statistics.median_low(values) if counts else _median(values)
    return metrics


def self_time_problems(result: dict) -> list[str]:
    problems = []
    for rnd in result["rounds"]:
        if not rnd["traced"]:
            continue
        selfs = [v[2] for v in rnd["trace"]["spans"].values()]
        if min(selfs, default=0.0) < 0:
            problems.append("negative self time")
        for thread_self, wall in rnd["trace"]["limits"]:
            if max(thread_self, default=0.0) > wall:
                problems.append(f"one thread's self times sum to {max(thread_self):.4f} s "
                                f"> traced wall {wall:.4f} s")
    return problems


# --------------------------------------------------------------------- run

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """-> (raw result, metrics by name); trace picks the metric set."""
    probes = 1 if smoke else SETUP_PROBES[workload]
    setup = setup_seconds(runner, workload, probes)
    imports = import_seconds(runner, 1 if smoke else IMPORT_PROBES) if trace else None
    if workload == "large-n":
        result = run_large_n(runner, seed, seconds, trace, smoke)
    else:
        jobs = CLI_JOBS[workload](seed, smoke)
        result = run_cli_workload(runner, jobs, seconds, trace)
        result["typed_failure_jobs"] = sum(j.expect_exit != 0 for j in jobs)
    # probes on both sides of the rounds, so one slow spell of the machine
    # does not set the median
    setup_s = _median(setup + setup_seconds(runner, workload, probes))
    metrics = layer_metrics(result, imports) if trace else end_to_end(result, setup_s)
    result["setup_s"] = setup_s
    return result, metrics


def report(spec: dict, workload: str, result: dict, metrics: dict, trace: bool,
           env: dict) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} differ "
                             "from BENCHMARK.json")
    attempted, failed, problems = score(result)
    if trace:
        problems += self_time_problems(result)
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    rounds = result["rounds"]
    print(f"workload {workload}: {len(rounds)} rounds of {result['jobs']} jobs "
          f"({sum(r['traced'] for r in rounds)} traced)")
    if "typed_failure_jobs" in result:
        print(f"typed-failure jobs: {result['typed_failure_jobs']} of {result['jobs']} "
              f"per round ({result['typed_failure_jobs'] / result['jobs']:.1%})")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"problem: {problem}")
    if trace:
        print("note: spin.eigh.dim3_sum is computed (sum of dim^3 over eigh calls), "
              "not measured; pulses.pairs is computed from the schedules")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def smoke(runner: Runner, spec: dict) -> list[str]:
    """Small-size run of every workload, traced and untraced rounds."""
    problems = []
    for workload in ENTRY_MODULES:
        result, layers = measure(runner, workload, 1, 0.0, True, smoke=True)
        e2e = end_to_end(result, result["setup_s"])
        for declared, got in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
            names = {m["name"] for m in declared}
            if names != set(got):
                problems.append(f"{workload}: metric names differ: {sorted(names ^ set(got))}")
            for m in declared:
                if not m.get("unit"):
                    problems.append(f"{workload}: {m['name']} has no unit")
        for name, value in e2e.items():
            if not value > 0:
                problems.append(f"{workload}: {name} = {value}")
        _, failed, found = score(result)
        problems += [f"{workload}: {p}" for p in found + self_time_problems(result)]
        print(f"smoke {workload}: {len(result['rounds'])} rounds, {failed} failed jobs, "
              f"wall_s {e2e['wall_s']:.3f}, traced wall "
              f"{layers['trace.wall_s']:.3f}, spans {layers['trace.spans']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ENTRY_MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself at a small size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    env, notes = program_env()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        runner = Runner(env, workdir)
        info = environment(runner, notes)
        spec = load_spec()
        if args.smoke:
            problems = smoke(runner, spec)
            for problem in problems:
                print(f"smoke problem: {problem}")
            print("smoke ok" if not problems else "smoke FAILED")
            return 1 if problems else 0
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result, metrics = measure(runner, args.workload, args.seed, seconds,
                                  bool(args.trace))
        line = report(spec, args.workload, result, metrics, bool(args.trace), info)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
