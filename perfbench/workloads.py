"""Seeded job lists and their oracles for the three benchmark workloads.

A workload run repeats one fixed job list (a "round") built from the seed.
The program under test sees only the generated command-line arguments (CLI
workloads) or library calls (`large-n`).

Every job has an oracle:

* `spectrum`: the recovered field lies within 2 FFT bins of the generating
  field, with its signs. The cat-probe signal is even in By, so there only
  the sign of Bz is checked (docs/conventions.md).
* typed failures: exit code 4, a JSON error line naming the job's own
  estimation error, and no artifact. Out-of-regime fields have
  By > Bx > Bz > 0: other fields with By + Bz > Bx can alias onto the
  spectrum of an in-regime field, and the program then reports that wrong
  field with exit 0, a correctness defect this benchmark does not measure.
  Their six (folded) lines are well separated, so the input is out of
  regime and not also under-resolved. Under-resolved inputs have
  |By| = |Bz|, which merges spectral lines in exact arithmetic.
* `robustness`: F2 is 1 at eta = 0 and the alternating mean F2 (the mean
  over trials of each trial's minimum) is at least 0.99 at eta = 0.06 pi;
  the alternating run must report that entry.
* `validate`: every requested criterion is reported, and passes.
* `large-n`: simulated <Jz> and <Jz^2> equal `analytic_jz`/`analytic_jz2`.
* everything else (`simulate`, `precision`, `qfi`, `scaling`): values
  recorded in reference.json at the benchmark's first commit, drawn from
  fixed pools so each seeded job has a recorded answer. A scaling table
  must hold exactly the recorded rows for its N values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
POOL_SEED = 20230804
SPECTRUM_M = 4096

# Tolerances against recorded values: closed-form and simulated traces to
# 1e-9 of the spin length J = N/2; Fisher-information and precision figures
# (finite differences today) and minimized precisions to 1e-6 relative.
TRACE_TOL = 1e-9
REPORT_RTOL = 1e-6


@dataclass(frozen=True)
class CliJob:
    """One cold `python -m vecmag.cli` process."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> problem

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _num(x: float) -> str:
    return repr(float(x))


def _triple(b) -> str:
    return ",".join(_num(v) for v in b)


def _split(stdout: str):
    head, _, body = stdout.partition("\n")
    if not head.startswith("# "):
        raise ValueError("artifact has no metadata line")
    return json.loads(head[2:]), body


def _csv_rows(body: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(body)))[1:]


# ------------------------------------------------------------ value oracles

def artifact_values(command: str, stdout: str) -> list:
    """The numbers an artifact reports, in a fixed order, for recording."""
    meta, body = _split(stdout)
    if command == "simulate":
        return [float(r[1]) for r in _csv_rows(body)]
    if command == "precision":
        doc = json.loads(body)
        return [a[k] for a in doc["axes"] for k in sorted(a) if k not in ("axis", "blind_spot")]
    if command == "qfi":
        doc = json.loads(body)
        return [doc[ax][k] for ax in sorted(doc) for k in sorted(doc[ax])]
    if command == "scaling":
        return [[r[0], r[1]] + [float(v) if v else None for v in r[2:5]]
                for r in _csv_rows(body)]
    raise ValueError(f"no recorded values for {command!r}")


def _close(got, want, rtol: float, atol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= atol + rtol * abs(want)


def _recorded_check(command: str, key: str, reference: dict, rtol: float, atol: float):
    def check(stdout: str, stderr: str) -> str | None:
        want = reference.get(key)
        if want is None:
            return "no recorded value for this job"
        got = artifact_values(command, stdout)
        if len(got) != len(want):
            return f"{len(got)} values, recorded {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if not _close(g, w, rtol, atol):
                return f"value {i} = {g!r}, recorded {w!r}"
        return None

    return check


def _scaling_check(table: dict, n_values, rtol: float):
    expected = {f"{probe},{n}" for probe in ("scs", "ghz") for n in n_values}

    def check(stdout: str, stderr: str) -> str | None:
        rows = artifact_values("scaling", stdout)
        got = [f"{probe},{n}" for n, probe, *_ in rows]
        if sorted(got) != sorted(expected):
            return f"rows {sorted(got)}, expected {sorted(expected)}"
        for n, probe, *values in rows:
            want = table.get(f"{probe},{n}")
            if want is None:
                return f"no recorded value for {probe} N={n}"
            if len(values) != len(want):
                return f"{probe} N={n}: {len(values)} values, recorded {len(want)}"
            for g, w in zip(values, want):
                if not _close(g, w, rtol, 0.0):
                    return f"{probe} N={n}: {g!r}, recorded {w!r}"
        return None

    return check


def _typed_failure_check(expected: str):
    def check(stdout: str, stderr: str) -> str | None:
        lines = stderr.strip().splitlines()
        try:
            kind = json.loads(lines[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return f"no JSON error line on stderr: {stderr[-200:]!r}"
        if kind != expected:
            return f"error kind {kind!r}, expected {expected!r}"
        if stdout:
            return "a failed estimate wrote an artifact"
        return None

    return check


def _spectrum_check(probe: str, n: int, field):
    def check(stdout: str, stderr: str) -> str | None:
        meta, _ = _split(stdout)
        rec = meta["recovered"]
        scale = n if probe == "ghz" else 1.0
        bin_width = 2.0 * math.pi / (meta["params"]["t_max"] * scale)
        bx, by, bz = field
        err = max(abs(rec["bx"] - bx), abs(abs(rec["by"]) - abs(by)),
                  abs(abs(rec["bz"]) - abs(bz))) / bin_width
        if err > 2.0:
            return f"recovered field off by {err:.2f} bins"
        if (rec["bz"] > 0) != (bz > 0):
            return "wrong sign of Bz"
        if probe == "scs" and (rec["by"] > 0) != (by > 0):
            return "wrong sign of By"
        return None

    return check


def _robustness_check(stdout: str, stderr: str) -> str | None:
    meta, body = _split(stdout)
    at_zero = [row for row in _csv_rows(body) if float(row[0]) == 0.0]
    if not at_zero:
        return "no rows at eta = 0"
    for eta, mode, t, mean, std in at_zero:
        if abs(float(mean) - 1.0) > 1e-12 or float(std) > 1e-12:
            return f"F2 = {mean} +- {std} at eta = 0 ({mode}, t = {t})"
    if meta["params"]["mode"] == "identical":
        return None
    entries = [e for e in meta["summary"]
               if e["mode"] == "alternating" and math.isclose(e["eta"], 0.06 * math.pi)]
    if not entries:
        return "no alternating summary at eta = 0.06 pi"
    for entry in entries:
        if entry["mean_trajectory_min"] < 0.99:
            return f"alternating mean F2 {entry['mean_trajectory_min']} < 0.99"
    return None


def _validate_check(criteria: int):
    def check(stdout: str, stderr: str) -> str | None:
        rows = _csv_rows(_split(stdout)[1])
        if len(rows) != criteria:
            return f"{len(rows)} criteria reported, expected {criteria}"
        failed = [r[1] for r in rows if r[2] != "true"]
        return f"criteria failed: {failed}" if failed else None

    return check


# ------------------------------------------------------------------ inputs

def _lines(bx: float, by: float, bz: float) -> list[float]:
    return [bx + by + bz, bx + by - bz, bx - by + bz, bx - by - bz, bx + bz, bx - bz]


def _separated(bx: float, by: float, bz: float, m: int = SPECTRUM_M) -> bool:
    """The six lines, folded to positive frequency, lie at least 16 FFT
    bins from each other and from zero at the default trace length."""
    lines = sorted(abs(w) for w in _lines(bx, by, bz))
    bin_width = 8.0 * (bx + abs(by) + abs(bz)) / m  # field units, quarter-Nyquist t_max
    gaps = [lines[0]] + [b - a for a, b in zip(lines, lines[1:])]
    return min(gaps) >= 16 * bin_width


def resolvable_field(rng: random.Random):
    """In-regime field (Bx > |By| + |Bz|) with separated spectral lines.

    Coincident lines (for example |By| = 2|Bz|) are under-resolved by
    construction, a different job class.
    """
    while True:
        bx = rng.uniform(1.0, 10.0)
        by = rng.uniform(0.1, 0.45) * bx
        bz = rng.uniform(0.1, 0.45) * bx
        if by + bz <= 0.8 * bx and _separated(bx, by, bz):
            return (bx, rng.choice((-1.0, 1.0)) * by, rng.choice((-1.0, 1.0)) * bz)


def out_of_regime_field(rng: random.Random):
    """Field with By > Bx > Bz > 0 whose folded lines are separated."""
    while True:
        bx = rng.uniform(1.0, 10.0)
        field = (bx, rng.uniform(1.1, 2.0) * bx, rng.uniform(0.1, 0.9) * bx)
        if _separated(*field):
            return field


def _small_field(rng: random.Random):
    return tuple(round(rng.uniform(0.2, 1.4), 6) for _ in range(3))


def pool(kind: str, size: int) -> list[tuple[str, ...]]:
    """Fixed argument lists with answers recorded in reference.json."""
    rng = random.Random(f"{POOL_SEED}-{kind}")
    pool = []
    for _ in range(size):
        probe = rng.choice(("scs", "ghz"))
        field = _triple(_small_field(rng))
        if kind == "simulate":
            n = rng.randrange(2, 41, 2)
            scheme = rng.choice(("sequential", "parallel"))
            axis = ("--axis", rng.choice("xyz")) if scheme == "parallel" else ()
            stop = round(rng.uniform(2.0, 12.0), 3)
            pool.append(("simulate", "--scheme", scheme, "--probe", probe, "--N", str(n),
                         "--B", field, *axis, "--grid", f"0:{stop}:256"))
        elif kind in ("precision", "qfi"):
            n = rng.randrange(2, 21, 2)
            scheme = rng.choice(("sequential", "parallel"))
            durations = _triple(round(rng.uniform(0.5, 1.5), 3) for _ in range(3))
            pool.append((kind, "--scheme", scheme, "--probe", probe, "--N", str(n),
                         "--B", field, "--T", durations))
        elif kind == "exact":
            n = rng.randrange(4, 13, 2)
            pool.append(("simulate", "--scheme", "sequential", "--probe", probe,
                         "--N", str(n), "--B", field, "--grid", "0:1:16",
                         "--evolution", "exact", "--tau", "0.002"))
        else:
            raise ValueError(kind)
    return pool


POOL_SIZES = {"simulate": 24, "precision": 24, "qfi": 24, "exact": 8}
SCALING_N = (4, 8, 12, 16)
SCALING_DURATIONS = ("0.5", "1.0", "2.0")


def scaling_argv(duration: str, n_values=SCALING_N) -> tuple[str, ...]:
    return ("scaling", "--scheme", "sequential", "--probe", "both",
            "--N", ",".join(map(str, n_values)), "--duration", duration)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _recorded_job(kind: str, argv, reference: dict, n: int) -> CliJob:
    command = argv[0]
    if command == "simulate":
        rtol, atol = 0.0, TRACE_TOL * n / 2.0
    else:
        rtol, atol = REPORT_RTOL, 1e-9
    key = " ".join(argv)
    return CliJob(kind, tuple(argv), 0,
                  _recorded_check(command, key, reference.get("jobs", {}), rtol, atol))


def _arg(argv, flag) -> str:
    return argv[argv.index(flag) + 1]


def cli_light_jobs(seed: int, smoke: bool = False) -> list[CliJob]:
    """Light commands, about three quarters import: 8 successes, 2 typed failures."""
    rng = random.Random(f"cli-light-{seed}")
    reference = load_reference()
    jobs = []
    per_kind = 1 if smoke else 2
    for kind in ("simulate", "precision", "qfi"):
        for argv in rng.sample(pool(kind, POOL_SIZES[kind]), per_kind):
            jobs.append(_recorded_job(kind, argv, reference, int(_arg(argv, "--N"))))
    for _ in range(per_kind):
        probe, n = rng.choice(("scs", "ghz")), rng.randrange(2, 41, 2)
        field = resolvable_field(rng)
        jobs.append(CliJob("spectrum", ("spectrum", "--probe", probe, "--N", str(n),
                                        "--B", _triple(field)),
                           0, _spectrum_check(probe, n, field)))
    probe, n = rng.choice(("scs", "ghz")), rng.randrange(2, 41, 2)
    jobs.append(CliJob("out-of-regime", ("spectrum", "--probe", probe, "--N", str(n),
                                         "--B", _triple(out_of_regime_field(rng))),
                       4, _typed_failure_check("out-of-regime")))
    probe, n, bx = rng.choice(("scs", "ghz")), rng.randrange(2, 41, 2), rng.uniform(1.0, 10.0)
    b = rng.uniform(0.1, 0.45) * bx
    jobs.append(CliJob("under-resolved", ("spectrum", "--probe", probe, "--N", str(n),
                                          "--B", _triple((bx, b, rng.choice((-1, 1)) * b))),
                       4, _typed_failure_check("under-resolved")))
    rng.shuffle(jobs)
    return jobs


def sweeps_jobs(seed: int, smoke: bool = False) -> list[CliJob]:
    """The heavy artifact commands, one cold process each."""
    rng = random.Random(f"sweeps-{seed}")
    reference = load_reference()
    field = _triple(round(rng.uniform(1.0, 8.0), 6) for _ in range(3))
    pairs, trials = ("20", "2") if smoke else ("100", "6")
    noise_seed = str(rng.randrange(1, 10**6))
    # one job per mode, so the median job sits among similar light jobs
    robustness = [("robustness", "--N", "10", "--B", field, "--pairs", pairs,
                   "--trials", trials, "--eta", "0,0.06pi", "--mode", mode,
                   "--seed", noise_seed) for mode in ("alternating", "identical")]
    exact = rng.choice(pool("exact", POOL_SIZES["exact"]))
    duration = rng.choice(SCALING_DURATIONS)
    scaling_n = SCALING_N[:3] if smoke else SCALING_N
    scaling = scaling_argv(duration, scaling_n)
    validate = ("validate", "--seed", str(rng.randrange(1, 10**6)))
    if smoke:
        validate += ("--only", "10")
    table = reference.get("scaling", {}).get(duration, {})
    jobs = [CliJob("robustness", argv, 0, _robustness_check) for argv in robustness]
    jobs += [
        _recorded_job("simulate-exact", exact, reference, int(_arg(exact, "--N"))),
        CliJob("scaling", scaling, 0, _scaling_check(table, scaling_n, REPORT_RTOL)),
        CliJob("validate", validate, 0, _validate_check(1 if smoke else 10)),
    ]
    rng.shuffle(jobs)
    return jobs


# Chain sizes on large-n; the per-N final_state timings use this set.
LARGE_N_SIZES = (10, 100, 150, 250, 500, 1000)


def large_n_jobs(seed: int, smoke: bool = False) -> list[dict]:
    """Library calls at large N in one process, several fields per N."""
    rng = random.Random(f"large-n-{seed}")
    if smoke:
        plan = [("sequential", "scs", 10, 2), ("sequential", "ghz", 40, 2),
                ("parallel", "ghz", 20, 1), ("precision", "scs", 10, 1)]
    else:
        # Nine light jobs (N <= 250 and a precision report at N = 100), ten
        # sequential product-probe chains at N = 500, four heavier jobs: the
        # median job is an N = 500 chain, whose time is mostly two-thread
        # BLAS on matrices larger than the cache, and wall_s is mostly the
        # N >= 500 chains.
        plan = [("sequential", p, n, 1) for n in (10, 100, 250) for p in ("scs", "ghz")]
        plan += [("parallel", "ghz", 100, 1), ("parallel", "scs", 250, 1),
                 ("precision", "scs", 100, 1)]
        plan += [("sequential", "scs", 500, 10)]
        plan += [("precision", "scs", 150, 1), ("sequential", "ghz", 500, 1),
                 ("sequential", "scs", 1000, 2)]
    jobs = []
    for kind, probe, n, fields in plan:
        for _ in range(fields):
            jobs.append({"kind": kind, "probe": probe, "n": n,
                         "field": [round(rng.uniform(0.1, 1.5), 6) for _ in range(3)],
                         "durations": [round(rng.uniform(0.5, 1.5), 6) for _ in range(3)]})
    return jobs


def plan_more_rounds(round_walls: list[float], elapsed: float, seconds: float,
                     min_rounds: int = 2) -> bool:
    """Start another round while it is expected to end within `seconds`."""
    if len(round_walls) < min_rounds:
        return True
    ordered = sorted(round_walls)
    return elapsed + ordered[len(ordered) // 2] <= seconds
