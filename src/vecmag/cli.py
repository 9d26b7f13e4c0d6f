"""Command-line front end: traces, spectra, precision and QFI reports,
scaling and robustness sweeps, and the validation suite.

Every run writes a single text artifact: a `#`-prefixed JSON metadata line
(command, every parsed flag, package version) followed by the payload,
either CSV rows with a header or a JSON document.  Identical invocations
produce byte-identical artifacts.

Exit codes: 0 success; 2 bad flags or flag combinations; 3 numerical or
validation failure; 4 estimation outside its regime (under-resolved
spectrum, ambiguous signs, field violating Bx > By + Bz >= 0).  See the
Artifacts section of docs/conventions.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import (
    AmbiguousSignError,
    AnalyticBranchError,
    BoundViolationError,
    OutOfRegimeError,
    UnderResolvedError,
    __version__,
)
from .spin import AXES, EnsembleDims, FieldVector

# Each command imports the modules it runs (schemes, estimation, pulses or
# validation) when it runs, so a cold process loads only those.

# Typed failures: exit code and the `error` kind written to stderr as JSON.
FAILURES = {
    BoundViolationError: (3, "bound-violation"),
    UnderResolvedError: (4, "under-resolved"),
    OutOfRegimeError: (4, "out-of-regime"),
    AmbiguousSignError: (4, "ambiguous-signs"),
}

# Parsed attributes that are plumbing or artifact paths, not run parameters.
NOT_ECHOED = ("command", "func", "parser", "output", "recovered_output")


# ---------------------------------------------------------------- flag types

def _angle(text: str) -> float:
    """Plain float, or a pi multiple written like `0.06pi` or `pi`."""
    text = text.strip().lower()
    try:
        if text.endswith("pi"):
            head = text[:-2].strip()
            value = (float(head) if head else 1.0) * math.pi
        else:
            value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or a pi multiple like 0.06pi, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_angle(text: str) -> float:
    value = _angle(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    return tuple(_angle(p) for p in parts)


def _durations(text: str) -> tuple[float, float, float]:
    values = _triple(text)
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"durations must be >= 0, got {text!r}")
    return values


def _grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:points, got {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(
            f"expected finite start and stop, got {text!r}")
    if points < 2 or stop <= start:
        raise argparse.ArgumentTypeError(
            f"need stop > start and points >= 2, got {text!r}")
    return start, stop, points


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a seed >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"expected an integer that fits a float, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    values = tuple(_positive_int(p) for p in text.split(","))
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"ensemble sizes must be distinct, got {text!r}")
    return values


def _angle_list(text: str) -> tuple[float, ...]:
    values = tuple(_angle(p) for p in text.split(","))
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"angles must be >= 0, got {text!r}")
    return values


# ------------------------------------------------------------- output pieces

def _fmt(value) -> str:
    """Shortest digit string that round-trips the double exactly."""
    return repr(float(value))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_json(value):
    """JSON-ready copy of a result: dataclass fields become keys, tuples
    become lists and non-finite floats become None; ints, bools and
    strings pass through unchanged."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _json_text(doc) -> str:
    return json.dumps(to_json(doc), sort_keys=True, indent=2) + "\n"


def _write_artifact(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(args, payload, resolved=None, **extra) -> None:
    """Write the artifact: the metadata line, then the payload.

    The metadata echoes every parsed flag but NOT_ECHOED, `resolved`
    overriding the values settled at run time, and adds `extra` as
    top-level keys.  payload is CSV text or a document for to_json.
    """
    params = {key: value for key, value in vars(args).items()
              if key not in NOT_ECHOED}
    params.update(resolved or {})
    meta = {"command": args.command, "version": __version__,
            "params": params, **extra}
    line = json.dumps(to_json(meta), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    body = payload if isinstance(payload, str) else _json_text(payload)
    _write_artifact("# " + line + "\n" + body, args.output)


# ------------------------------------------------------------- subcommands

def cmd_simulate(args) -> int:
    parser = args.parser
    if args.scheme == "parallel" and args.axis is None:
        parser.error("--axis is required with --scheme parallel")
    if args.scheme == "sequential" and args.axis is not None:
        parser.error("--axis only applies to --scheme parallel")
    if args.evolution == "exact" and args.tau is None:
        parser.error("--tau is required with --evolution exact")
    if args.evolution != "exact" and args.tau is not None:
        parser.error("--tau only applies to --evolution exact")
    _require_even_for_ghz(args)
    field = FieldVector(*args.B)
    start, stop, points = args.grid
    if args.evolution != "analytic" and start < 0:
        parser.error(f"--evolution {args.evolution} needs a --grid start >= 0")
    _require_finite_phases(args, [max(abs(start), abs(stop))] * 3, "--grid")
    if args.evolution == "exact" and not math.isfinite(stop / (2.0 * args.tau)):
        parser.error(f"--tau {args.tau!r} is too small: the pulse-pair count "
                     f"{stop!r} / (2 tau) overflows")
    times = np.linspace(start, stop, points)
    from .schemes import SchemeConfig, closed_form_jz, simulated_jz

    if args.evolution == "analytic":
        phases = [field.coupling(ax) * times for ax in AXES]
        values = np.asarray(closed_form_jz(args.scheme, args.probe, args.N,
                                           *phases, axis=args.axis), dtype=float)
    else:
        cfg = SchemeConfig(args.scheme, args.probe, EnsembleDims(args.N), field,
                           (0.0, 0.0, 0.0), evolution=args.evolution, tau=args.tau)
        values = simulated_jz(cfg, times, args.axis)
    _emit(args, _csv_text(["T", "jz"],
                          ((_fmt(t), _fmt(v)) for t, v in zip(times, values))))
    return 0


def cmd_spectrum(args) -> int:
    parser = args.parser
    _require_even_for_ghz(args)
    if args.M < 2 or args.M & (args.M - 1):
        parser.error("--M must be a power of two >= 2")
    field = FieldVector(*args.B)
    scale = float(args.N) if args.probe == "ghz" else 1.0
    t_max = args.t_max
    if t_max is None:
        top = scale * sum(abs(b) for b in args.B)
        if top <= 0:
            parser.error("--t-max is required when --B is all zero")
        # keep the largest line at a quarter of the Nyquist frequency
        t_max = math.pi * args.M / (4.0 * top)
    _require_finite_phases(args, [t_max] * 3, "--t-max")
    from .estimation import recover_from_trace, sample_signal
    from .schemes import SchemeConfig

    cfg = SchemeConfig("sequential", args.probe, EnsembleDims(args.N), field,
                       (1.0, 1.0, 1.0))
    recovered, spectrum, peaks = recover_from_trace(
        sample_signal(cfg, t_max, args.M), method=args.method, on_tie=args.on_tie)
    _emit(args, _csv_text(["omega", "magnitude"],
                          ((_fmt(w), _fmt(m)) for w, m in spectrum)),
          resolved={"t_max": t_max}, recovered=recovered,
          peaks=[[p.omega, p.amplitude] for p in peaks])
    if args.recovered_output is not None:
        _write_artifact(_json_text(recovered), args.recovered_output)
    return 0


def _require_even_for_ghz(args) -> None:
    # odd N has no cat-probe closed forms, and leaves the simulated twist
    # readout inert: a flat trace at round-off, or pulse residue alone
    if args.probe == "ghz" and args.N % 2:
        args.parser.error("the ghz probe needs even --N")


def _require_finite_phases(args, times, flag: str) -> None:
    """Refuse a run whose phases overflow: every phase a chain or a closed
    form takes, m gamma B_a t (|m| <= N/2) or N gamma B_a t, is at most
    N |B_a| t_a (gamma = 1 on the command line)."""
    if not all(math.isfinite(args.N * abs(b * t)) for b, t in zip(args.B, times)):
        args.parser.error(f"--B times {flag} overflows: N |B_a| t must be finite")


def _config(args):
    from .schemes import SchemeConfig

    _require_even_for_ghz(args)
    _require_finite_phases(args, args.T, "--T")
    return SchemeConfig(args.scheme, args.probe, EnsembleDims(args.N),
                        FieldVector(*args.B), args.T)


def cmd_precision(args) -> int:
    from .schemes import precision_report

    _emit(args, precision_report(_config(args), eta=args.repetitions))
    return 0


def cmd_qfi(args) -> int:
    from .schemes import precision_report

    report = precision_report(_config(args))
    _emit(args, {entry.axis: {"main": entry.qfi_analytic_main,
                              "appendix": entry.qfi_analytic_appendix,
                              "numeric": entry.qfi_numeric,
                              "qcrb_single_shot": entry.qcrb}
                 for entry in report.axes})
    return 0


def cmd_scaling(args) -> int:
    from .estimation import minimized_delta_b, scaling_fit

    probes = ("scs", "ghz") if args.probe == "both" else (args.probe,)
    rows, fits = [], {}
    for probe in probes:
        points = {axis: [] for axis in AXES}
        for n in args.N:
            try:
                values = minimized_delta_b(args.scheme, probe, n, duration=args.duration)
            except AnalyticBranchError as exc:  # odd-N cat probe
                rows.append([str(n), probe, "", "", "", f"skipped: {exc}"])
                continue
            rows.append([str(n), probe, *(_fmt(v) for v in values), ""])
            for axis, v in zip(AXES, values):
                points[axis].append((n, v))
        if all(len(pts) >= 3 for pts in points.values()):
            fits[probe] = {
                axis: {"slope": fit.slope, "r_squared": fit.r_squared}
                for axis, fit in ((ax, scaling_fit(points[ax])) for ax in AXES)}
    _emit(args, _csv_text(["N", "probe", "db_x", "db_y", "db_z", "note"], rows),
          fits=fits)
    return 0


def cmd_robustness(args) -> int:
    from .pulses import DDSchedule, NoiseModel, fidelity_f2

    _require_finite_phases(args, (3 * 2 * args.pairs * args.tau,) * 3, "the last F2 time")
    dims = EnsembleDims(args.N)
    field = FieldVector(*args.B)
    modes = (("alternating", "identical") if args.mode == "both"
             else (args.mode,))
    rows = []
    summary = []
    for eta in args.eta:
        noise = NoiseModel(eta=eta, trials=args.trials, seed=args.seed,
                           paired_error=(args.error_draws == "paired"))
        for mode in modes:
            schedules = [DDSchedule(axis, args.pairs, args.tau, mode)
                         for axis in ("z", "y", "x")]
            res = fidelity_f2(dims, field, schedules, noise)
            summary.append({"eta": eta, "mode": mode,
                            "mean_trajectory_min": res.mean_trajectory_minimum})
            for t, mean, std in zip(res.times, res.mean, res.std):
                rows.append([_fmt(eta), mode, _fmt(t), _fmt(mean), _fmt(std)])
    _emit(args, _csv_text(["eta", "mode", "t", "f2_mean", "f2_std"], rows),
          summary=summary)
    return 0


def cmd_validate(args) -> int:
    from .validation import CRITERION_NAMES, DEFAULT_SEED, run_all

    parser = args.parser
    indices = None
    if args.only:
        wanted = set()
        for token in args.only:
            for part in token.split(","):
                part = part.strip().lower()
                if not part:
                    continue
                if part.isdigit():
                    if not 1 <= int(part) <= len(CRITERION_NAMES):
                        parser.error(f"--only index {part} out of range 1..10")
                    wanted.add(int(part))
                else:
                    matches = [i + 1 for i, name in enumerate(CRITERION_NAMES)
                               if part in name]
                    if not matches:
                        parser.error(f"--only {part!r} matches no criterion name")
                    wanted.update(matches)
        if not wanted:
            parser.error("--only selects no criterion")
        indices = sorted(wanted)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(only=indices, seed=seed)
    rows = [[str(r.index), r.name, "true" if r.passed else "false", r.detail]
            for r in results]
    all_passed = all(r.passed for r in results)
    _emit(args, _csv_text(["index", "name", "passed", "detail"], rows),
          resolved={"only": indices, "seed": seed}, all_passed=all_passed)
    return 0 if all_passed else 3


# ------------------------------------------------------------------ parser

def _add_common(sub, scheme_flag=True, durations=False):
    if scheme_flag:
        sub.add_argument("--scheme", choices=("parallel", "sequential"),
                         required=True, help="readout scheme")
    sub.add_argument("--probe", choices=("scs", "ghz"), required=True,
                     help="initial collective state")
    sub.add_argument("--N", type=_positive_int, default=10,
                     help="ensemble size (default 10)")
    sub.add_argument("--B", type=_triple, required=True,
                     help="field components bx,by,bz (pi literals allowed)")
    if durations:
        sub.add_argument("--T", type=_durations, default=(1.0, 1.0, 1.0),
                         help="per-axis interrogation times tx,ty,tz (default 1,1,1)")
    sub.add_argument("--output", "-o", default=None,
                     help="artifact path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecmag",
        description="Vector magnetometry with collective-spin probes: "
                    "simulate, analyze, and validate.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write a (T, jz) trace")
    _add_common(sim)
    sim.add_argument("--axis", choices=AXES, default=None,
                     help="readout axis (parallel scheme only)")
    sim.add_argument("--grid", type=_grid, required=True,
                     help="time grid start:stop:points")
    sim.add_argument("--evolution", choices=("analytic", "effective", "exact"),
                     default="analytic", help="trace source (default analytic)")
    sim.add_argument("--tau", type=_positive_angle, default=None,
                     help="pulse spacing for --evolution exact")
    sim.set_defaults(func=cmd_simulate, parser=sim)

    spect = subs.add_parser("spectrum",
                           help="FFT a sequential trace and recover the field")
    _add_common(spect, scheme_flag=False)
    spect.add_argument("--M", type=_positive_int, default=4096,
                      help="sample count, power of two (default 4096)")
    spect.add_argument("--t-max", dest="t_max", type=_positive_angle,
                      default=None,
                      help="trace length (default: quarter-Nyquist rule)")
    spect.add_argument("--method",
                      choices=("amplitude-rule", "pair-spread-rule"),
                      default="amplitude-rule", help="peak-inversion rule")
    spect.add_argument("--on-tie", dest="on_tie",
                      choices=("positive", "error"), default="positive",
                      help="sign policy when the fit ties (default positive)")
    spect.add_argument("--recovered-output", default=None,
                      help="also write the recovered field as standalone JSON")
    spect.set_defaults(func=cmd_spectrum, parser=spect)

    prec = subs.add_parser("precision",
                           help="per-axis precision report as JSON")
    _add_common(prec, durations=True)
    prec.add_argument("--repetitions", type=_positive_int, default=1,
                      help="independent repetitions in the Cramer-Rao bound")
    prec.set_defaults(func=cmd_precision, parser=prec)

    qfi = subs.add_parser("qfi", help="per-axis Fisher-information report")
    _add_common(qfi, durations=True)
    qfi.set_defaults(func=cmd_qfi, parser=qfi)

    scal = subs.add_parser("scaling",
                           help="minimized precision versus ensemble size")
    scal.add_argument("--scheme", choices=("parallel", "sequential"),
                      default="sequential", help="readout scheme")
    scal.add_argument("--probe", choices=("scs", "ghz", "both"),
                      default="both", help="probe sweep (default both)")
    scal.add_argument("--N", type=_sizes,
                      default=tuple(range(4, 41, 2)),
                      help="comma-separated ensemble sizes (default evens 4..40)")
    scal.add_argument("--duration", type=_positive_angle, default=1.0,
                      help="interrogation time per axis (default 1)")
    scal.add_argument("--output", "-o", default=None)
    scal.set_defaults(func=cmd_scaling, parser=scal)

    rob = subs.add_parser("robustness",
                          help="pulse-error Monte Carlo, F2 versus time")
    rob.add_argument("--N", type=_positive_int, default=10)
    rob.add_argument("--B", type=_triple, default=(4.0, 5.0, 6.0))
    rob.add_argument("--tau", type=_positive_angle, default=1e-3,
                     help="pulse spacing (default 1e-3)")
    rob.add_argument("--pairs", type=_positive_int, default=1000,
                     help="pulse pairs per axis block (default 1000)")
    rob.add_argument("--trials", type=_positive_int, default=20)
    rob.add_argument("--eta", type=_angle_list, default=(0.06 * math.pi,),
                     help="comma-separated error amplitudes, pi literals allowed")
    rob.add_argument("--mode", choices=("alternating", "identical", "both"),
                     default="alternating")
    rob.add_argument("--error-draws", dest="error_draws",
                     choices=("paired", "independent"), default="paired",
                     help="one draw per pulse pair, or per pulse")
    rob.add_argument("--seed", type=_seed, default=7)
    rob.add_argument("--output", "-o", default=None)
    rob.set_defaults(func=cmd_robustness, parser=rob)

    val = subs.add_parser("validate", help="run the acceptance suite")
    val.add_argument("--only", action="append", default=None,
                     help="criterion index or name fragment; repeatable")
    val.add_argument("--seed", type=_seed, default=None,
                     help="seed of the seeded criteria (default: validation.DEFAULT_SEED)")
    val.add_argument("--output", "-o", default=None)
    val.set_defaults(func=cmd_validate, parser=val)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, kind = FAILURES[type(exc)]
        sys.stderr.write(json.dumps({"error": kind, "reason": str(exc)},
                                    sort_keys=True) + "\n")
        return code
    except BrokenPipeError:
        # reader closed the pipe (e.g. | head); hand exit-time flushes a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
