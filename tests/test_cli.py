"""Command-line artifacts: flag grammar, exit codes, metadata, determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import vecmag
from vecmag import __version__, cli, estimation, schemes
from vecmag.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors surface as SystemExit(2)
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def split_artifact(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    return meta, lines[1:]


def parse_csv(lines):
    return list(csv.reader(io.StringIO("\n".join(lines))))


def test_simulate_cat_probe_reference_trace(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scheme", "parallel",
                           "--probe", "ghz", "--N", "10", "--B", "2,2,2",
                           "--axis", "z", "--grid", "0:6:64")
    assert code == 0
    meta, lines = split_artifact(out)
    assert meta["version"] == __version__
    assert meta["params"]["axis"] == "z"
    rows = parse_csv(lines)
    assert rows[0] == ["T", "jz"]
    for t_str, jz_str in rows[1:]:
        assert float(jz_str) == pytest.approx(5.0 * math.sin(20.0 * float(t_str)),
                                              abs=1e-12)


def test_simulate_scs_probe_slow_fringe(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scheme", "parallel",
                           "--probe", "scs", "--N", "10", "--B", "2,2,2",
                           "--axis", "z", "--grid", "0:6:64")
    assert code == 0
    _, lines = split_artifact(out)
    for t_str, jz_str in parse_csv(lines)[1:]:
        assert float(jz_str) == pytest.approx(5.0 * math.sin(2.0 * float(t_str)),
                                              abs=1e-12)


def test_simulate_effective_matches_analytic(capsys):
    traces = {}
    for evolution in ("analytic", "effective"):
        code, out, _ = run_cli(capsys, "simulate", "--scheme", "sequential",
                               "--probe", "scs", "--B", "1,0.6,0.2",
                               "--grid", "0:3:16", "--evolution", evolution)
        assert code == 0
        _, lines = split_artifact(out)
        traces[evolution] = [float(r[1]) for r in parse_csv(lines)[1:]]
    assert np.allclose(traces["analytic"], traces["effective"], atol=1e-10)


def test_simulate_exact_pulsed_tracks_analytic(capsys):
    # documented example: pulsed readout of the fast fringe stays within
    # 1e-3 of the closed form at tau = 1e-3
    traces = {}
    for evolution, extra in (("analytic", ()), ("exact", ("--tau", "1e-3"))):
        code, out, _ = run_cli(capsys, "simulate", "--scheme", "parallel",
                               "--probe", "ghz", "--N", "10", "--B", "2,2,2",
                               "--axis", "z", "--grid", "0:6:13",
                               "--evolution", evolution, *extra)
        assert code == 0
        _, lines = split_artifact(out)
        traces[evolution] = [float(r[1]) for r in parse_csv(lines)[1:]]
    assert np.allclose(traces["analytic"], traces["exact"], atol=1e-3)


def test_simulate_flag_conflicts(capsys):
    base = ("simulate", "--probe", "scs", "--B", "1,1,1", "--grid", "0:6:16")
    cases = (
        (*base, "--scheme", "sequential", "--axis", "x"),
        (*base, "--scheme", "parallel"),  # missing --axis
        (*base, "--scheme", "sequential", "--evolution", "exact"),  # no --tau
        (*base, "--scheme", "sequential", "--tau", "1e-3"),  # tau without exact
        ("simulate", "--scheme", "parallel", "--probe", "ghz", "--N", "9",
         "--B", "1,1,1", "--axis", "x", "--grid", "0:6:16"),
        # odd N leaves the twist readout inert: the effective trace is flat at
        # round-off (about 1e-15) and the exact one holds pulse residue alone
        ("simulate", "--scheme", "sequential", "--probe", "ghz", "--N", "9",
         "--B", "0.3,0.7,1.1", "--grid", "0:6:8", "--evolution", "effective"),
        ("simulate", "--scheme", "parallel", "--probe", "ghz", "--N", "9",
         "--B", "0.3,0.7,1.1", "--axis", "y", "--grid", "0:6:8",
         "--evolution", "exact", "--tau", "0.01"),
    )
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "--" in err


def test_flag_grammar_rejections(capsys):
    bad = (
        ("simulate", "--scheme", "parallel", "--probe", "scs", "--B", "1,1",
         "--axis", "x", "--grid", "0:6:16"),
        ("simulate", "--scheme", "parallel", "--probe", "scs", "--B", "1,1,1",
         "--axis", "x", "--grid", "6:0:16"),
        ("simulate", "--scheme", "parallel", "--probe", "scs", "--B", "1,1,1",
         "--axis", "x", "--grid", "0:6"),
        ("spectrum", "--probe", "scs", "--B", "10,6,2", "--M", "1000"),
        ("robustness", "--eta", "-0.1"),
        # out-of-range numbers are refused by the flag types, before any run
        ("robustness", "--eta", "nan"),
        ("qfi", "--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
         "--T=1,-1,1"),
        ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
         "--grid", "0:1:4", "--evolution", "exact", "--tau", "-0.1"),
        ("robustness", "--tau", "0"),
        ("spectrum", "--probe", "scs", "--B", "10,6,2", "--t-max", "0"),
        ("precision", "--scheme", "sequential", "--probe", "scs", "--B", "nan,1,1"),
        ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "inf,1,1",
         "--grid", "0:1:4"),
        ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
         "--grid", "0:inf:4"),
        ("scaling", "--duration", "0"),
        ("scaling", "--duration", "-1"),
        # simulated traces start at T >= 0; only analytic ones run backwards
        ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
         "--grid=-1:1:4", "--evolution", "effective"),
        ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
         "--grid=-1:1:4", "--evolution", "exact", "--tau", "0.01"),
        # a count that no float holds
        ("precision", "--scheme", "parallel", "--probe", "scs", "--B", "1,1,1",
         "--repetitions", "1" + "0" * 400),
    )
    for argv in bad:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "Traceback" not in err, argv


def test_spectrum_recovers_field_with_default_t_max(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--probe", "scs", "--N", "10",
                           "--B", "10,6,2", "--M", "1024")
    assert code == 0
    meta, lines = split_artifact(out)
    t_max = meta["params"]["t_max"]
    assert t_max == pytest.approx(math.pi * 1024 / (4.0 * 18.0))
    rec = meta["recovered"]
    tol = 2.0 * (2.0 * math.pi / t_max)
    assert rec["bx"] == pytest.approx(10.0, abs=tol)
    assert rec["by"] == pytest.approx(6.0, abs=tol)
    assert rec["bz"] == pytest.approx(2.0, abs=tol)
    assert len(meta["peaks"]) == 6
    rows = parse_csv(lines)
    assert rows[0] == ["omega", "magnitude"]
    assert len(rows) == 1 + 1024 // 2 + 1


def test_spectrum_cat_probe_and_recovered_file(capsys, tmp_path):
    out_path = tmp_path / "spectrum.csv"
    rec_path = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "spectrum", "--probe", "ghz", "--N", "10",
                         "--B", "10,6,2", "--M", "4096", "--t-max", "12.8",
                         "--output", str(out_path),
                         "--recovered-output", str(rec_path))
    assert code == 0
    rec = json.loads(rec_path.read_text())
    assert rec["scale"] == 10.0
    assert rec["bx"] == pytest.approx(10.0, abs=0.1)
    meta, _ = split_artifact(out_path.read_text())
    assert meta["recovered"] == rec


def test_spectrum_error_exits(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--probe", "scs",
                           "--B", "10,6,6", "--t-max", "12.8")
    assert code == 4
    assert json.loads(err)["error"] == "under-resolved"
    code, _, err = run_cli(capsys, "spectrum", "--probe", "ghz",
                           "--B", "10,6,2", "--t-max", "12.8",
                           "--on-tie", "error")
    assert code == 4
    assert json.loads(err)["error"] == "ambiguous-signs"


def test_spectrum_rejects_odd_n_cat_probe(capsys):
    # the sign fit needs the cat-probe closed forms, which exist for even N only
    code, out, err = run_cli(capsys, "spectrum", "--probe", "ghz", "--N", "9",
                             "--B", "10,6,2", "--M", "64")
    assert code == 2
    assert out == ""
    assert "--N" in err


def test_precision_report_artifact(capsys):
    code, out, _ = run_cli(capsys, "precision", "--scheme", "sequential",
                           "--probe", "scs", "--B", "1,0.8,1.2")
    assert code == 0
    meta, lines = split_artifact(out)
    doc = json.loads("\n".join(lines))
    assert [entry["axis"] for entry in doc["axes"]] == ["x", "y", "z"]
    for entry in doc["axes"]:
        if entry["delta_b_analytic"] is not None:
            assert entry["delta_b_numeric"] == pytest.approx(
                entry["delta_b_analytic"], rel=1e-6)
            assert entry["delta_b_numeric"] >= entry["qcrb"] - 1e-9


@pytest.mark.parametrize("scheme,probe,field", [
    ("parallel", "scs", "1.5708,0.3,0.2"),
    ("parallel", "ghz", "0.15708,0.3,0.2"),
    ("sequential", "scs", "0,1.5708963267948966,0"),
    ("sequential", "ghz", "0,0.15708963267948967,0"),
])
def test_precision_near_an_extremum_or_a_blind_spot(capsys, scheme, probe, field):
    # The first three put |S| close to 1, where the raw <Jz^2> - <Jz>^2 and
    # <psi|Jz|d psi> cancel; the last puts the z QFI close to 0, where
    # |d psi|^2 - |<psi|d psi>|^2 cancels.  Each pushed the numeric precision
    # below the quantum bound.
    code, out, _ = run_cli(capsys, "precision", "--scheme", scheme,
                           "--probe", probe, "--N", "10", "--B", field)
    assert code == 0
    _, lines = split_artifact(out)
    for entry in json.loads("\n".join(lines))["axes"]:
        if entry["delta_b_numeric"] is None:
            continue
        assert entry["delta_b_numeric"] >= entry["qcrb"] - 1e-9
        if scheme == "parallel":
            assert entry["delta_b_numeric"] == pytest.approx(
                entry["delta_b_analytic"], rel=1e-9)


def test_huge_duration_reports_null_instead_of_overflowing(capsys):
    # (gamma T)^2 overflows at T = 1e300: the x figures that depend on it
    # are written as null, and the y and z figures are unaffected
    flags = ("--scheme", "sequential", "--probe", "scs", "--B", "1,1,1",
             "--T", "1e300,1,1")
    code, out, _ = run_cli(capsys, "qfi", *flags)
    assert code == 0
    doc = json.loads("\n".join(split_artifact(out)[1]))
    assert doc["x"]["main"] is None and doc["x"]["appendix"] is None
    for axis in ("y", "z"):
        assert doc[axis]["numeric"] == pytest.approx(doc[axis]["main"], rel=1e-9)
    code, out, _ = run_cli(capsys, "precision", *flags)
    assert code == 0
    axes = json.loads("\n".join(split_artifact(out)[1]))["axes"]
    assert axes[0]["qfi_analytic_main"] is None
    assert [a["blind_spot"] for a in axes] == [False, False, False]
    for entry in axes[1:]:
        assert entry["delta_b_numeric"] >= entry["qcrb"] - 1e-9
    # F ~ 1e601 is no float, but its root is: qcrb = 1/(sqrt(N) T) and the
    # bound is checked on x as well
    assert axes[0]["qfi_numeric"] is None
    qcrb = 1.0 / (math.sqrt(10) * 1e300)
    assert axes[0]["qcrb"] == pytest.approx(qcrb, rel=1e-12, abs=0.0)
    assert axes[0]["delta_b_numeric"] >= axes[0]["qcrb"]


def test_only_a_bound_violation_is_reported_as_one(capsys, monkeypatch):
    def divide(*_):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(schemes, "analytic_delta_b", divide)
    with pytest.raises(ZeroDivisionError):
        main(["precision", "--scheme", "sequential", "--probe", "scs",
              "--B", "1,0.8,1.2"])
    assert capsys.readouterr().err == ""


FALSE_VIOLATIONS = (
    # the z axis sits next to a QFI blind spot, where dB ~ 5e4
    ("--scheme", "sequential", "--probe", "ghz", "--N", "20",
     "--B", "0,0.07853986633974483,0"),
    # closer still (N phi_y = pi/2 - 1e-9): dB ~ 1e8 misses even a relative
    # 1e-9, and only skipping blind-spot axes passes it
    ("--scheme", "sequential", "--probe", "ghz", "--N", "10",
     "--B", "0,0.15707963257948965,0"),
    # dB ~ 1e12 on x: an absolute 1e-9 asked for 1e-21 relative agreement
    ("--scheme", "parallel", "--probe", "ghz", "--N", "10",
     "--B", "1.1,0.4,0.5", "--T", "1e-13,1,1"),
)


@pytest.mark.parametrize("command", ["precision", "qfi"])
@pytest.mark.parametrize("flags", FALSE_VIOLATIONS)
def test_bound_check_is_relative_and_skips_blind_spots(capsys, command, flags):
    code, out, err = run_cli(capsys, command, *flags)
    assert code == 0, err
    assert out.startswith("# ") and err == ""


@pytest.mark.parametrize("command", ["precision", "qfi"])
def test_a_precision_below_the_bound_exits_3(capsys, monkeypatch, command):
    delta_b = schemes._delta_b
    # Half the precision beats the bound on every sighted axis.  At T_x = 1e300,
    # where F_x overflows, x reads 2.8 times its bound, and a quarter beats it
    # there before any other axis is checked.
    for flags, divisor in ((("--B", "1,0.8,1.2"), 2.0),
                           (("--B", "1,1,1", "--T", "1e300,1,1"), 4.0)):
        monkeypatch.setattr(schemes, "_delta_b", lambda *args: delta_b(*args) / divisor)
        code, out, err = run_cli(capsys, command, "--scheme", "sequential",
                                 "--probe", "scs", *flags)
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "bound-violation"
        assert "on axis x:" in error["reason"], flags


@pytest.mark.parametrize("flags", [
    ("--scheme", "sequential", "--probe", "ghz", "--B", "1,0.8,1.2"),
    ("--scheme", "parallel", "--probe", "scs", "--N", "7", "--B", "0.3,1.1,0.6",
     "--T", "0.5,1,2"),
    ("--scheme", "sequential", "--probe", "scs", "--B", "1,1,1", "--T", "1e300,1,1"),
])
def test_qfi_and_precision_share_their_figures(capsys, flags):
    code, out, _ = run_cli(capsys, "qfi", *flags)
    assert code == 0
    qfi = json.loads("\n".join(split_artifact(out)[1]))
    code, out, _ = run_cli(capsys, "precision", *flags)
    assert code == 0
    for entry in json.loads("\n".join(split_artifact(out)[1]))["axes"]:
        row = qfi[entry["axis"]]
        assert row == {"main": entry["qfi_analytic_main"],
                       "appendix": entry["qfi_analytic_appendix"],
                       "numeric": entry["qfi_numeric"],
                       "qcrb_single_shot": entry["qcrb"]}


@pytest.mark.parametrize("argv", [
    ("precision", "--scheme", "sequential", "--probe", "scs", "--B", "1e10,1,1",
     "--T", "1e300,1,1"),
    ("qfi", "--scheme", "sequential", "--probe", "ghz", "--B", "1e10,1e10,1e10",
     "--T", "1e300,1e300,1e300"),
    ("precision", "--scheme", "parallel", "--probe", "ghz", "--B", "1e10,1,1",
     "--T", "1e300,1,1"),
    ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1e10,1,1",
     "--grid", "0:1e300:4"),
    ("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1e10,1,1",
     "--grid=-1e300:0:4"),
    ("spectrum", "--probe", "scs", "--B", "10,6,2", "--t-max", "1e308"),
    # finite B T, but the cat phases N B T overflow
    ("qfi", "--scheme", "parallel", "--probe", "ghz", "--B", "1e300,1,1",
     "--T", "1e8,1,1"),
    # the last F2 time is 3 * 2 * pairs * tau
    ("robustness", "--B", "1e300,1,1", "--tau", "1e10", "--pairs", "2", "--trials", "2"),
    # finite phases, but exact evolution's pulse-pair count T / (2 tau) overflows
    ("simulate", "--scheme", "sequential", "--probe", "scs", "--N", "4", "--B", "1,1,1",
     "--grid", "0:1:4", "--evolution", "exact", "--tau", "1e-320"),
    # a finite duration whose phase range pi / duration overflows
    ("scaling", "--duration", "1e-310"),
])
def test_overflowing_phases_are_refused_by_the_parser(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "overflows" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_repetitions_scale_the_bound(capsys):
    flags = ("precision", "--scheme", "parallel", "--probe", "scs", "--B", "1,1,1")
    qcrb = {}
    for repetitions in ("1", "4"):
        code, out, _ = run_cli(capsys, *flags, "--repetitions", repetitions)
        assert code == 0
        doc = json.loads("\n".join(split_artifact(out)[1]))
        assert doc["eta"] == int(repetitions)
        qcrb[repetitions] = [entry["qcrb"] for entry in doc["axes"]]
    assert qcrb["4"] == [q / 2.0 for q in qcrb["1"]]


def test_qfi_report_names_both_variants(capsys):
    code, out, _ = run_cli(capsys, "qfi", "--scheme", "sequential",
                           "--probe", "ghz", "--B", "1,0.8,1.2")
    assert code == 0
    _, lines = split_artifact(out)
    doc = json.loads("\n".join(lines))
    for axis in ("y", "z"):
        assert doc[axis]["numeric"] == pytest.approx(doc[axis]["appendix"],
                                                     rel=1e-6)
    assert doc["y"]["main"] != pytest.approx(doc["y"]["appendix"], rel=1e-3)
    code, _, err = run_cli(capsys, "qfi", "--scheme", "sequential",
                           "--probe", "ghz", "--N", "9", "--B", "1,1,1")
    assert code == 2


def test_scaling_sweep_with_odd_size_warning(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--N", "4,5,6,8",
                           "--probe", "both")
    assert code == 0
    meta, lines = split_artifact(out)
    rows = parse_csv(lines)
    assert rows[0] == ["N", "probe", "db_x", "db_y", "db_z", "note"]
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    warn = by_key[("5", "ghz")]
    assert warn[2] == warn[3] == warn[4] == "" and warn[5].startswith("skipped")
    assert float(by_key[("5", "scs")][2]) == pytest.approx(1 / math.sqrt(5), rel=1e-3)
    assert float(by_key[("4", "ghz")][2]) == pytest.approx(0.25, abs=1e-6)
    assert meta["fits"]["scs"]["x"]["slope"] == pytest.approx(-0.5, abs=0.05)
    assert meta["fits"]["ghz"]["z"]["slope"] == pytest.approx(-1.0, abs=0.05)


def test_scaling_at_off_grid_duration(capsys):
    # at T = 0.75 the polish can reach points where 1 - S^2 rounds to zero;
    # those must not be reported as a zero precision
    code, out, _ = run_cli(capsys, "scaling", "--N", "4,8,12,16",
                           "--duration", "0.75")
    assert code == 0
    _, lines = split_artifact(out)
    for n, probe, *values, _ in parse_csv(lines)[1:]:
        floor = 1.0 / ((math.sqrt(int(n)) if probe == "scs" else int(n)) * 0.75)
        assert all(float(v) >= floor * (1 - 1e-6) for v in values)


def test_scaling_skips_only_missing_closed_forms(monkeypatch):
    def fail(*_, **__):
        raise ValueError("not a closed-form gap")

    monkeypatch.setattr(estimation, "minimized_delta_b", fail)
    with pytest.raises(ValueError, match="not a closed-form gap"):
        main(["scaling", "--N", "4,6,8", "--probe", "scs"])


def test_scaling_refuses_repeated_sizes(capsys):
    # one distinct N fits any slope with r^2 = 1; the sweep must not run
    code, out, err = run_cli(capsys, "scaling", "--N", "4,4,4", "--probe", "scs")
    assert code == 2 and out == ""
    assert "distinct" in err and "Traceback" not in err


def test_robustness_zero_error_column_is_exactly_one(capsys):
    code, out, _ = run_cli(capsys, "robustness", "--eta", "0", "--trials", "2",
                           "--pairs", "100")
    assert code == 0
    meta, lines = split_artifact(out)
    rows = parse_csv(lines)
    assert rows[0] == ["eta", "mode", "t", "f2_mean", "f2_std"]
    assert {r[3] for r in rows[1:]} == {"1.0"}
    assert {r[4] for r in rows[1:]} == {"0.0"}
    assert meta["summary"][0]["mean_trajectory_min"] == 1.0


def test_robustness_modes_and_eta_grammar(capsys):
    code, out, _ = run_cli(capsys, "robustness", "--eta", "0.06pi",
                           "--mode", "both", "--trials", "2", "--pairs", "50")
    assert code == 0
    meta, lines = split_artifact(out)
    assert meta["params"]["eta"] == [pytest.approx(0.06 * math.pi)]
    modes = {r[1] for r in parse_csv(lines)[1:]}
    assert modes == {"alternating", "identical"}
    cells = {(s["mode"]) for s in meta["summary"]}
    assert cells == {"alternating", "identical"}


def test_validate_subset_and_filtering(capsys):
    code, out, _ = run_cli(capsys, "validate", "--only", "1,10")
    assert code == 0
    meta, lines = split_artifact(out)
    rows = parse_csv(lines)
    assert rows[0] == ["index", "name", "passed", "detail"]
    assert [r[0] for r in rows[1:]] == ["1", "10"]
    assert {r[2] for r in rows[1:]} == {"true"}
    assert meta["all_passed"] is True
    code, out, _ = run_cli(capsys, "validate", "--only", "algebra")
    assert code == 0
    _, lines = split_artifact(out)
    assert parse_csv(lines)[1][0] == "10"
    code, _, _ = run_cli(capsys, "validate", "--only", "bogus")
    assert code == 2


@pytest.mark.parametrize("only", [",", " ", ""])
def test_validate_refuses_an_empty_selection(capsys, only):
    code, out, err = run_cli(capsys, "validate", "--only", only)
    assert code == 2 and out == ""
    assert "selects no criterion" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--seed", "-1", "--only", "1"),
    ("robustness", "--seed", "-1", "--pairs", "10", "--trials", "2"),
])
def test_negative_seeds_are_refused_by_the_parser(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--seed" in err and "Traceback" not in err


def test_validate_echoes_its_default_seed(capsys):
    from vecmag.validation import DEFAULT_SEED

    code, out, _ = run_cli(capsys, "validate", "--only", "10")
    assert code == 0
    assert split_artifact(out)[0]["params"]["seed"] == DEFAULT_SEED


def test_validate_reports_are_byte_identical(capsys):
    first = run_cli(capsys, "validate", "--only", "2", "--seed", "7")
    second = run_cli(capsys, "validate", "--only", "2", "--seed", "7")
    assert first == second
    assert first[0] == 0


def test_csv_floats_round_trip_losslessly(capsys):
    _, out, _ = run_cli(capsys, "simulate", "--scheme", "parallel",
                        "--probe", "scs", "--B", "0.3,0.7,1.1", "--axis", "y",
                        "--grid", "0:5:33")
    _, lines = split_artifact(out)
    for row in parse_csv(lines)[1:]:
        for cell in row:
            assert repr(float(cell)) == cell


def child_env(**extra):
    """Environment of a child interpreter that imports the vecmag under test,
    not an installed copy."""
    return dict(os.environ, PYTHONPATH=str(Path(vecmag.__file__).resolve().parents[1]),
                **extra)


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "vecmag.cli", "validate",
                          "--only", "2"], capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("# ")


ECHO_RUNS = {
    "simulate": ("--scheme", "parallel", "--probe", "scs", "--B", "1,1,1",
                 "--axis", "x", "--grid", "0:1:4"),
    "spectrum": ("--probe", "scs", "--B", "10,6,2", "--M", "1024"),
    "precision": ("--scheme", "sequential", "--probe", "scs", "--B", "1,0.8,1.2"),
    "qfi": ("--scheme", "parallel", "--probe", "ghz", "--B", "1,0.8,1.2"),
    "scaling": ("--scheme", "parallel", "--N", "4,6,8"),
    "robustness": ("--pairs", "10", "--trials", "2"),
    "validate": ("--only", "10"),
}


def test_metadata_echoes_every_flag(capsys):
    parser = cli._build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subs) == set(ECHO_RUNS)
    for command, argv in ECHO_RUNS.items():
        dests = {a.dest for a in subs[command]._actions if a.dest != "help"}
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0, command
        meta, _ = split_artifact(out)
        assert meta["command"] == command
        assert set(meta["params"]) == dests - set(cli.NOT_ECHOED), command


COMMAND_RUNS_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    from vecmag.cli import main

    def run(*argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        return [argv[0], code, scipy]

    runs = [
        run("simulate", "--scheme", "parallel", "--probe", "ghz", "--B", "2,2,2",
            "--axis", "z", "--grid", "0:6:64"),
        run("simulate", "--scheme", "sequential", "--probe", "scs", "--N", "5",
            "--B", "1,0.6,0.2", "--grid", "0:1:4", "--evolution", "exact",
            "--tau", "1e-2"),
        run("spectrum", "--probe", "scs", "--B", "10,6,2", "--M", "1024"),
        run("spectrum", "--probe", "scs", "--B", "10,6,6", "--t-max", "12.8"),
        run("precision", "--scheme", "sequential", "--probe", "scs",
            "--B", "1,0.8,1.2"),
        run("qfi", "--scheme", "sequential", "--probe", "ghz", "--B", "1,0.8,1.2"),
        run("robustness", "--pairs", "10", "--trials", "2", "--mode", "both"),
        run("scaling", "--N", "4,6,8"),
        run("validate", "--only", "9"),
        run("validate", "--only", "10"),
    ]
    print(json.dumps(runs))
""")


def test_no_command_imports_scipy():
    # A fresh interpreter: this process may already hold scipy.
    out = subprocess.run([sys.executable, "-c", COMMAND_RUNS_SCRIPT],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout.splitlines()[-1])
    assert [code for _, code, _ in runs] == [0, 0, 0, 4, 0, 0, 0, 0, 0, 0]
    assert [(command, scipy) for command, _, scipy in runs if scipy] == []


LOADED_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    from vecmag.cli import main

    code = 0
    if len(sys.argv) > 1:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[1:])
    print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("vecmag."))]))
""")

RUN_MODULES = ("schemes", "estimation", "pulses", "validation")

# Per command: the modules it must not load.  Importing the CLI loads none.
LOADED_RUNS = (
    ((), RUN_MODULES),
    (("precision", "--scheme", "sequential", "--probe", "scs", "--B", "1,0.8,1.2"),
     ("estimation", "pulses", "validation")),
    (("qfi", "--scheme", "parallel", "--probe", "ghz", "--B", "1,0.8,1.2"),
     ("estimation", "pulses", "validation")),
    (("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,0.6,0.2",
      "--grid", "0:1:4"), ("estimation", "pulses", "validation")),
    (("simulate", "--scheme", "sequential", "--probe", "scs", "--B", "1,0.6,0.2",
      "--grid", "0:1:4", "--evolution", "exact", "--tau", "0.01"),
     ("estimation", "pulses", "validation")),
    (("robustness", "--pairs", "10", "--trials", "2"),
     ("schemes", "estimation", "validation")),
    (("spectrum", "--probe", "scs", "--B", "10,6,2", "--M", "1024"),
     ("pulses", "validation")),
    (("scaling", "--N", "4,6,8", "--probe", "scs"), ("pulses", "validation")),
)


def test_each_command_loads_only_what_it_runs():
    # One fresh interpreter per command: this process has loaded everything.
    for argv, absent in LOADED_RUNS:
        out = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *argv],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, (argv, out.stderr)
        code, loaded = json.loads(out.stdout.splitlines()[-1])
        assert code == 0, argv
        assert not {f"vecmag.{name}" for name in absent} & set(loaded), (argv, loaded)
        assert argv or loaded == ["vecmag.cli", "vecmag.spin"], loaded


def test_robustness_artifact_independent_of_blas_threads():
    # the reference and the trials run as columns of one array; no column
    # may depend on the BLAS thread count
    argv = [sys.executable, "-m", "vecmag.cli", "robustness", "--mode", "both",
            "--trials", "3", "--pairs", "50"]
    outputs = []
    for threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run(argv, capture_output=True, env=env)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
