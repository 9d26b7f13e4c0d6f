"""Interferometer chains: closed forms vs simulation, precision, QFI."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import dense_chain
from vecmag import schemes, spin
from vecmag.cli import main, to_json
from vecmag.pulses import DDSchedule, evolve_exact
from vecmag.spin import AXES, EnsembleDims, FieldVector
from vecmag.schemes import (
    PROBES,
    SCHEMES,
    AnalyticBranchError,
    SchemeConfig,
    analytic_delta_b,
    analytic_jz,
    analytic_jz2,
    closed_form_delta_b,
    closed_form_jz,
    closed_form_jz2,
    final_state,
    jz_moments,
    precision_report,
    qfi_analytic,
    signal_terms,
)

DIMS = EnsembleDims(10)
FIELD = FieldVector(0.31, 0.47, 0.23)
UNIT_T = (1.0, 1.0, 1.0)


def config(scheme, probe, dims=DIMS, field=FIELD, durations=UNIT_T, **kw):
    return SchemeConfig(scheme, probe, dims, field, durations, **kw)


def central_difference(cfg, axis):
    """(d psi, d<Jz>, QFI), all for B_axis, from a fourth-order central difference.

    The test oracle for the exact derivatives: final_state at B_axis shifted
    by -2h, -h, h, 2h, with the step h a 1e-3 phase at gamma N T.
    """
    which = axis if cfg.scheme == "parallel" else None
    h = 1e-3 / (cfg.field.gamma * cfg.dims.N * max(1.0, cfg.duration(axis)))
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    shifted = []
    for k in (-2, -1, 1, 2):
        comps = dict(zip(AXES, cfg.field.components))
        comps[axis] += k * h
        field = FieldVector(comps["x"], comps["y"], comps["z"], gamma=cfg.field.gamma)
        shifted.append(final_state(dataclasses.replace(cfg, field=field), which))
    dpsi = sum(w * s.amplitudes for w, s in zip(weights, shifted))
    slope = sum(w * jz_moments(s)[0] for w, s in zip(weights, shifted))
    psi = final_state(cfg, which).amplitudes
    qfi = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    return dpsi, float(slope), float(qfi)


def test_config_validation():
    with pytest.raises(ValueError):
        config("serial", "scs")
    with pytest.raises(ValueError):
        config("parallel", "cat")
    with pytest.raises(ValueError):
        config("parallel", "scs", durations=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        config("parallel", "scs", evolution="exact")
    # non-finite values are refused with the field's name; large finite ones build
    for tau in (math.nan, math.inf, 0.0, None):
        with pytest.raises(ValueError, match="tau"):
            config("sequential", "scs", evolution="exact", tau=tau)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="durations"):
            config("parallel", "scs", durations=(1.0, bad, 1.0))
        with pytest.raises(ValueError, match="durations"):
            schemes.simulated_jz(config("sequential", "scs"), [0.5, bad])
    assert config("sequential", "scs", durations=(1e300, 1.0, 1.0)).durations[0] == 1e300
    assert config("sequential", "scs", evolution="exact", tau=1e300).tau == 1e300


def test_a_pulse_pair_count_that_overflows_is_refused_naming_tau():
    # T / (2 tau) pairs: 1 / 2e-320 is inf, at any duration of the run
    with pytest.raises(ValueError, match="tau"):
        config("sequential", "scs", evolution="exact", tau=1e-320)
    cfg = config("sequential", "scs", durations=(0.0, 0.0, 0.0), evolution="exact", tau=1e-320)
    with pytest.raises(ValueError, match="tau"):
        schemes.simulated_jz(cfg, [0.0, 1.0])


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("tau", [1e-30, 1e-100, 1e-300])
def test_exact_evolution_keeps_the_field_at_tiny_tau(probe, tau):
    # exact pi pulses are exact half turns: a cos(pi/2) of 6e-17 in every pulse
    # would swamp the free step's O(tau gamma B) entries
    field, times = FieldVector(1.0, 1.0, 1.0), np.linspace(0.0, 1.0, 4)
    cfg = config("sequential", probe, dims=EnsembleDims(4), field=field, evolution="exact", tau=tau)
    want = closed_form_jz("sequential", probe, 4, times, times, times)
    assert np.max(np.abs(schemes.simulated_jz(cfg, times) - want)) <= 1e-12 * 2.0


def test_phases_are_coupling_times_duration():
    cfg = config("sequential", "scs", durations=(1.0, 2.0, 0.5))
    assert cfg.phases == pytest.approx((0.31, 0.94, 0.115))
    assert cfg.phase("y") == pytest.approx(0.94)


def test_parallel_final_state_needs_a_device_axis():
    for probe in PROBES:
        for literal in (False, True):
            for axis in (None, "w"):
                with pytest.raises(ValueError, match="device axis"):
                    final_state(config("parallel", probe), axis, literal)
            # the sequential device ignores the axis
            seq = config("sequential", probe)
            assert np.array_equal(final_state(seq, "w", literal).amplitudes,
                                  final_state(seq, None, literal).amplitudes)


def test_chain_table_structure():
    # A free step finds its duration by its axis label, so a wrong label
    # would silently read another axis's T.
    assert set(schemes._CHAINS) == {(scheme, probe, literal) for scheme in SCHEMES
                                    for probe in PROBES for literal in (False, True)
                                    if probe == "ghz" or not literal}
    for (scheme, probe, literal), chains in schemes._CHAINS.items():
        if scheme == "parallel":
            assert set(chains) == set(AXES)
            frees = {device: [device] for device in AXES}
        else:
            chains, frees = {None: chains}, {None: list(AXES)}
        for device, chain in chains.items():
            free = sorted(axis for kind, axis, *_ in chain if kind == "free")
            assert free == frees[device], (scheme, probe, literal, device)
            for step in chain:
                if step[0] == "free":
                    assert len(step) == 2
                else:
                    kind, axis, angle = step
                    assert kind in ("rot", "twist") and axis in AXES
                    assert angle in (schemes.HALF_PI, -schemes.HALF_PI)


def test_parallel_closed_forms_match_simulator():
    rng = np.random.default_rng(3)
    for probe in ("scs", "ghz"):
        for _ in range(20):
            field = FieldVector(*rng.uniform(0.0, math.pi / 2, 3))
            cfg = config("parallel", probe, field=field)
            for axis in "xyz":
                jz, jz2 = jz_moments(final_state(cfg, axis))
                assert jz == pytest.approx(analytic_jz(cfg, axis), abs=1e-10)
                assert jz2 == pytest.approx(analytic_jz2(cfg, axis), abs=1e-10)


def test_sequential_closed_forms_match_simulator():
    rng = np.random.default_rng(4)
    for probe in ("scs", "ghz"):
        for _ in range(20):
            field = FieldVector(*rng.uniform(0.0, math.pi / 2, 3))
            durations = tuple(rng.uniform(0.3, 1.6, 3))
            cfg = config("sequential", probe, field=field, durations=durations)
            jz, jz2 = jz_moments(final_state(cfg))
            assert jz == pytest.approx(analytic_jz(cfg), abs=1e-10)
            assert jz2 == pytest.approx(analytic_jz2(cfg), abs=1e-10)


def test_parallel_ghz_sign_convention_across_even_n():
    # The repaired x chain flips sign with the parity of J = N/2.
    for n in (8, 10, 12):
        cfg = config("parallel", "ghz", dims=EnsembleDims(n),
                     field=FieldVector(0.21, 0.37, 0.13))
        for axis in "xyz":
            jz, _ = jz_moments(final_state(cfg, axis))
            assert jz == pytest.approx(analytic_jz(cfg, axis), abs=1e-10)
    cfg8 = config("parallel", "ghz", dims=EnsembleDims(8),
                  field=FieldVector(0.21, 0.37, 0.13))
    assert analytic_jz(cfg8, "x") == pytest.approx(-4.0 * math.sin(8 * 0.21))
    cfg10 = config("parallel", "ghz", field=FieldVector(0.21, 0.37, 0.13))
    assert analytic_jz(cfg10, "x") == pytest.approx(5.0 * math.sin(10 * 0.21))


def test_odd_n_ghz_analytic_refuses_and_simulator_reads_zero():
    cfg = config("parallel", "ghz", dims=EnsembleDims(9),
                 field=FieldVector(0.21, 0.37, 0.13))
    for axis in "xyz":
        with pytest.raises(AnalyticBranchError):
            analytic_jz(cfg, axis)
        jz, _ = jz_moments(final_state(cfg, axis))
        assert abs(jz) < 1e-10
    seq = config("sequential", "ghz", dims=EnsembleDims(9))
    with pytest.raises(AnalyticBranchError):
        analytic_jz(seq)
    final_state(seq)  # simulation itself stays available


def test_literal_parallel_ghz_transverse_chains_read_nothing():
    cfg = config("parallel", "ghz", field=FieldVector(0.21, 0.37, 0.13))
    for axis in "xy":
        jz, _ = jz_moments(final_state(cfg, axis, literal=True))
        assert abs(jz) < 1e-10
    lit = final_state(cfg, "z", literal=True)
    rep = final_state(cfg, "z")
    overlap = np.vdot(lit.amplitudes, rep.amplitudes)
    assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_sequential_ghz_literal_skips_basis_preparation():
    cfg = config("sequential", "ghz", field=FieldVector(0.21, 0.37, 0.13))
    jz_lit, _ = jz_moments(final_state(cfg, literal=True))
    jz_rep, _ = jz_moments(final_state(cfg))
    assert jz_rep == pytest.approx(analytic_jz(cfg), abs=1e-10)
    assert abs(jz_lit - jz_rep) > 1.0


def test_closed_forms_vectorize():
    phases = np.linspace(0.0, 1.0, 7)
    jz = closed_form_jz("sequential", "scs", 10, phases, phases, phases)
    jz2 = closed_form_jz2("sequential", "scs", 10, phases, phases, phases)
    assert jz.shape == (7,) and jz2.shape == (7,)
    jz_par = closed_form_jz("parallel", "ghz", 10, phases, 0.0, 0.0, axis="x")
    assert jz_par == pytest.approx(5.0 * np.sin(10 * phases))
    with pytest.raises(ValueError):
        closed_form_jz("parallel", "scs", 10, phases, 0.0, 0.0)


def test_exact_pulsed_chain_converges_to_closed_forms():
    dims = EnsembleDims(6)
    fv = FieldVector(0.3, 0.4, 0.5)
    for scheme, probe, axis in (("sequential", "scs", None),
                                ("sequential", "ghz", None),
                                ("parallel", "scs", "y"),
                                ("parallel", "ghz", "y")):
        exact = SchemeConfig(scheme, probe, dims, fv, (0.5, 0.5, 0.5),
                             "exact", tau=2e-4)
        ref = SchemeConfig(scheme, probe, dims, fv, (0.5, 0.5, 0.5))
        jz, _ = jz_moments(final_state(exact, axis))
        assert jz == pytest.approx(analytic_jz(ref, axis), abs=1e-4)


def test_zero_duration_segments_are_identity():
    cfg = config("parallel", "scs", durations=(0.0, 0.0, 0.0))
    jz, jz2 = jz_moments(final_state(cfg, "x"))
    assert jz == pytest.approx(0.0, abs=1e-12)
    assert jz2 == pytest.approx(analytic_jz2(cfg, "x"), abs=1e-12)


def test_parallel_precisions_are_flat_bounds():
    for field in (FIELD, FieldVector(1.1, 0.2, 0.8)):
        scs = config("parallel", "scs", field=field, durations=(1.0, 0.8, 1.2))
        ghz = config("parallel", "ghz", field=field, durations=(1.0, 0.8, 1.2))
        scs_report, ghz_report = precision_report(scs), precision_report(ghz)
        for axis, t in zip("xyz", (1.0, 0.8, 1.2)):
            assert analytic_delta_b(scs, axis) == pytest.approx(1 / (math.sqrt(10) * t))
            assert analytic_delta_b(ghz, axis) == pytest.approx(1 / (10 * t))
            assert scs_report.axis(axis).delta_b_numeric == pytest.approx(
                1 / (math.sqrt(10) * t), rel=1e-6)
            assert ghz_report.axis(axis).delta_b_numeric == pytest.approx(
                1 / (10 * t), rel=1e-6)


def test_sequential_precision_analytic_matches_numeric():
    for gamma in (1.0, 2.5):
        rng = np.random.default_rng(5)
        for probe in ("scs", "ghz"):
            for _ in range(5):
                field = FieldVector(*rng.uniform(0.1, 1.2, 3), gamma=gamma)
                cfg = config("sequential", probe, field=field,
                             durations=tuple(rng.uniform(0.4, 1.3, 3)))
                report = precision_report(cfg)
                for axis in "xyz":
                    ana = analytic_delta_b(cfg, axis)
                    num = report.axis(axis).delta_b_numeric
                    if math.isinf(ana):
                        assert math.isinf(num) or num > 1e6
                    else:
                        assert num == pytest.approx(ana, rel=1e-6)


def test_qfi_numeric_matches_analytic_and_prefers_appendix():
    for gamma in (1.0, 2.5):
        field = FieldVector(*FIELD.components, gamma=gamma)
        cfg = config("sequential", "ghz", field=field, durations=(1.0, 0.8, 1.2))
        report = precision_report(cfg)
        for axis in "xyz":
            variants = qfi_analytic(cfg, axis)
            assert report.axis(axis).qfi_numeric == pytest.approx(
                variants.appendix, rel=1e-7)
        # y and z separate the two candidate forms at this working point
        assert qfi_analytic(cfg, "y").main != pytest.approx(
            qfi_analytic(cfg, "y").appendix, rel=1e-3)
        for scheme, probe in (("parallel", "scs"), ("parallel", "ghz"),
                              ("sequential", "scs")):
            other = config(scheme, probe, field=field, durations=(1.0, 0.8, 1.2))
            report = precision_report(other)
            for axis in "xyz":
                variants = qfi_analytic(other, axis)
                assert variants.main == variants.appendix
                assert report.axis(axis).qfi_numeric == pytest.approx(
                    variants.appendix, rel=1e-7)
    # At zero field the sequential z QFI vanishes; round-off must not push
    # it below zero.
    zero = config("sequential", "scs", field=FieldVector(0.0, 0.0, 0.0))
    report = precision_report(zero)
    for axis in "xyz":
        value = report.axis(axis).qfi_numeric
        assert value >= 0.0
        assert value == pytest.approx(qfi_analytic(zero, axis).appendix, abs=1e-12)


def test_qfi_for_x_never_depends_on_the_field():
    for scheme, probe, value in (("parallel", "scs", 10.0),
                                 ("parallel", "ghz", 100.0),
                                 ("sequential", "scs", 10.0),
                                 ("sequential", "ghz", 100.0)):
        for field in (FIELD, FieldVector(1.3, 0.05, 2.1)):
            cfg = config(scheme, probe, field=field)
            assert precision_report(cfg).axis("x").qfi_numeric == pytest.approx(
                value, rel=1e-7)


def test_blind_spot_reported_as_infinite_precision():
    # phi_x = pi/2 kills the sequential y readout slope and its QFI.
    cfg = config("sequential", "scs", field=FieldVector(math.pi / 2, 0.4, 0.3))
    assert math.isinf(analytic_delta_b(cfg, "y"))
    report = precision_report(cfg)
    entry = report.axis("y")
    assert entry.blind_spot
    assert math.isinf(entry.delta_b_numeric)
    assert entry.qfi_analytic_appendix == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("probe", PROBES)
def test_short_interrogation_is_not_a_blind_spot(probe):
    # gamma T_x = 1e-13 shrinks the x slope with the closed form's own scale;
    # an absolute slope floor read it as a blind spot (inf)
    cfg = config("sequential", probe, field=FieldVector(0.3, 0.4, 0.5),
                 durations=(1e-13, 1.0, 1.0))
    ana = analytic_delta_b(cfg, "x")
    assert math.isfinite(ana)
    assert precision_report(cfg).axis("x").delta_b_numeric == pytest.approx(ana, rel=1e-6)


def test_precision_report_respects_quantum_bound():
    rng = np.random.default_rng(6)
    for scheme, probe in (("parallel", "scs"), ("parallel", "ghz"),
                          ("sequential", "scs"), ("sequential", "ghz")):
        field = FieldVector(*rng.uniform(0.15, 1.0, 3))
        report = precision_report(config(scheme, probe, field=field), eta=1)
        for entry in report.axes:
            if math.isfinite(entry.delta_b_numeric) and not entry.blind_spot:
                assert entry.delta_b_numeric >= entry.qcrb - 1e-9


def test_precision_report_eta_scales_qcrb():
    cfg = config("parallel", "ghz")
    one = precision_report(cfg, eta=1).axis("x").qcrb
    many = precision_report(cfg, eta=100).axis("x").qcrb
    assert many == pytest.approx(one / 10.0)
    # at T_x = 1e5 the product eta F overflows a float; the bound does not
    long = config("parallel", "ghz", durations=(1e5, 1.0, 1.0))
    one = precision_report(long).axis("x").qcrb
    huge = precision_report(long, eta=10**300).axis("x").qcrb
    assert one == pytest.approx(1e-6, rel=1e-9)
    assert huge == pytest.approx(one / 1e150, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        precision_report(cfg, eta=0)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 40),
       field=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       durations=st.tuples(*[st.floats(0.0, 2.0)] * 3),
       gamma=st.sampled_from([1.0, 2.5]),
       scheme=st.sampled_from(SCHEMES),
       probe=st.sampled_from(PROBES),
       axis=st.sampled_from(AXES))
def test_exact_derivatives_match_finite_differences(n, field, durations, gamma,
                                                    scheme, probe, axis):
    cfg = config(scheme, probe, dims=EnsembleDims(n),
                 field=FieldVector(*field, gamma=gamma), durations=durations)
    fd_dpsi, fd_slope, fd_qfi = central_difference(cfg, axis)
    block = schemes._tangent(cfg, axis)
    tangent = block[:, 1 + AXES.index(axis)]
    (_, _, exact_delta_jz, slope, qfi, _), = schemes._axis_figures(cfg, block, (axis,))
    # Absolute floors at the largest natural scales: gamma N T for d psi and
    # its square for the QFI and the slope.
    size = gamma * n * max(1.0, cfg.duration(axis))
    scale = size * size
    assert np.max(np.abs(tangent - fd_dpsi)) <= 1e-8 * size
    assert qfi == pytest.approx(fd_qfi, rel=1e-6, abs=1e-9 * scale)
    jz, jz2 = jz_moments(final_state(cfg, axis if scheme == "parallel" else None))
    delta_jz = math.sqrt(max(0.0, jz2 - jz * jz))
    delta_b = schemes._delta_b(cfg, axis, exact_delta_jz, slope)
    if abs(fd_slope) > 1e-4 * scale:
        assert delta_b == pytest.approx(delta_jz / abs(fd_slope), rel=1e-6)
    else:  # near a blind spot: the exact slope is at most the oracle's
        assert delta_b >= delta_jz / (abs(fd_slope) + 1e-9 * scale)


@settings(derandomize=True, deadline=None)
@given(half_n=st.integers(1, 20),
       field=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       durations=st.tuples(*[st.floats(0.0, 2.0)] * 3),
       gamma=st.sampled_from([1.0, 2.5]),
       scheme=st.sampled_from(SCHEMES),
       probe=st.sampled_from(PROBES),
       axis=st.sampled_from(AXES))
def test_closed_forms_match_simulation(half_n, field, durations, gamma, scheme,
                                       probe, axis):
    n, j = 2 * half_n, float(half_n)
    cfg = config(scheme, probe, dims=EnsembleDims(n),
                 field=FieldVector(*field, gamma=gamma), durations=durations)
    which = axis if scheme == "parallel" else None
    jz, jz2 = jz_moments(final_state(cfg, which))
    assert closed_form_jz(scheme, probe, n, *cfg.phases, which) == pytest.approx(
        jz, abs=1e-9 * j)
    assert closed_form_jz2(scheme, probe, n, *cfg.phases, which) == pytest.approx(
        jz2, abs=1e-9 * j * j)
    s, ds = signal_terms(scheme, probe, n, *cfg.phases, which)
    # Away from blind spots and from |S| = 1; any gamma T > 0, as both paths
    # scale their blind-spot floor with it.
    if abs(ds[axis]) >= 1e-3 and 1.0 - s**2 >= 1e-6 and gamma * cfg.duration(axis) > 0:
        assert analytic_delta_b(cfg, axis) == pytest.approx(
            precision_report(cfg).axis(axis).delta_b_numeric, rel=1e-6)
    odd = dataclasses.replace(cfg, probe="ghz", dims=EnsembleDims(n - 1))
    for closed_form in (signal_terms, closed_form_jz, closed_form_jz2):
        with pytest.raises(AnalyticBranchError):
            closed_form(scheme, "ghz", n - 1, *cfg.phases, which)
    for analytic in (analytic_delta_b, qfi_analytic):
        with pytest.raises(AnalyticBranchError):
            analytic(odd, axis)


def phase_triples(count=400, seed=7):
    rng = np.random.default_rng(seed)
    half = math.pi / 2
    special = [(0.0, 0.0, 0.0), (-0.0, half, 0.0), (half, half, half),
               (1e-300, 2.0, -3.0), (100.0, -250.5, 1e6), (1e15, 3.0, 1e300)]
    return special + [tuple(rng.uniform(-4.0, 4.0, 3).tolist()) for _ in range(count)]


def squares_round_apart(scheme, probe, n, which):
    """Phase triples at which S * S and S ** 2 round to different floats."""
    found = []
    for phases in phase_triples(count=20000, seed=11):
        s, _ = signal_terms(scheme, probe, n, *phases, which)
        if s * s != s ** 2:
            found.append(phases)
    return found


def bits(value):
    return np.asarray(value, dtype=float).reshape(-1)[0].hex()


@pytest.mark.parametrize("probe,n", [("scs", 7), ("scs", 10), ("ghz", 10), ("ghz", 12)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scalar_phases_match_array_phases(scheme, probe, n):
    # S and dS take numpy's sines and cosines and agree bit for bit across
    # floats, 0-d arrays and 1-element arrays; scalar delta B takes math's,
    # so its match to the formula below pins math against numpy.
    # delta B squares S with pow on scalars (0-d arrays give numpy scalars)
    # and by multiplication on arrays, as numpy scalars and arrays do; the
    # two roundings differ at about 1 point in 10^4.
    gamma_t, root = 1.3, math.sqrt(n) if probe == "scs" else n
    for axis in AXES:
        which = axis if scheme == "parallel" else None
        split = squares_round_apart(scheme, probe, n, which)
        assert len(split) >= 5
        for phases in phase_triples() + split:
            variants = (phases, [np.asarray(p) for p in phases],
                        [np.array([p]) for p in phases])
            terms = [signal_terms(scheme, probe, n, *v, which) for v in variants]
            dbs = [closed_form_delta_b(scheme, probe, n, axis, gamma_t, *v)
                   for v in variants]
            (s, ds), db = terms[0], dbs[0]
            assert type(db) is float
            assert {bits(t[0]) for t in terms} == {s.hex()}, phases
            assert {bits(t[1][axis]) for t in terms} == {ds[axis].hex()}, phases

            def written(square):
                if scheme == "parallel":
                    return 1.0 / (root * gamma_t)
                noise, slope = 1.0 - square, abs(ds[axis])
                if noise <= 0.0 or slope < 1e-12:
                    return math.inf
                return (1.0 / (root * gamma_t)) * math.sqrt(noise) / slope

            assert db.hex() == bits(dbs[1]) == written(s ** 2).hex(), phases
            assert bits(dbs[2]) == written(s * s).hex(), phases
            if scheme == "sequential":
                for v, (_, full) in zip(variants, terms):
                    _, only = signal_terms(scheme, probe, n, *v, axis)
                    assert list(only) == [axis]
                    assert bits(only[axis]) == bits(full[axis]), phases


@pytest.mark.parametrize("probe,n", [("scs", 7), ("ghz", 10)])
def test_three_axis_pass_matches_one_axis_calls(probe, n):
    # minimized_delta_b's grid takes all three axes from one S; each must
    # keep the bits of its own call, blind spots and |S| = 1 points included
    grid = np.linspace(0.0, math.pi, 27)  # 0 and pi/2 give blind spots
    phases = (grid[:, None, None], grid[:, None], grid * 0.7)
    together = schemes._delta_b_arrays("sequential", probe, n, 1.3, phases, AXES)
    for axis, values in zip(AXES, together):
        alone = closed_form_delta_b("sequential", probe, n, axis, 1.3, *phases)
        assert np.array_equal(values, alone) and np.isinf(values).any()


def test_no_noise_or_no_time_gives_inf():
    # S rounds to -1 while |dS_x| = 1e-9 clears the blind-spot floor: no noise
    # to propagate, so no precision, on the scalar and the array path alike;
    # nor is there one after T = 0
    phases = (1e-9, math.pi / 2, 0.0)
    s, ds = signal_terms("sequential", "scs", 10, *phases)
    assert s == -1.0 and abs(ds["x"]) >= 1e-12
    for scheme, gamma_t, at in (("sequential", 1.0, phases), ("sequential", 0.0, (0.3, 0.4, 0.5)),
                                ("parallel", 0.0, (0.3, 0.4, 0.5))):
        assert closed_form_delta_b(scheme, "scs", 10, "x", gamma_t, *at) == math.inf
        arrays = [np.array([p, 0.5]) for p in at]
        assert closed_form_delta_b(scheme, "scs", 10, "x", gamma_t, *arrays)[0] == math.inf


@pytest.mark.parametrize("probe", PROBES)
def test_nonfinite_scalar_phases_give_inf(probe):
    # the cat probe's N-fold phase of 1e308 overflows to inf; NaN passes the trig
    overflow = (1e308, 0.1, 0.2) if probe == "ghz" else (math.inf, 0.1, 0.2)
    for phases in (overflow, (0.1, -math.inf, 0.2), (0.1, 0.2, math.nan)):
        for axis in AXES:
            assert closed_form_delta_b("sequential", probe, 10, axis, 1.0, *phases) == math.inf


def test_derivatives_refuse_exact_evolution():
    cfg = config("sequential", "scs", evolution="exact", tau=1e-2)
    with pytest.raises(ValueError, match="effective evolution"):
        schemes._tangent(cfg, "x")
    with pytest.raises(ValueError, match="effective evolution"):
        precision_report(cfg)


def test_precision_report_makes_one_tangent_pass_per_device(monkeypatch, capsys):
    passes, reads = [], []
    apply_chain, dicke_state = schemes._apply_chain, schemes.DickeState

    def counting(cfg, chain, tangent=False):
        block = apply_chain(cfg, chain, tangent)
        passes.append(block.shape)
        return block

    def reading(dims, amplitudes):
        reads.append(dims.dim)
        return dicke_state(dims, amplitudes)

    monkeypatch.setattr(schemes, "_apply_chain", counting)
    monkeypatch.setattr(schemes, "DickeState", reading)
    precision_report(config("sequential", "ghz"))
    # the block's state is read once, for all three axes
    assert passes == [(DIMS.dim, 4)] and reads == [DIMS.dim]
    passes.clear()
    reads.clear()
    precision_report(config("parallel", "scs"))
    assert passes == [(DIMS.dim, 4)] * 3 and reads == [DIMS.dim] * 3
    # qfi is a view of the report, so it makes the same passes
    for scheme, count in (("sequential", 1), ("parallel", 3)):
        passes.clear()
        assert main(["qfi", "--scheme", scheme, "--probe", "ghz", "--N", "10",
                     "--B", "0.31,0.47,0.23"]) == 0
        assert passes == [(DIMS.dim, 4)] * count
    capsys.readouterr()


def per_axis_oracle(cfg, axis):
    """The per-axis path the report replaced: one tangent pass per axis, and
    the qfi command's own single-shot bound rule."""
    (_, _, delta_jz, slope, qfi, _), = schemes._axis_figures(cfg, schemes._tangent(cfg, axis),
                                                              (axis,))
    variants = qfi_analytic(cfg, axis)
    return {"delta_b_numeric": schemes._delta_b(cfg, axis, delta_jz, slope),
            "delta_b_analytic": analytic_delta_b(cfg, axis),
            "qfi_numeric": qfi,
            "qfi_analytic_main": variants.main,
            "qfi_analytic_appendix": variants.appendix,
            "qcrb": 1.0 / math.sqrt(qfi) if qfi > 0 else math.inf}


def test_report_equals_the_per_axis_path_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        scheme, probe = SCHEMES[rng.integers(2)], PROBES[rng.integers(2)]
        field = FieldVector(*rng.uniform(-2.0, 2.0, 3).tolist(),
                            gamma=(1.0, 2.5)[rng.integers(2)])
        cfg = config(scheme, probe, dims=EnsembleDims(2 * int(rng.integers(1, 11))),
                     field=field, durations=rng.uniform(0.0, 2.0, 3).tolist())
        for entry in precision_report(cfg).axes:
            for name, value in per_axis_oracle(cfg, entry.axis).items():
                assert getattr(entry, name).hex() == value.hex(), (cfg, entry.axis, name)


def test_report_json_replaces_nonfinite_with_null():
    cfg = config("sequential", "scs", field=FieldVector(math.pi / 2, 0.4, 0.3))
    payload = to_json(precision_report(cfg))
    by_axis = {row["axis"]: row for row in payload["axes"]}
    assert by_axis["y"]["delta_b_analytic"] is None
    assert by_axis["y"]["blind_spot"] is True
    assert payload["scheme"] == "sequential" and payload["n"] == 10


def test_to_json_encodes_nested_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        value: float
        flag: bool

    @dataclasses.dataclass(frozen=True)
    class Outer:
        count: int
        name: str
        items: tuple
        table: dict

    doc = to_json(Outer(3, "x", (Inner(math.inf, True), Inner(1.5, False)),
                        {"nan": math.nan, "ninf": -math.inf, "pair": (1, 2.0)}))
    assert doc == {"count": 3, "name": "x",
                   "items": [{"value": None, "flag": True},
                             {"value": 1.5, "flag": False}],
                   "table": {"nan": None, "ninf": None, "pair": [1, 2.0]}}
    assert type(doc["count"]) is int and type(doc["items"][0]["flag"]) is bool
    assert type(doc["table"]["pair"][0]) is int


def test_sequential_chain_shapes():
    def chain(probe, literal=False):
        return schemes._chain(config("sequential", probe), None, literal)

    assert [kind for kind, *_ in chain("scs")] == ["rot", "free", "free", "free"]
    assert chain("scs", literal=True) == chain("scs")
    assert chain("ghz")[-1][:2] == ("rot", "y")
    assert len(chain("ghz", literal=True)) == 8
    # literal=True changes nothing for the product probe
    cfg = config("sequential", "scs")
    assert np.array_equal(final_state(cfg, literal=True).amplitudes,
                          final_state(cfg).amplitudes)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, 40),
       field=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       durations=st.tuples(*[st.sampled_from([0.0, 0.4, 1.0, 1.7])] * 3),
       gamma=st.sampled_from([1.0, 2.5]),
       scheme=st.sampled_from(SCHEMES),
       probe=st.sampled_from(PROBES),
       literal=st.booleans(),
       exact=st.booleans())
def test_chains_match_the_stepwise_kernel_chain(n, field, durations, gamma, scheme, probe,
                                                literal, exact):
    # twists as sums of rotations, the split probe image and taps carried to
    # the end of their run against the kernel applied step by step
    cfg = config(scheme, probe, dims=EnsembleDims(n), field=FieldVector(*field, gamma=gamma),
                 durations=durations)
    for axis in (AXES if scheme == "parallel" else (None,)):
        if exact:
            pulsed = dataclasses.replace(cfg, evolution="exact", tau=0.05)
            got = final_state(pulsed, axis, literal).amplitudes
            assert np.max(np.abs(got - dense_chain(pulsed, axis, literal, False))) <= 1e-12
            continue
        got = final_state(cfg, axis, literal).amplitudes
        assert np.max(np.abs(got - dense_chain(cfg, axis, literal, False))) <= 1e-12
        block, want = schemes._tangent(cfg, axis or "x"), dense_chain(cfg, axis, False, True)
        scale = np.maximum(1.0, np.linalg.norm(want, axis=0))
        assert np.all(np.max(np.abs(block - want), axis=0) <= 1e-12 * scale)


def refuse_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


def test_even_n_cat_chains_and_product_probe_tangents_build_no_sectors(monkeypatch):
    refuse_eigh(monkeypatch)
    dims, field = EnsembleDims(300), FieldVector(0.31, -0.47, 0.23)
    for scheme, axes in (("sequential", (None,)), ("parallel", AXES)):
        ghz = config(scheme, "ghz", dims=dims, field=field, durations=(1.0, 0.8, 1.2))
        for axis in axes:
            final_state(ghz, axis)
            final_state(ghz, axis, literal=True)
        final_state(dataclasses.replace(ghz, evolution="exact", tau=0.01), axes[0])
        scs = dataclasses.replace(ghz, probe="scs")
        schemes._tangent(scs, "x")
        precision_report(scs)


def test_z_phases_build_no_sectors(monkeypatch):
    # z rotations, odd-N z twists and exact z blocks keep |J, J> up to a phase
    refuse_eigh(monkeypatch)
    dims = EnsembleDims(300)
    probe = spin.scs_state(dims).amplitudes
    turned = spin.probe_image(dims, "scs", [spin._su2("z", 0.7)])[0]
    assert np.max(np.abs(turned - np.exp(-0.35j * dims.N) * probe)) < 1e-12
    odd = EnsembleDims(301)
    halves = spin._twist_terms(odd.N, "z", math.pi / 2)
    twisted = sum(c * spin.probe_image(odd, "scs", [v])[0] for c, v in halves)
    # e^{-i pi/2 J_z^2} |J, J> = e^{-i pi/2 (J^2 mod 4)} |J, J>, J^2 = 22650.25
    want = np.exp(-0.5j * math.pi * (odd.J**2 % 4)) * spin.scs_state(odd).amplitudes
    assert np.max(np.abs(twisted - want)) < 1e-12
    pulsed = evolve_exact(dims, FieldVector(0.0, 0.0, 0.6), [DDSchedule("z", 3, 0.01)], "scs")
    assert abs(np.vdot(probe, pulsed.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_no_chain_tangent_or_report_calls_eigh(monkeypatch):
    # every chain, tangent block and pulse block is a sum of closed-form probe
    # images: no eigendecomposition at any N or parity, nor the O(N^3) cost of one
    refuse_eigh(monkeypatch)
    field = FieldVector(0.31, -0.47, 0.23)
    for n in (10, 11, 1001):
        for scheme, probe in ((s, p) for s in SCHEMES for p in PROBES):
            cfg = config(scheme, probe, dims=EnsembleDims(n), field=field, durations=(1.0, 0.8, 1.2))
            exact = dataclasses.replace(cfg, evolution="exact", tau=0.01)
            for axis in (AXES if scheme == "parallel" else ("x",)):
                for literal in (False, True):
                    final_state(cfg, axis, literal)
                    final_state(exact, axis, literal)
                schemes._tangent(cfg, axis)
            if probe == "scs" or n % 2 == 0:  # the cat probe's closed forms need even N
                precision_report(cfg)
    report = precision_report(config("sequential", "ghz", dims=EnsembleDims(4000),
                                      field=FieldVector(1e-4, 2e-4, 3e-4)))
    assert report.n == 4000 and all(entry.qfi_numeric > 0.0 for entry in report.axes)
