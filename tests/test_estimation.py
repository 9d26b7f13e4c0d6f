"""Signal sampling, FFT peak extraction, field recovery, scaling fits."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecmag import AnalyticBranchError, estimation
from vecmag.spin import AXES, EnsembleDims, FieldVector
from vecmag.schemes import PROBES, SchemeConfig, _delta_b_arrays, closed_form_delta_b
from vecmag.estimation import (
    _nelder_mead,
    AmbiguousSignError,
    FFTSpectrum,
    OutOfRegimeError,
    RecoveredField,
    SignalTrace,
    SpectrumPeak,
    UnderResolvedError,
    extract_peaks,
    fft_spectrum,
    minimized_delta_b,
    recover_field,
    recover_from_trace,
    resolve_signs,
    sample_signal,
    scaling_fit,
    scaling_table,
)

DIMS = EnsembleDims(10)
FIG_FIELD = FieldVector(10.0, 6.0, 2.0)
T_MAX = 12.8
M = 4096
BIN = 2.0 * math.pi / T_MAX


def sequential(probe, field=FIG_FIELD, dims=DIMS):
    return SchemeConfig("sequential", probe, dims, field, (1.0, 1.0, 1.0))


def fig_peaks():
    rows = [(18.0, 1.0), (14.0, 1.0), (6.0, 1.0), (2.0, 1.0), (12.0, 2.0), (8.0, 2.0)]
    return [SpectrumPeak(w, a) for w, a in rows]


def test_trace_validation():
    with pytest.raises(ValueError):
        SignalTrace(np.array([0.0]), np.array([1.0]), "scs", 10)
    with pytest.raises(ValueError):
        SignalTrace(np.array([0.0, 1.0, 3.0]), np.zeros(3), "scs", 10)
    trace = SignalTrace(np.array([0.0, 0.5, 1.0]), np.zeros(3), "ghz", 10)
    assert trace.spacing == pytest.approx(0.5)
    assert trace.scale == 10.0


def test_sample_signal_guards():
    cfg = sequential("scs")
    with pytest.raises(ValueError):
        sample_signal(cfg, T_MAX, 100)  # not a power of two
    with pytest.raises(ValueError):
        sample_signal(cfg, 0.0, 64)
    for t_max in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_max"):
            sample_signal(cfg, t_max, 64)
    with pytest.raises(ValueError, match="sample count m"):
        sample_signal(cfg, T_MAX, 64.0)
    par = SchemeConfig("parallel", "scs", DIMS, FIG_FIELD, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        sample_signal(par, T_MAX, 64)


def test_zero_field_gives_zero_trace():
    cfg = sequential("scs", field=FieldVector(0.0, 0.0, 0.0))
    trace = sample_signal(cfg, T_MAX, 64)
    assert np.allclose(trace.values, 0.0, atol=1e-12)


def test_simulated_sampling_matches_closed_form():
    closed = sample_signal(sequential("ghz"), 1.0, 8)
    step = SchemeConfig("sequential", "ghz", DIMS, FIG_FIELD, (1.0, 1.0, 1.0))
    from vecmag.schemes import final_state, jz_moments
    for t, value in zip(closed.times, closed.values):
        cfg = SchemeConfig("sequential", "ghz", DIMS, FIG_FIELD,
                           (float(t), float(t), float(t)))
        assert jz_moments(final_state(cfg))[0] == pytest.approx(value, abs=1e-10)


def test_odd_n_cat_probe_trace_needs_exact_evolution():
    # odd N leaves the twist readout inert: the effective trace has no closed
    # form and is refused; exact pulsed evolution still simulates every point
    args = ("sequential", "ghz", EnsembleDims(5), FieldVector(3, 2, 1), (1.0, 1.0, 1.0))
    with pytest.raises(AnalyticBranchError):
        sample_signal(SchemeConfig(*args), 1.0, 8)
    trace = sample_signal(SchemeConfig(*args, evolution="exact", tau=0.01), 1.0, 8)
    assert trace.values.shape == (8,) and np.all(np.isfinite(trace.values))


def test_pure_sine_lands_on_grid():
    times = np.arange(64) * (2.0 * math.pi / 64)
    trace = SignalTrace(times, np.sin(5.0 * times), "scs", 10)
    spectrum = fft_spectrum(trace)
    assert spectrum.bin_width == pytest.approx(1.0)
    peak = extract_peaks(spectrum, count=1)[0]
    assert peak.omega == pytest.approx(5.0, abs=1e-9)
    assert peak.amplitude == pytest.approx(0.5, abs=1e-9)
    assert len(list(iter(spectrum))) == 33


def test_two_sines_keep_magnitude_ratio():
    times = np.arange(128) * (2.0 * math.pi / 128)
    values = np.sin(5.0 * times) + 0.5 * np.sin(11.0 * times)
    spectrum = fft_spectrum(SignalTrace(times, values, "scs", 10))
    peaks = extract_peaks(spectrum, count=2)
    assert peaks[0].omega == pytest.approx(5.0, abs=1e-9)
    assert peaks[1].omega == pytest.approx(11.0, abs=1e-9)
    assert peaks[0].amplitude / peaks[1].amplitude == pytest.approx(2.0, rel=1e-6)


def test_fig_field_spectrum_structure():
    trace = sample_signal(sequential("scs"), T_MAX, M)
    peaks = extract_peaks(fft_spectrum(trace))
    omegas = sorted(p.omega for p in peaks)
    for found, true in zip(omegas, (2.0, 6.0, 8.0, 12.0, 14.0, 18.0)):
        assert abs(found - true) < 0.2 * BIN
    by_omega = {round(p.omega): p.amplitude for p in peaks}
    strong = (by_omega[12] + by_omega[8]) / 2.0
    weak = (by_omega[2] + by_omega[6] + by_omega[14] + by_omega[18]) / 4.0
    assert strong / weak == pytest.approx(2.0, rel=0.1)


def test_degenerate_fields_raise_under_resolved():
    for field in (FieldVector(10, 6, 6), FieldVector(10, 6, 0)):
        trace = sample_signal(sequential("scs", field=field), T_MAX, M)
        with pytest.raises(UnderResolvedError) as info:
            extract_peaks(fft_spectrum(trace))
        assert info.value.found < 6


def test_amplitude_rule_recovers_written_example():
    rec = recover_field(fig_peaks(), 1.0)
    assert (rec.bx, rec.by, rec.bz) == pytest.approx((10.0, 6.0, 2.0))
    assert rec.method == "amplitude-rule" and math.isnan(rec.residual)
    scaled = [SpectrumPeak(10 * p.omega, p.amplitude) for p in fig_peaks()]
    rec10 = recover_field(scaled, 10.0)
    assert (rec10.bx, rec10.by, rec10.bz) == pytest.approx((10.0, 6.0, 2.0))


def test_pair_spread_rule_is_kept_verbatim_including_its_failure():
    # On these very peak values the middle-distance rule picks 4 and the
    # spread rule picks 3, not the true (6, 2); the rule only orders
    # correctly for |By| < |Bz|.
    rec = recover_field(fig_peaks(), 1.0, method="pair-spread-rule")
    assert (rec.bx, rec.by, rec.bz) == pytest.approx((10.0, 3.0, 4.0))
    swapped = [(18.0, 1.0), (8.0, 1.0), (14.0, 1.0), (6.0, 1.0),
               (16.0, 2.0), (4.0, 2.0)]
    peaks = [SpectrumPeak(w, a) for w, a in swapped]
    rec_ok = recover_field(peaks, 1.0, method="pair-spread-rule")
    assert (rec_ok.bx, rec_ok.by, rec_ok.bz) == pytest.approx((11.0, 2.0, 5.0))


def test_recover_field_guards():
    with pytest.raises(ValueError):
        recover_field(fig_peaks()[:5], 1.0)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            recover_field(fig_peaks(), scale)
    with pytest.raises(ValueError):
        recover_field(fig_peaks(), 1.0, method="median-rule")
    clustered = [SpectrumPeak(w, a) for w, a in
                 [(10.5, 1.0), (11.2, 1.0), (10.9, 1.0), (11.4, 1.0),
                  (20.0, 2.0), (2.0, 2.0)]]
    with pytest.raises(OutOfRegimeError):
        recover_field(clustered, 1.0)


def test_sum_identity_on_synthesized_peaks():
    rec = recover_field(fig_peaks(), 1.0)
    lines = (rec.bx + rec.by + rec.bz, rec.bx + rec.by - rec.bz,
             rec.bx - rec.by + rec.bz, rec.bx - rec.by - rec.bz,
             rec.bx + rec.bz, rec.bx - rec.bz)
    assert sum(lines) == pytest.approx(6.0 * rec.bx, abs=1e-12)
    assert sorted(lines) == pytest.approx(sorted(p.omega for p in fig_peaks()))


def test_sign_fit_round_trips():
    trace = sample_signal(sequential("scs"), T_MAX, M)
    rec = resolve_signs(recover_field(fig_peaks(), 1.0), trace)
    assert rec.by > 0 and rec.bz > 0 and rec.residual < 1e3
    flipped = sample_signal(sequential("scs", field=FieldVector(10, -6, 2)), T_MAX, M)
    rec_f, _, _ = recover_from_trace(flipped)
    assert rec_f.by == pytest.approx(-6.0, abs=2 * BIN)
    assert rec_f.bz == pytest.approx(2.0, abs=2 * BIN)


def test_sign_fit_reports_exact_ties():
    zero = SignalTrace(np.arange(64) * 0.1, np.zeros(64), "scs", 10)
    candidate = RecoveredField(10.0, 0.5, 0.25, "amplitude-rule", math.nan, 1.0)
    with pytest.raises(AmbiguousSignError) as info:
        resolve_signs(candidate, zero)
    # Joint sign flip negates the whole signal, so a zero trace cannot
    # separate (+,-) from (-,+); both land in the tied set.
    tied = info.value.assignments
    assert len(tied) == 2 and tied[0] == (-tied[1][0], -tied[1][1])
    with pytest.raises(ValueError):
        resolve_signs(candidate, zero, on_tie="random")


def test_cat_probe_by_sign_is_unobservable():
    trace = sample_signal(sequential("ghz"), T_MAX, M)
    with pytest.raises(AmbiguousSignError):
        recover_from_trace(trace)
    rec, _, _ = recover_from_trace(trace, on_tie="positive")
    assert rec.by == pytest.approx(6.0, abs=2 * BIN / 10)


def test_full_round_trip_hits_resolution_targets():
    for probe, tol in (("scs", 2 * BIN), ("ghz", 2 * BIN / 10)):
        trace = sample_signal(sequential(probe), T_MAX, M)
        rec, _, peaks = recover_from_trace(trace, on_tie="positive")
        assert rec.bx == pytest.approx(10.0, abs=tol)
        assert rec.by == pytest.approx(6.0, abs=tol)
        assert rec.bz == pytest.approx(2.0, abs=tol)
        assert len(peaks) == 6


def test_cat_refinement_sharpens_frequencies_tenfold():
    scs = sorted(extract_peaks(fft_spectrum(sample_signal(sequential("scs"), T_MAX, M))),
                 key=lambda p: p.omega)
    ghz = sorted(extract_peaks(fft_spectrum(sample_signal(sequential("ghz"), T_MAX, M))),
                 key=lambda p: p.omega)
    for low, high in zip(scs, ghz):
        assert abs(high.omega / 10.0 - low.omega) < BIN


def test_scaling_fit_exact_power_laws():
    ns = range(4, 41, 2)
    sql = scaling_fit([(n, 1.0 / math.sqrt(n)) for n in ns])
    assert sql.slope == pytest.approx(-0.5, abs=1e-12)
    assert sql.r_squared == pytest.approx(1.0, abs=1e-12)
    heis = scaling_fit([(n, 1.0 / n) for n in ns])
    assert heis.slope == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (6, 0.4)])
    # repeated N leave a line through fewer than three distinct abscissae
    with pytest.raises(ValueError, match="3 distinct N"):
        scaling_fit([(4, 0.5), (4, 0.5), (4, 0.5)])
    with pytest.raises(ValueError, match="3 distinct N"):
        scaling_fit([(4, 0.5), (6, 0.4), (6, 0.41), (4, 0.52)])
    with pytest.raises(ValueError):
        scaling_fit([(4, 0.5), (6, -0.4), (8, 0.3)])
    # an inf dB made numpy warn, a NaN one gave a NaN slope
    for bad in ([(4, 0.5), (6, math.inf), (8, 0.3)], [(4, 0.5), (6, math.nan), (8, 0.3)],
                [(4, 0.5), (6, 0.4), (math.inf, 0.3)]):
        with pytest.raises(ValueError, match="needs positive N and dB"):
            scaling_fit(bad)


def test_minimized_precision_reaches_the_limits():
    assert minimized_delta_b("parallel", "scs", 10)[0] == pytest.approx(1 / math.sqrt(10))
    assert minimized_delta_b("parallel", "ghz", 10)[0] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        minimized_delta_b("parallel", "ghz", 9)
    for n in (4, 10):
        best = minimized_delta_b("sequential", "ghz", n)[2]
        # grid + polish lands on the 1/n floor; (1 - S^2) cancellation
        # near |S| = 1 limits agreement to ~1e-8
        assert best == pytest.approx(1.0 / n, abs=1e-7)
    scs_best = minimized_delta_b("sequential", "scs", 10)[1]
    assert 1.0 / math.sqrt(10) - 1e-12 <= scs_best <= 1.001 / math.sqrt(10)


def test_minimized_precision_never_beats_the_parallel_floor():
    for duration in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
        for n in range(4, 17, 2):
            for probe, floor in (("scs", 1.0 / (math.sqrt(n) * duration)),
                                 ("ghz", 1.0 / (n * duration))):
                minima = minimized_delta_b("sequential", probe, n, duration=duration)
                for axis, best in zip(AXES, minima):
                    assert best >= floor * (1 - 1e-6), (duration, n, probe, axis)


def test_scaling_slopes_from_minimized_precision():
    ns = range(4, 17, 2)
    for probe, target in (("scs", -0.5), ("ghz", -1.0)):
        fit = scaling_fit([(n, minimized_delta_b("sequential", probe, n)[0])
                           for n in ns])
        assert fit.slope == pytest.approx(target, abs=0.05)
        assert fit.r_squared >= 0.999


@pytest.mark.parametrize("scheme", ["parallel", "sequential"])
@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan, 1e-310])
def test_minimized_delta_b_refuses_invalid_durations(scheme, duration):
    with pytest.raises(ValueError, match="duration must be finite and > 0"):
        minimized_delta_b(scheme, "scs", 10, duration=duration)


def full_cube_start(delta_b_arrays, probe, n, axis, duration=1.0):
    """The grid point in phase units and the value minimized_delta_b starts
    its polish from, found on the whole (pts, pts, pts) phase cube at once, at
    unit duration: np.argmin's first occurrence in C order, its value divided
    by T."""
    pts = max(24, 2 * n)
    grid = np.linspace(0.0, math.pi, pts + 2)[1:-1]
    cube = np.meshgrid(grid, grid, grid, indexing="ij", sparse=True)
    values, = delta_b_arrays("sequential", probe, n, 1.0, cube, (axis,))
    i = int(np.argmin(values))
    start = grid[list(np.unravel_index(i, values.shape))].tolist()
    return start, float(values.flat[i]) / duration


def slab_start(monkeypatch, probe, n, axis, duration=1.0):
    """The start and grid value minimized_delta_b reaches for `axis`, its
    polish skipped."""
    starts = []

    def polish(objective, start):
        starts.append(start)
        return math.inf

    monkeypatch.setattr(estimation, "_nelder_mead", polish)
    values = minimized_delta_b("sequential", probe, n, duration)
    return starts[AXES.index(axis)], values[AXES.index(axis)]


def assert_same_start(monkeypatch, delta_b_arrays, probe, n, axis, duration=1.0):
    start, value = slab_start(monkeypatch, probe, n, axis, duration)
    want_start, want_value = full_cube_start(delta_b_arrays, probe, n, axis, duration)
    assert [v.hex() for v in start] == [v.hex() for v in want_start], (probe, n, axis)
    assert value.hex() == want_value.hex(), (probe, n, axis)


def test_grid_slabs_find_the_full_cube_argmin(monkeypatch):
    # criterion 9's 114 points; from N = 14 on the grid spans several slabs
    for probe in PROBES:
        for axis in AXES:
            for n in range(4, 41, 2):
                assert_same_start(monkeypatch, _delta_b_arrays, probe, n, axis)
    assert_same_start(monkeypatch, _delta_b_arrays, "ghz", 40, "x", duration=0.7)


def test_grid_slabs_keep_the_first_of_tied_minima(monkeypatch):
    # blind in B_x, so every x row ties with the first and the minimum recurs
    # across every slab boundary; only the first occurrence may win
    def x_blind(scheme, probe, n, gamma_t, phases, axes):
        phase_x, phase_y, phase_z = phases
        return [(phase_y - 1.0) ** 2 + (phase_z - 2.0) ** 2 + 0.0 * phase_x for _ in axes]

    monkeypatch.setattr(estimation, "_delta_b_arrays", x_blind)
    for n in (12, 13, 40):  # one, two and forty slabs
        assert_same_start(monkeypatch, x_blind, "scs", n, "x")
        start, _ = slab_start(monkeypatch, "scs", n, "x")
        assert start[0] == np.linspace(0.0, math.pi, max(24, 2 * n) + 2)[1]


def test_minimized_delta_b_grid_memory_stays_slab_sized():
    minimized_delta_b("sequential", "ghz", 40)  # warm imports and caches
    tracemalloc.start()
    try:
        minimized_delta_b("sequential", "ghz", 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 80^3 grid took 20 MiB; one slab of temporaries takes about 1
    assert peak < 2 * 2**20


# The options minimized_delta_b polished with when it called scipy.
SCIPY_NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 8000}


def scipy_minimized_delta_b(optimize, scheme, probe, n, axis, duration=1.0):
    """minimized_delta_b as it was with scipy's Nelder-Mead: the oracle.

    Its objective is the old one; test_scalar_phases_match_array_phases
    checks that the scalar closed form it calls gives numpy's bits.
    """
    def delta_b(bx, by, bz):
        return closed_form_delta_b(scheme, probe, n, axis, duration,
                                   bx * duration, by * duration, bz * duration)

    if scheme == "parallel":
        return float(delta_b(0.0, 0.0, 0.0))
    pts = max(24, 2 * n)
    upper = math.pi / duration
    grid = np.linspace(0.0, upper, pts + 2)[1:-1]
    values = delta_b(*np.meshgrid(grid, grid, grid, indexing="ij", sparse=True))
    ix, iy, iz = np.unravel_index(int(np.argmin(values)), values.shape)

    def objective(b):
        if np.any(b <= 0.0) or np.any(b >= upper):
            return math.inf
        return float(delta_b(b[0], b[1], b[2]))

    result = optimize.minimize(objective, np.array([grid[ix], grid[iy], grid[iz]]),
                               method="Nelder-Mead", options=SCIPY_NM_OPTIONS)
    polished = float(result.fun) if np.isfinite(result.fun) else math.inf
    return min(float(values[ix, iy, iz]), polished)


def assert_matches_scipy(optimize, cases):
    for case in cases:
        probe, n, axis, duration = case
        got = minimized_delta_b("sequential", probe, n, duration)[AXES.index(axis)]
        assert got.hex() == scipy_minimized_delta_b(optimize, "sequential", *case).hex(), case


def test_minimized_delta_b_matches_scipy_on_criterion_9():
    optimize = pytest.importorskip("scipy.optimize")
    assert_matches_scipy(optimize, [(probe, n, axis, 1.0) for probe in PROBES
                                    for axis in AXES for n in range(4, 41, 2)])


def test_minimized_delta_b_matches_scipy_on_the_benchmark_grid():
    optimize = pytest.importorskip("scipy.optimize")
    assert_matches_scipy(optimize, [(probe, n, axis, duration)
                                    for duration in (0.5, 1.0, 2.0)
                                    for n in (4, 8, 12, 16)
                                    for probe in PROBES for axis in AXES])


@settings(derandomize=True, deadline=None)
@given(probe=st.sampled_from(PROBES), n=st.integers(1, 40),
       axis=st.sampled_from(AXES), duration=st.floats(0.05, 5.0))
def test_minimized_delta_b_matches_scipy_anywhere(probe, n, axis, duration):
    optimize = pytest.importorskip("scipy.optimize")
    if probe == "ghz":
        n += n % 2
    # the search runs in phase units at unit duration, then divides by T
    got = minimized_delta_b("sequential", probe, n, duration)[AXES.index(axis)]
    want = scipy_minimized_delta_b(optimize, "sequential", probe, n, axis) / duration
    assert got.hex() == want.hex(), (probe, n, axis, duration)


@pytest.mark.parametrize("duration", [1e-300, 0.75, 2.5, 1e9, 1e300])
def test_minimized_delta_b_is_the_unit_duration_search_divided_by_t(duration):
    # dB T depends on the phases alone; a field-unit search stopped short of
    # the floor at large T and wrote inf at T = 1e308
    for probe in PROBES:
        for n in (4, 10, 16):
            unit = minimized_delta_b("sequential", probe, n)
            got = minimized_delta_b("sequential", probe, n, duration)
            assert [v.hex() for v in got] == [(v / duration).hex() for v in unit], (probe, n)


def test_scaling_table_reads_the_minima_and_fits(monkeypatch):
    minima, fits = scaling_table("sequential", "ghz", (4, 5, 6))
    assert isinstance(minima[5], AnalyticBranchError)
    assert list(minima) == [4, 5, 6] and fits is None  # two N with values
    ns = (4, 5, 6, 8)
    minima, fits = scaling_table("sequential", "ghz", ns, 0.75)
    assert isinstance(minima[5], AnalyticBranchError) and list(minima) == list(ns)
    for n in (4, 6, 8):
        assert minima[n] == minimized_delta_b("sequential", "ghz", n, 0.75)
    assert fits == tuple(scaling_fit((n, minima[n][a]) for n in (4, 6, 8)) for a in range(3))
    minima, fits = scaling_table("parallel", "scs", (4, 6, 8))
    assert minima == {n: minimized_delta_b("parallel", "scs", n) for n in (4, 6, 8)}
    assert fits[0].slope == pytest.approx(-0.5, abs=1e-12)


def hashed(x):
    # pseudo-random values: fatol is never met, so the budget runs out
    return (hash(tuple(float(v) for v in x)) % 1000003) / 1000003.0


def terraced(x):
    # 2 on the start's terrace, 0 once y or z leaves it
    return 2.0 if max(x[1], x[2]) <= 1.0 else float(math.floor(abs(x[0] - 0.3)))


def boxed(probe, n, axis):
    def objective(b):
        if all(0.0 < v < math.pi for v in b):
            return float(closed_form_delta_b("sequential", probe, n, axis, 1.0, *b))
        return math.inf

    return objective


def scipy_and_ours(objective, start):
    """scipy's Nelder-Mead result and the first simplex's values, after
    checking that _nelder_mead evaluates the same points bit for bit (so the
    same count) and returns the same value."""
    optimize = pytest.importorskip("scipy.optimize")
    theirs, ours = [], []

    def recorded(calls):
        def wrapped(x):
            calls.append(tuple(float(v) for v in x))
            return objective(x)
        return wrapped

    result = optimize.minimize(recorded(theirs), np.array(start), method="Nelder-Mead",
                               options=SCIPY_NM_OPTIONS)
    assert _nelder_mead(recorded(ours), start).hex() == float(result.fun).hex()
    assert ours == theirs and len(ours) == result.nfev
    return result, [objective(x) for x in ours[:4]]


def test_nelder_mead_stops_at_scipys_budget():
    result, _ = scipy_and_ours(hashed, [0.3, 0.5, 0.7])
    assert result.status == 1 and result.nfev == 8000


@pytest.mark.parametrize("probe,n,axis", [("scs", 10, "y"), ("ghz", 10, "z"),
                                          ("scs", 16, "x")])
def test_nelder_mead_matches_scipy_through_inf_ties_and_shrinks(probe, n, axis):
    # start at the grid point nearest (pi, pi, pi): 1.05 x leaves the box
    corner = float(np.linspace(0.0, math.pi, max(24, 2 * n) + 2)[-2])
    result, first = scipy_and_ours(boxed(probe, n, axis), [corner] * 3)
    assert first[1:] == [math.inf] * 3
    # reflections and contractions spend at most 2 calls an iteration, so
    # the excess was spent shrinking the simplex
    assert result.nfev > 4 + 2 * (result.nit - 1)


def test_nelder_mead_ranks_ties_as_np_argsort():
    # (2, 2, 0, 0) is a tie pattern that np.argsort orders unlike a stable
    # sort on AVX-512 builds; the points evaluated next depend on the order
    _, first = scipy_and_ours(terraced, [1.0, 1.0, 1.0])
    assert first == [2.0, 2.0, 0.0, 0.0]
