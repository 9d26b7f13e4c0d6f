"""Pulse-sequence evolution, the effective-rotation limit, and the F1/F2 fidelities."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import dense_step, op
from vecmag import pulses, spin
from vecmag.spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    ghz_state,
    probe_image,
    scs_state,
)
from vecmag.pulses import (
    DDSchedule,
    NoiseModel,
    _angle_table,
    evolve_exact,
    fidelity_f1,
    fidelity_f2,
)
from vecmag.schemes import SchemeConfig, final_state

DIMS = EnsembleDims(10)
FIELD = FieldVector(4.0, 5.0, 6.0)


def expectation(state, matrix):
    """<psi| matrix |psi> of a Hermitian matrix."""
    return np.vdot(state.amplitudes, matrix @ state.amplitudes).real


def fidelity(a, b):
    """|<a|b>|^2."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def pair_plan(schedules):
    """The schedule each pulse pair belongs to, in pulse order."""
    return [sched for sched in schedules for _ in range(sched.pairs)]


def pair_loop(psi, dims, field, schedules, angles):
    """The pair-by-pair reference: a dense free step and two dense pulses
    per pair; yields the raw state after every pair.  angles[i] holds pair
    i's (first, second) angles."""
    u_free = {t: dense_step(dims.N, "rot", field, t) for t in {s.tau for s in schedules}}
    for sched, (a_first, a_second) in zip(pair_plan(schedules), angles):
        psi = dense_step(dims.N, "rot", sched.axis, a_first, u_free[sched.tau] @ psi)
        psi = dense_step(dims.N, "rot", sched.axis, a_second, u_free[sched.tau] @ psi)
        yield psi


def effective(state, blocks):
    """Free evolution e^{-i coupling J_axis duration} for each block in order."""
    psi = state.amplitudes
    for axis, duration, coupling in blocks:
        psi = dense_step(state.dims.N, "rot", axis, coupling * duration, psi)
    return DickeState(state.dims, psi)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DDSchedule("w", 10, 1e-3)
    with pytest.raises(ValueError):
        DDSchedule("x", 0, 1e-3)
    with pytest.raises(ValueError):
        DDSchedule("x", 10, 0.0)
    with pytest.raises(ValueError):
        DDSchedule("x", 10, 1e-3, mode="both")
    for tau in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="spacing"):
            DDSchedule("x", 10, tau)
    for pairs in (2.5, 10.0, "10", True):
        with pytest.raises(ValueError, match="pair count"):
            DDSchedule("x", pairs, 1e-3)
    assert DDSchedule("x", np.int64(10), 1e-3).pairs == 10
    assert DDSchedule("x", 250, 0.004).duration == pytest.approx(2.0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(eta=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(eta=0.1, trials=0)
    # 1e308 is finite, but its draw range 2 eta overflows Generator.uniform
    for eta in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="eta"):
            NoiseModel(eta=eta)
    for trials in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="trials"):
            NoiseModel(eta=0.1, trials=trials)
    for seed in (-1, 0.5, True, "7"):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(eta=0.1, seed=seed)
    noise = NoiseModel(eta=0.1, trials=np.int64(3), seed=np.int64(7))
    assert (noise.trials, noise.seed) == (3, 7)


def test_empty_schedule_returns_input():
    for probe, state in (("scs", scs_state(DIMS)), ("ghz", ghz_state(DIMS))):
        assert np.max(np.abs(evolve_exact(DIMS, FIELD, [], probe).amplitudes - state.amplitudes)) <= 1e-15
    with pytest.raises(ValueError, match="probe"):
        evolve_exact(DIMS, FIELD, [], "cat")


def test_zero_field_pulse_pairs_cancel():
    s = scs_state(DIMS)
    for mode in ("alternating", "identical"):
        out = evolve_exact(DIMS, FieldVector(0, 0, 0), [DDSchedule("x", 50, 1e-3, mode)], "scs")
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_single_pair_first_order_expansion():
    # one alternating x pair acts as 1 - 2i Bx Jx tau + O(tau^2)
    jx = op(DIMS.N, "x")
    psi0 = scs_state(DIMS).amplitudes

    def defect(tau):
        out = evolve_exact(DIMS, FIELD, [DDSchedule("x", 1, tau)], "scs")
        approx = psi0 - 2j * FIELD.Bx * tau * (jx @ psi0)
        return np.linalg.norm(out.amplitudes - approx / np.linalg.norm(approx))

    d1, d2 = defect(1e-6), defect(2e-6)
    assert d1 < 1e-8
    assert 3.0 < d2 / d1 < 5.0


def test_selective_accumulation_transverse_leakage_quadratic():
    # after an x block, sensitivity to By and Bz is O((B tau)^2)
    jz = op(DIMS.N, "z")

    def leakage(tau):
        pairs = int(round(1.0 / (2 * tau)))
        base = evolve_exact(DIMS, FieldVector(4.0, 0.0, 0.0), [DDSchedule("x", pairs, tau)], "scs")
        bumped = evolve_exact(DIMS, FieldVector(4.0, 3.0, 2.5), [DDSchedule("x", pairs, tau)], "scs")
        return abs(expectation(bumped, jz) - expectation(base, jz))

    l1, l2 = leakage(5e-4), leakage(1e-3)
    assert l2 / l1 == pytest.approx(4.0, rel=0.35)


def test_exact_block_matches_effective_block():
    # spacing ratio 0.002 of the block keeps the x block faithful
    tau, pairs = 0.004, 250
    out = evolve_exact(DIMS, FIELD, [DDSchedule("x", pairs, tau)], "scs")
    eff = effective(scs_state(DIMS), [("x", 2 * pairs * tau, FIELD.Bx)])
    assert fidelity(out, eff) >= 0.999


def test_three_blocks_match_effective_at_fine_spacing():
    tau, pairs = 0.0004, 2500
    scheds = [DDSchedule(ax, pairs, tau) for ax in ("z", "y", "x")]
    out = evolve_exact(DIMS, FIELD, scheds, "scs")
    eff = effective(scs_state(DIMS),
                    [(ax, 2.0, FIELD.coupling(ax)) for ax in ("z", "y", "x")])
    assert fidelity(out, eff) >= 0.9999


def test_effective_segment_on_eigenstate_is_phase():
    s = scs_state(DIMS)
    out = effective(s, [("z", 1.3, 2.0)])
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_effective_x_segment_oscillates_at_coupling_frequency():
    jz = op(DIMS.N, "z")
    for t in (0.3, 0.8, 1.0):
        out = effective(scs_state(DIMS), [("x", t, 2.0)])
        assert expectation(out, jz) == pytest.approx(5 * np.cos(2 * t), abs=1e-10)


def test_free_step_uses_gamma():
    # the effective free step of a chain rotates by gamma * B_axis * T
    field = FieldVector(1, 2, 3, gamma=2.0)
    cfg = SchemeConfig("parallel", "scs", DIMS, field, (0.5, 0.5, 0.5))
    free = effective(scs_state(DIMS), [("y", 0.5, 4.0)])
    expected = dense_step(DIMS.N, "rot", "y", -np.pi / 2, free.amplitudes)
    assert np.max(np.abs(final_state(cfg, "y").amplitudes - expected)) < 1e-13
    doubled = SchemeConfig("parallel", "scs", DIMS, FieldVector(2, 4, 6), (0.5, 0.5, 0.5))
    assert np.allclose(final_state(doubled, "y").amplitudes, expected, rtol=0, atol=1e-13)


def test_alternating_and_identical_agree_without_noise():
    # exact pi pulses make the two modes equal up to a global phase,
    # because the inner pulses differ by e^{2 i pi J} = +-identity
    for N in (7, 10):
        dims = EnsembleDims(N)
        states = [evolve_exact(dims, FIELD, [DDSchedule("y", 125, 2e-3, mode)], "scs")
                  for mode in ("alternating", "identical")]
        assert fidelity(*states) == pytest.approx(1.0, abs=1e-12)


def test_identical_mode_converges_to_effective_as_tau_shrinks():
    def gap(tau):
        pairs = int(round(0.5 / (2 * tau)))
        out = evolve_exact(DIMS, FIELD, [DDSchedule("y", pairs, tau, "identical")], "scs")
        eff = effective(scs_state(DIMS), [("y", 0.5, FIELD.By)])
        return 1.0 - fidelity(out, eff)

    assert gap(2e-4) < gap(2e-3) < gap(8e-3)
    assert gap(2e-4) < 1e-4


def test_norm_preserved_over_many_pairs():
    # 10^4 pairs in closed form, applied raw and never renormalized
    sched = DDSchedule("x", 10000, 1e-4)
    u = spin._pulse_block(FIELD, sched.axis, sched.pairs, sched.tau, sched.mode)
    assert abs(abs(u[0]) ** 2 + abs(u[1]) ** 2 - 1.0) < 1e-15
    for probe in ("scs", "ghz"):
        assert abs(np.linalg.norm(probe_image(DIMS, probe, [u])[0]) - 1.0) < 1e-10


def test_fine_spacing_block_costs_no_per_pair_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-pair tables built for an exact block")

    monkeypatch.setattr(pulses, "_angle_table", refuse)
    sched = DDSchedule("x", 10**6, 1e-6)
    start = time.perf_counter()
    out = evolve_exact(DIMS, FIELD, [sched], "scs")
    assert time.perf_counter() - start < 1.0
    eff = effective(scs_state(DIMS), [("x", sched.duration, FIELD.Bx)])
    assert fidelity(out, eff) >= 1.0 - 1e-9


def jz_and_overlap_gap(psi, reference, dims):
    """|<Jz>(psi) - <Jz>(reference)| and 1 - |<reference|psi>|^2, both normalized."""
    psi, reference = psi / np.linalg.norm(psi), reference / np.linalg.norm(reference)
    jz = [dims.m_values @ np.abs(v) ** 2 for v in (psi, reference)]
    return abs(jz[0] - jz[1]), 1.0 - abs(np.vdot(reference, psi)) ** 2


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 20),
       mode=st.sampled_from(["alternating", "identical"]),
       blocks=st.lists(st.tuples(st.sampled_from(AXES), st.integers(1, 300),
                                 st.floats(1e-4, 0.1)), min_size=1, max_size=3),
       field=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
       gamma=st.sampled_from([1.0, 2.5]),
       ghz=st.booleans())
def test_pulse_blocks_match_pair_loop(n, mode, blocks, field, gamma, ghz):
    dims, fv = EnsembleDims(n), FieldVector(*field, gamma=gamma)
    scheds = [DDSchedule(ax, pairs, tau, mode) for ax, pairs, tau in blocks]
    probe = "ghz" if ghz else "scs"
    start = (ghz_state if ghz else scs_state)(dims).amplitudes
    states = list(pair_loop(start, dims, fv, scheds, _angle_table(scheds)[:, :, 0]))
    # the first block on its own, then all blocks as one element
    for upto, state in ((1, states[scheds[0].pairs - 1]), (len(scheds), states[-1])):
        jz_gap, overlap_gap = jz_and_overlap_gap(
            evolve_exact(dims, fv, scheds[:upto], probe).amplitudes, state, dims)
        assert jz_gap <= 1e-11 * dims.J and overlap_gap <= 1e-11


def test_f1_rejects_bad_ratio():
    for ratio in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratios"):
            fidelity_f1(DIMS, FIELD, None, [2e-3, ratio])


def test_f1_curves_at_reference_ratios():
    curves = fidelity_f1(DIMS, FIELD, None, [0.0002, 0.002, 0.005])
    by_ratio = {c.tau_over_T: c for c in curves}
    assert by_ratio[0.0002].pairs_per_axis == 2500
    assert by_ratio[0.002].pairs_per_axis == 250
    assert by_ratio[0.005].pairs_per_axis == 100
    assert by_ratio[0.0002].minimum == pytest.approx(0.999979, abs=2e-6)
    assert by_ratio[0.002].minimum == pytest.approx(0.997869, abs=2e-6)
    assert by_ratio[0.005].minimum == pytest.approx(0.986664, abs=2e-6)
    # coarser spacing is strictly worse
    assert by_ratio[0.005].minimum < by_ratio[0.002].minimum < by_ratio[0.0002].minimum
    # time grid spans the three blocks
    assert by_ratio[0.002].times[-1] == pytest.approx(6.0)


def loop_f1(dims, field, pairs, tau, block_order=("z", "y", "x")):
    """F1 at every pair boundary from the pair-loop reference, the effective
    state stepped by one dense rotation per pair."""
    scheds = [DDSchedule(ax, pairs, tau) for ax in block_order]
    phi, values = scs_state(dims).amplitudes, []
    states = pair_loop(phi, dims, field, scheds, _angle_table(scheds)[:, :, 0])
    for sched, psi in zip(pair_plan(scheds), states):
        phi = dense_step(dims.N, "rot", sched.axis, field.coupling(sched.axis) * 2.0 * tau, phi)
        values.append(abs(np.vdot(psi, phi)) ** 2)
    return np.array(values)


def extended_f1(dims, field, pairs, tau, block_order=("z", "y", "x")):
    """The same F1 stepped in np.clongdouble, every unitary from a scaled and
    squared Taylor series; the pulses are exact half turns, as the program's."""
    ld = np.longdouble
    m = ld(dims.J) - np.arange(dims.dim, dtype=ld)
    up = np.diag(np.sqrt(ld(dims.J) * (ld(dims.J) + 1) - m[1:] * (m[1:] + 1)), 1)
    up = up.astype(np.clongdouble)
    j = {"x": (up + up.T) / 2, "y": (up - up.T) * ld(-0.5) * 1j,
         "z": np.diag(m).astype(np.clongdouble)}
    eye = np.eye(dims.dim, dtype=np.clongdouble)

    def expm(gen, t):
        """e^{-i t gen}."""
        a = gen * (ld(-t) * 1j)
        squarings = 4 + max(0, int(np.log2(float(np.max(np.sum(np.abs(a), axis=0))) + 1.0)))
        a = a / ld(2) ** squarings
        term = result = eye
        for k in range(1, 25):
            term = term @ a / ld(k)
            result = result + term
        for _ in range(squarings):
            result = result @ result
        return result

    u = expm(sum(j[ax] * ld(field.coupling(ax)) for ax in AXES), tau)
    pi = 4 * np.arctan(ld(1))
    psi, phi, values = eye[:, 0], eye[:, 0], []
    for ax in block_order:
        pair = expm(j[ax], pi) @ u @ expm(j[ax], -pi) @ u
        step = expm(j[ax], field.coupling(ax) * 2.0 * tau)
        for _ in range(pairs):
            psi, phi = pair @ psi, step @ phi
            values.append(abs(np.sum(psi.conj() * phi)) ** 2)
    return np.array(values, dtype=float)


def test_f1_matches_extended_precision_stepping():
    (curve,) = fidelity_f1(DIMS, FIELD, None, [0.0002])
    assert curve.pairs_per_axis == 2500
    assert np.max(np.abs(curve.values - extended_f1(DIMS, FIELD, 2500, curve.tau))) <= 1e-11
    # the pair loop is itself about 2e-11 off the extended-precision values
    assert np.max(np.abs(curve.values - loop_f1(DIMS, FIELD, 2500, curve.tau))) <= 1e-10


def test_f1_explicit_pair_count_override():
    (curve,) = fidelity_f1(DIMS, FIELD, 50, [0.002])
    assert curve.pairs_per_axis == 50
    assert len(curve.times) == 150


def test_f2_zero_noise_is_unity():
    scheds = [DDSchedule("x", 200, 1e-3)]
    res = fidelity_f2(DIMS, FIELD, scheds, NoiseModel(eta=0.0, trials=3, seed=1))
    assert np.allclose(res.mean, 1.0, atol=1e-12)
    assert np.allclose(res.std, 0.0, atol=1e-12)


def test_f2_requires_schedules():
    with pytest.raises(ValueError):
        fidelity_f2(DIMS, FIELD, [], NoiseModel(eta=0.1))


def test_f2_deterministic_for_fixed_seed():
    scheds = [DDSchedule("z", 100, 1e-3)]
    noise = NoiseModel(eta=0.06 * np.pi, trials=4, seed=11)
    a = fidelity_f2(DIMS, FIELD, scheds, noise)
    b = fidelity_f2(DIMS, FIELD, scheds, noise)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.trial_minima, b.trial_minima)


def test_f2_paired_errors_cancel_at_zero_field():
    # with a shared draw per pair the alternating pulses undo each other exactly
    scheds = [DDSchedule("x", 100, 1e-3)]
    noise = NoiseModel(eta=0.3, trials=2, seed=3, paired_error=True)
    res = fidelity_f2(DIMS, FieldVector(0, 0, 0), scheds, noise)
    assert np.all(res.mean > 1.0 - 1e-12)


def test_f2_reference_scenario_alternating_beats_identical():
    results = {}
    for mode in ("alternating", "identical"):
        scheds = [DDSchedule(ax, 1000, 1e-3, mode) for ax in ("z", "y", "x")]
        noise = NoiseModel(eta=0.06 * np.pi, trials=20, seed=7, paired_error=True)
        results[mode] = fidelity_f2(DIMS, FIELD, scheds, noise)
    alt, ident = results["alternating"], results["identical"]
    assert alt.mean_trajectory_minimum == pytest.approx(0.993766, abs=2e-5)
    assert alt.mean_trajectory_minimum >= 0.99
    assert ident.mean_trajectory_minimum < 0.01
    wins = np.sum(alt.trial_minima >= ident.trial_minima)
    assert wins == 20


def scalar_f2(dims, field, schedules, noise):
    """Per-trial F2 oracle: one reference pass, then one scalar pass per
    trial drawing its errors pulse by pulse from the (seed, k) stream."""
    def trajectory(rng):
        psi, states = scs_state(dims).amplitudes, []
        for sched in schedules:
            u_free = dense_step(dims.N, "rot", field, sched.tau)
            for _ in range(sched.pairs):
                if rng is None:
                    d1 = d2 = 0.0
                elif noise.paired_error:
                    d1 = d2 = rng.uniform(-noise.eta, noise.eta)
                else:
                    d1 = rng.uniform(-noise.eta, noise.eta)
                    d2 = rng.uniform(-noise.eta, noise.eta)
                first = -(np.pi + d1) if sched.mode == "alternating" else np.pi + d1
                psi = dense_step(dims.N, "rot", sched.axis, first, u_free @ psi)
                psi = dense_step(dims.N, "rot", sched.axis, np.pi + d2, u_free @ psi)
                states.append(psi)
        return states

    reference = trajectory(None)
    table = np.empty((noise.trials, len(reference)))
    for k in range(noise.trials):
        noisy = trajectory(np.random.default_rng([noise.seed, k]))
        for i, (ref, psi) in enumerate(zip(reference, noisy)):
            overlap = abs(np.vdot(ref, psi)) ** 2
            table[k, i] = overlap / (np.vdot(ref, ref).real * np.vdot(psi, psi).real)
    return table.mean(axis=0), table.std(axis=0), table.min(axis=1)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 12),
       mode=st.sampled_from(["alternating", "identical"]),
       paired=st.booleans(),
       eta=st.floats(0.0, 0.5),
       trials=st.integers(1, 5),
       blocks=st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1e-3, 0.01, 0.1])),
                       min_size=1, max_size=3),
       field=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
       seed=st.integers(0, 2**16))
def test_f2_block_matches_per_trial_oracle(n, mode, paired, eta, trials, blocks, field,
                                          seed):
    dims, fv = EnsembleDims(n), FieldVector(*field)
    scheds = [DDSchedule(ax, pairs, tau, mode) for ax, (pairs, tau) in zip("zyx", blocks)]
    noise = NoiseModel(eta=eta, trials=trials, seed=seed, paired_error=paired)
    res = fidelity_f2(dims, fv, scheds, noise)
    mean, std, minima = scalar_f2(dims, fv, scheds, noise)
    assert res.times.size == sum(pairs for pairs, _ in blocks)
    assert np.max(np.abs(res.mean - mean)) <= 1e-12
    assert np.max(np.abs(res.std - std)) <= 1e-12
    assert np.max(np.abs(res.trial_minima - minima)) <= 1e-12


def test_f2_runs_reference_and_trials_in_one_block_pass(monkeypatch):
    # per block one log-depth scan over its pairs, every step as wide as
    # 1 + trials, one product with the blocks before it, then the reference
    # column's inverse against the trials for the overlaps
    widths, overlaps = [], []
    compose, scs_fidelity = pulses._compose, pulses._scs_fidelity

    def counted_compose(u, v):
        widths.append(np.shape(u[0]))
        return compose(u, v)

    def counted_fidelity(n, u, v):
        overlaps.append((np.shape(u[0]), np.shape(v[0])))
        return scs_fidelity(n, u, v)

    monkeypatch.setattr(pulses, "_compose", counted_compose)
    monkeypatch.setattr(pulses, "_scs_fidelity", counted_fidelity)
    scheds = [DDSchedule(ax, 20, 1e-3) for ax in "zyx"]
    fidelity_f2(DIMS, FIELD, scheds, NoiseModel(eta=0.1, trials=4, seed=2))
    assert widths == 3 * ([(20 - shift, 5) for shift in (1, 2, 4, 8, 16)] + [(20, 5), (20, 1)])
    assert overlaps == 3 * [((20, 1), (20, 4))]
    widths.clear(), overlaps.clear()
    res = fidelity_f2(DIMS, FIELD, scheds, NoiseModel(eta=0.0, trials=4, seed=2))
    assert widths == [] and overlaps == []
    assert np.all(res.mean == 1.0) and np.all(res.std == 0.0)
    assert np.all(res.trial_minima == 1.0)


def pair_loop_f2(dims, field, schedules, noise, probe=scs_state):
    """F2 table (trials, pairs) from one `pair_loop` pass per column of the
    angle table, column 0 being the reference."""
    angles = _angle_table(schedules, noise)
    runs = [np.array(list(pair_loop(probe(dims).amplitudes, dims, field, schedules,
                                    angles[:, :, k])))
            for k in range(angles.shape[2])]
    reference = runs[0] / np.linalg.norm(runs[0], axis=1, keepdims=True)
    table = np.empty((noise.trials, len(reference)))
    for k, run in enumerate(runs[1:]):
        run = run / np.linalg.norm(run, axis=1, keepdims=True)
        table[k] = np.abs(np.sum(reference.conj() * run, axis=1)) ** 2
    return table


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 12),
       mode=st.sampled_from(["alternating", "identical"]),
       paired=st.booleans(),
       eta=st.floats(0.01, 0.5),
       pairs=st.integers(1, 12),
       tau=st.floats(1e-3, 0.1),
       order=st.permutations(AXES),
       field=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
       gamma=st.sampled_from([1.0, 2.5]),
       seed=st.integers(0, 2**16))
def test_su2_blocks_match_the_dense_pair_loop(n, mode, paired, eta, pairs, tau, order,
                                              field, gamma, seed):
    dims, fv = EnsembleDims(n), FieldVector(*field, gamma=gamma)
    # F1 (alternating by definition) against the per-pair loop
    (curve,) = fidelity_f1(dims, fv, pairs, [tau / 2.0], order)
    assert np.max(np.abs(curve.values - loop_f1(dims, fv, pairs, tau, order))) <= 1e-12
    # F2 with pulse errors against one loop pass per column
    scheds = [DDSchedule(ax, pairs, tau, mode) for ax in order]
    noise = NoiseModel(eta=eta, trials=3, seed=seed, paired_error=paired)
    table = pair_loop_f2(dims, fv, scheds, noise)
    res = fidelity_f2(dims, fv, scheds, noise)
    assert np.max(np.abs(res.mean - table.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(res.trial_minima - table.min(axis=1))) <= 1e-12
    # exact evolution of both probes, block by block
    for probe, state in (("scs", scs_state(dims)), ("ghz", ghz_state(dims))):
        states = list(pair_loop(state.amplitudes, dims, fv, scheds,
                                _angle_table(scheds)[:, :, 0]))
        for k in range(1, len(scheds) + 1):
            got = evolve_exact(dims, fv, scheds[:k], probe).amplitudes
            want = states[k * pairs - 1]
            assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-11


def test_f2_chunks_of_pairs_match_whole_blocks(monkeypatch):
    scheds = [DDSchedule(ax, pairs, 2e-3, "identical") for ax, pairs in zip("zyx", (13, 1, 30))]
    noise = NoiseModel(eta=0.3, trials=4, seed=5)
    whole = fidelity_f2(DIMS, FIELD, scheds, noise)
    for entries in (1, 7, 16, 64):  # 1, 1, 3 and 12 pairs per chunk
        monkeypatch.setattr(pulses, "_F2_CHUNK", entries)
        res = fidelity_f2(DIMS, FIELD, scheds, noise)
        assert np.max(np.abs(res.mean - whole.mean)) <= 1e-13
        assert np.max(np.abs(res.trial_minima - whole.trial_minima)) <= 1e-13
    table = pair_loop_f2(DIMS, FIELD, scheds, noise)
    assert np.max(np.abs(res.mean - table.mean(axis=0))) <= 1e-12


@pytest.mark.parametrize("n", [2, 7, 40])
def test_product_probe_fidelities_are_the_single_spin_ones_to_the_nth(n):
    # |J, J> is a product state, so F_N = F_1^N; F_1 from the dense N = 1 loop
    one, dims = EnsembleDims(1), EnsembleDims(n)
    (curve,) = fidelity_f1(dims, FIELD, 30, [5e-3])
    f1_one = loop_f1(one, FIELD, 30, curve.tau)
    assert np.max(np.abs(curve.values - f1_one ** n)) <= 1e-12 * n
    scheds = [DDSchedule(ax, 25, 4e-3, mode) for ax, mode in
              zip("zyx", ("alternating", "identical", "alternating"))]
    noise = NoiseModel(eta=0.2, trials=3, seed=n)
    res = fidelity_f2(dims, FIELD, scheds, noise)
    f2_one = pair_loop_f2(one, FIELD, scheds, noise)
    assert np.max(np.abs(res.mean - (f2_one ** n).mean(axis=0))) <= 1e-12 * n


@pytest.mark.parametrize("n", [9, 10])
def test_zero_field_pulse_pairs_are_plus_or_minus_one(n):
    # with no field a pair is H H^-1 = 1 (alternating) or H^2 = -1 (identical),
    # H = -i sigma_a the exact half turn, whose spin-J image is (-1)^N.  The
    # pulses are exact, so no power of a pair drifts.
    dims, zero = EnsembleDims(n), FieldVector(0.0, 0.0, 0.0)
    psi = ghz_state(dims).amplitudes
    for axis in AXES:
        turn = spin._HALF_TURNS[axis]
        for mode, sign in (("alternating", 1.0), ("identical", -1.0)):
            first = (-turn[0], -turn[1]) if sign > 0 else turn
            assert spin._pulse_pair(zero, 1e-3, first, turn) == (sign, 0.0)
            for pairs in (1, 7, 10**6):
                assert spin._pulse_block(zero, axis, pairs, 1e-3, mode) == (sign ** pairs, 0.0)
                out = evolve_exact(dims, zero, [DDSchedule(axis, pairs, 1e-3, mode)], "ghz")
                want = sign ** (pairs * n) * psi
                assert np.max(np.abs(out.amplitudes - want)) <= 1e-13
    # the alternating pair is the identity exactly, and so are its powers
    assert spin._pulse_block(zero, "y", 12345, 1e-3, "alternating") == (1.0, 0.0)
