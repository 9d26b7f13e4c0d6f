"""Pulse-sequence evolution, the effective-rotation limit, and the F1/F2 fidelities."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecmag import pulses
from vecmag.spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    ghz_state,
    propagate,
    scs_state,
)
from vecmag.pulses import (
    DDSchedule,
    NoiseModel,
    _angle_table,
    _block_frame,
    _exact_pair,
    _f2_table,
    _pair_plan,
    _powered,
    _stepped,
    evolve_exact,
    fidelity_f1,
    fidelity_f2,
)
from vecmag.schemes import SchemeConfig, final_state
from vecmag.validation import _collective_operator, _field_hamiltonian, _unitary_from_generator

DIMS = EnsembleDims(10)
FIELD = FieldVector(4.0, 5.0, 6.0)


def expectation(state, op):
    """<psi| op |psi> of a Hermitian operator."""
    return np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real


def fidelity(a, b):
    """|<a|b>|^2."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def pair_loop(psi, dims, field, schedules, angles):
    """The pair-by-pair reference: a dense free step and two kernel pulses
    per pair; yields the raw state after every pair.  angles[i] holds pair
    i's (first, second) angles."""
    h_b = _field_hamiltonian(dims, field)
    u_free = {t: _unitary_from_generator(h_b, t) for t in {s.tau for s in schedules}}
    for sched, (a_first, a_second) in zip(_pair_plan(schedules), angles):
        psi = propagate(dims, sched.axis, a_first, u_free[sched.tau] @ psi)
        psi = propagate(dims, sched.axis, a_second, u_free[sched.tau] @ psi)
        yield psi


def block_pair(dims, field, sched):
    """(B, P): the block's eigenbasis and its exact pair unitary."""
    basis, ev, w = _block_frame(dims, field, sched)
    return basis, _exact_pair(w, ev, sched.mode)


def effective(state, blocks):
    """Free evolution e^{-i coupling J_axis duration} for each block in order."""
    psi = state.amplitudes
    for axis, duration, coupling in blocks:
        psi = propagate(state.dims, axis, coupling * duration, psi)
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
    assert DDSchedule("x", 250, 0.004).duration == pytest.approx(2.0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(eta=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(eta=0.1, trials=0)


def test_empty_schedule_returns_input():
    s = ghz_state(DIMS)
    assert evolve_exact(s, FIELD, []) is s


def test_zero_field_pulse_pairs_cancel():
    s = scs_state(DIMS)
    for mode in ("alternating", "identical"):
        out = evolve_exact(s, FieldVector(0, 0, 0),
                           [DDSchedule("x", 50, 1e-3, mode)])
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_single_pair_first_order_expansion():
    # one alternating x pair acts as 1 - 2i Bx Jx tau + O(tau^2)
    jx = _collective_operator(DIMS, "x").matrix
    psi0 = scs_state(DIMS).amplitudes

    def defect(tau):
        out = evolve_exact(scs_state(DIMS), FIELD, [DDSchedule("x", 1, tau)])
        approx = psi0 - 2j * FIELD.Bx * tau * (jx @ psi0)
        return np.linalg.norm(out.amplitudes - approx / np.linalg.norm(approx))

    d1, d2 = defect(1e-6), defect(2e-6)
    assert d1 < 1e-8
    assert 3.0 < d2 / d1 < 5.0


def test_selective_accumulation_transverse_leakage_quadratic():
    # after an x block, sensitivity to By and Bz is O((B tau)^2)
    jz = _collective_operator(DIMS, "z")

    def leakage(tau):
        pairs = int(round(1.0 / (2 * tau)))
        base = evolve_exact(scs_state(DIMS), FieldVector(4.0, 0.0, 0.0),
                            [DDSchedule("x", pairs, tau)])
        bumped = evolve_exact(scs_state(DIMS), FieldVector(4.0, 3.0, 2.5),
                              [DDSchedule("x", pairs, tau)])
        return abs(expectation(bumped, jz) - expectation(base, jz))

    l1, l2 = leakage(5e-4), leakage(1e-3)
    assert l2 / l1 == pytest.approx(4.0, rel=0.35)


def test_exact_block_matches_effective_block():
    # spacing ratio 0.002 of the block keeps the x block faithful
    tau, pairs = 0.004, 250
    out = evolve_exact(scs_state(DIMS), FIELD, [DDSchedule("x", pairs, tau)])
    eff = effective(scs_state(DIMS), [("x", 2 * pairs * tau, FIELD.Bx)])
    assert fidelity(out, eff) >= 0.999


def test_three_blocks_match_effective_at_fine_spacing():
    tau, pairs = 0.0004, 2500
    scheds = [DDSchedule(ax, pairs, tau) for ax in ("z", "y", "x")]
    out = evolve_exact(scs_state(DIMS), FIELD, scheds)
    eff = effective(scs_state(DIMS),
                    [(ax, 2.0, FIELD.coupling(ax)) for ax in ("z", "y", "x")])
    assert fidelity(out, eff) >= 0.9999


def test_effective_segment_on_eigenstate_is_phase():
    s = scs_state(DIMS)
    out = effective(s, [("z", 1.3, 2.0)])
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_effective_x_segment_oscillates_at_coupling_frequency():
    jz = _collective_operator(DIMS, "z")
    for t in (0.3, 0.8, 1.0):
        out = effective(scs_state(DIMS), [("x", t, 2.0)])
        assert expectation(out, jz) == pytest.approx(5 * np.cos(2 * t), abs=1e-10)


def test_free_step_uses_gamma():
    # the effective free step of a chain rotates by gamma * B_axis * T
    field = FieldVector(1, 2, 3, gamma=2.0)
    cfg = SchemeConfig("parallel", "scs", DIMS, field, (0.5, 0.5, 0.5))
    free = effective(scs_state(DIMS), [("y", 0.5, 4.0)])
    expected = propagate(DIMS, "y", -np.pi / 2, free.amplitudes)
    assert np.max(np.abs(final_state(cfg, "y").amplitudes - expected)) < 1e-13
    doubled = SchemeConfig("parallel", "scs", DIMS, FieldVector(2, 4, 6), (0.5, 0.5, 0.5))
    assert np.allclose(final_state(doubled, "y").amplitudes, expected, rtol=0, atol=1e-13)


def test_alternating_and_identical_agree_without_noise():
    # exact pi pulses make the two modes equal up to a global phase,
    # because the inner pulses differ by e^{2 i pi J} = +-identity
    for N in (7, 10):
        dims = EnsembleDims(N)
        states = [evolve_exact(scs_state(dims), FIELD, [DDSchedule("y", 125, 2e-3, mode)])
                  for mode in ("alternating", "identical")]
        assert fidelity(*states) == pytest.approx(1.0, abs=1e-12)


def test_identical_mode_converges_to_effective_as_tau_shrinks():
    def gap(tau):
        pairs = int(round(0.5 / (2 * tau)))
        out = evolve_exact(scs_state(DIMS), FIELD,
                           [DDSchedule("y", pairs, tau, "identical")])
        eff = effective(scs_state(DIMS), [("y", 0.5, FIELD.By)])
        return 1.0 - fidelity(out, eff)

    assert gap(2e-4) < gap(2e-3) < gap(8e-3)
    assert gap(2e-4) < 1e-4


def test_norm_preserved_over_many_pairs():
    # 10^4 raw pairs, stepped and powered, never renormalized
    sched = DDSchedule("x", 10000, 1e-4)
    basis, pair = block_pair(DIMS, FIELD, sched)
    c = basis.conj().T @ scs_state(DIMS).amplitudes
    for branch in (_stepped, _powered):
        assert abs(np.linalg.norm(basis @ branch(pair, c, sched.pairs)) - 1.0) < 1e-10


def test_fine_spacing_block_costs_no_per_pair_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-pair tables built for an exact block")

    monkeypatch.setattr(pulses, "_pair_plan", refuse)
    monkeypatch.setattr(pulses, "_angle_table", refuse)
    sched = DDSchedule("x", 10**6, 1e-6)
    start = time.perf_counter()
    out = evolve_exact(scs_state(DIMS), FIELD, [sched])
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
    probe = (ghz_state if ghz else scs_state)(dims)
    states = list(pair_loop(probe.amplitudes, dims, fv, scheds, _angle_table(scheds)[:, :, 0]))
    # each branch of the first block on its own
    basis, pair = block_pair(dims, fv, scheds[0])
    c = basis.conj().T @ probe.amplitudes
    for branch in (_powered, _stepped):
        jz_gap, overlap_gap = jz_and_overlap_gap(basis @ branch(pair, c, scheds[0].pairs),
                                                 states[scheds[0].pairs - 1], dims)
        assert jz_gap <= 1e-11 * dims.J and overlap_gap <= 1e-11
    # all blocks through the cost rule
    jz_gap, overlap_gap = jz_and_overlap_gap(evolve_exact(probe, fv, scheds).amplitudes,
                                             states[-1], dims)
    assert jz_gap <= 1e-11 * dims.J and overlap_gap <= 1e-11


@pytest.mark.parametrize("n", [10, 30])
def test_cost_rule_branches_at_the_crossover(monkeypatch, n):
    dims, field = EnsembleDims(n), FieldVector(1.3, -2.2, 0.7)
    # the smallest pair count from which the rule selects powering
    crossover = next(L for L in range(2, 10**4) if pulses._powering_pays(dims.dim, L))
    assert 2 < crossover and all(pulses._powering_pays(dims.dim, L)
                                 for L in range(crossover, 4 * crossover))
    scheds = [DDSchedule("y", crossover, 3e-3)]
    states = list(pair_loop(scs_state(dims).amplitudes, dims, field, scheds,
                            _angle_table(scheds)[:, :, 0]))
    taken = []
    for name in ("_powered", "_stepped"):
        branch = getattr(pulses, name)
        monkeypatch.setattr(pulses, name, lambda *args, name=name, branch=branch:
                            taken.append(name) or branch(*args))
    basis, pair = block_pair(dims, field, scheds[0])
    c = basis.conj().T @ scs_state(dims).amplitudes
    for pairs, expected in ((crossover - 1, "_stepped"), (crossover, "_powered")):
        taken.clear()
        out = evolve_exact(scs_state(dims), field, [DDSchedule("y", pairs, 3e-3)])
        assert taken == [expected]
        for psi in (out.amplitudes, basis @ _powered(pair, c, pairs),
                    basis @ _stepped(pair, c, pairs)):
            jz_gap, overlap_gap = jz_and_overlap_gap(psi, states[pairs - 1], dims)
            assert jz_gap <= 1e-11 * dims.J and overlap_gap <= 1e-11


def test_f1_rejects_bad_ratio():
    with pytest.raises(ValueError):
        fidelity_f1(DIMS, FIELD, None, [0.0])


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
    state stepped by one kernel rotation per pair."""
    scheds = [DDSchedule(ax, pairs, tau) for ax in block_order]
    phi, values = scs_state(dims).amplitudes, []
    states = pair_loop(phi, dims, field, scheds, _angle_table(scheds)[:, :, 0])
    for sched, psi in zip(_pair_plan(scheds), states):
        phi = propagate(dims, sched.axis, field.coupling(sched.axis) * 2.0 * tau, phi)
        values.append(abs(np.vdot(psi, phi)) ** 2)
    return np.array(values)


def extended_f1(dims, field, pairs, tau, block_order=("z", "y", "x")):
    """The same F1 stepped in np.clongdouble, every unitary from a scaled and
    squared Taylor series; the pulses turn by the program's angle np.pi."""
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
    psi, phi, values = eye[:, 0], eye[:, 0], []
    for ax in block_order:
        pair = expm(j[ax], np.pi) @ u @ expm(j[ax], -np.pi) @ u
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
            u_free = _unitary_from_generator(_field_hamiltonian(dims, field), sched.tau)
            for _ in range(sched.pairs):
                if rng is None:
                    d1 = d2 = 0.0
                elif noise.paired_error:
                    d1 = d2 = rng.uniform(-noise.eta, noise.eta)
                else:
                    d1 = rng.uniform(-noise.eta, noise.eta)
                    d2 = rng.uniform(-noise.eta, noise.eta)
                first = -(np.pi + d1) if sched.mode == "alternating" else np.pi + d1
                psi = propagate(dims, sched.axis, first, u_free @ psi)
                psi = propagate(dims, sched.axis, np.pi + d2, u_free @ psi)
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


@pytest.mark.parametrize("n", [1, 2, 9, 10, 12, 31])
def test_f2_phases_mirror_as_exact_conjugates(n):
    # _f2_table exponentiates the first half of the J_a eigenvalues and takes
    # the rest as conjugates; that is the full exp bit for bit because ev is
    # exactly antisymmetric and numpy's complex exp is odd in the phase
    dims = EnsembleDims(n)
    scheds = [DDSchedule(ax, 200, 1e-3, mode) for ax, mode in
              zip("zyx", ["alternating", "identical", "alternating"])]
    angles = _angle_table(scheds, NoiseModel(eta=0.4, trials=5, seed=n))
    for ev in (dims.m_values, dims.m_values[::-1]):
        assert np.array_equal(ev[::-1], -ev)
        full = np.exp(-1j * angles[:, :, None, :] * ev[:, None])
        upper = full[:, :, dims.dim - dims.dim // 2:]
        mirrored = full[:, :, dims.dim // 2 - 1::-1].conj()
        assert np.array_equal(upper.view(np.uint64), mirrored.view(np.uint64))


def test_f2_runs_reference_and_trials_in_one_block_pass(monkeypatch):
    passes = []

    def counted(psi, *args):
        passes.append(psi.shape)
        return _f2_table(psi, *args)

    monkeypatch.setattr(pulses, "_f2_table", counted)
    scheds = [DDSchedule(ax, 20, 1e-3) for ax in "zyx"]
    fidelity_f2(DIMS, FIELD, scheds, NoiseModel(eta=0.1, trials=4, seed=2))
    assert passes == [(DIMS.dim, 5)]
    passes.clear()
    res = fidelity_f2(DIMS, FIELD, scheds, NoiseModel(eta=0.0, trials=4, seed=2))
    assert passes == []
    assert np.all(res.mean == 1.0) and np.all(res.std == 0.0)
    assert np.all(res.trial_minima == 1.0)
