"""End-to-end checks that re-derive the headline claims at run time.

Each criterion_* function runs one self-contained validation and reports a
CriterionResult; run_all collects them.  The checks pit closed forms against
the state-vector simulator, numeric derivatives against printed precision
formulas, and full pipelines against their stated resolution targets, so a
pass means the analytic layer and the simulation layer agree independently.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .estimation import minimized_delta_b, recover_from_trace, sample_signal, scaling_fit
from .pulses import DDSchedule, NoiseModel, evolve_exact, fidelity_f1, fidelity_f2
from .schemes import (
    SCHEMES,
    SchemeConfig,
    _chain,
    _tangent,
    analytic_jz,
    analytic_jz2,
    final_state,
    jz_moments,
    precision_report,
)
from .spin import (
    AXES,
    EnsembleDims,
    FieldVector,
    _compose,
    _free_su2,
    _frozen,
    _pulse_block,
    _su2,
    _tables,
    _twist_terms,
    probe_image,
)

DEFAULT_SEED = 1234

# field-independent precision floors for the one-axis scheme
SQL = "1/(sqrt(N) T)"
HEISENBERG = "1/(N T)"


CRITERION_NAMES = (
    "parallel-readout closed forms",
    "parallel precision constants",
    "qfi oracle agreement",
    "interleaved closed forms",
    "entangled-probe qfi variant",
    "pulse-spacing validity",
    "pulse-error robustness",
    "spectral field recovery",
    "precision scaling exponents",
    "algebra invariants",
)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance check."""

    index: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index:2d} ({self.name}): {self.detail}"


def _result(index: int, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(index, CRITERION_NAMES[index - 1], bool(passed), detail)


def _sequential(probe, field, durations=(1.0, 1.0, 1.0), n=10):
    return SchemeConfig("sequential", probe, EnsembleDims(n), field, durations)


def _parallel(probe, field, durations=(1.0, 1.0, 1.0), n=10):
    return SchemeConfig("parallel", probe, EnsembleDims(n), field, durations)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Parallel closed forms match the simulator to 1e-10 on random fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        field = FieldVector(*rng.uniform(0.0, math.pi / 2.0, 3))
        for probe in ("scs", "ghz"):
            cfg = _parallel(probe, field)
            for axis in AXES:
                jz, jz2 = jz_moments(final_state(cfg, axis))
                worst = max(worst,
                            abs(jz - analytic_jz(cfg, axis)),
                            abs(jz2 - analytic_jz2(cfg, axis)))
    return _result(1, worst <= 1e-10,
        f"max |closed form - simulator| = {worst:.2e} over 50 random fields, "
        f"both probes, all axes (N=10, T=1, tol 1e-10)")


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Parallel precision is field-independent: 1/(sqrt(N)T) and 1/(NT)."""
    rng = np.random.default_rng(seed + 1)
    fields = []
    while len(fields) < 5:
        b = rng.uniform(0.1, 1.3, 3)
        # stay away from the isolated slope zeros of cos(phi) and cos(10 phi)
        if np.all(np.abs(np.cos(b)) > 0.1) and np.all(np.abs(np.cos(10 * b)) > 0.1):
            fields.append(FieldVector(*b))
    worst = 0.0
    for field in fields:
        for durations in ((1.0, 1.0, 1.0), (0.8, 1.0, 1.25)):
            for probe, floor in (("scs", math.sqrt(10)), ("ghz", 10.0)):
                report = precision_report(_parallel(probe, field, durations))
                for entry, t_axis in zip(report.axes, durations):
                    expected = 1.0 / (floor * t_axis)
                    got = entry.delta_b_numeric
                    worst = max(worst, abs(got - expected) / expected)
    reference = precision_report(_parallel("ghz", fields[0])).axis("x").delta_b_numeric
    ok = worst <= 1e-6 and abs(reference - 0.1) <= 1e-9
    return _result(2, ok,
        f"max rel err vs {SQL} and {HEISENBERG} = {worst:.2e} over 5 fields x 2 "
        f"duration sets (tol 1e-6); entangled N=10, T=1 value = {reference:.12f}")


def criterion_3() -> CriterionResult:
    """Numeric QFI matches the closed forms on a 5x5x5 phase grid."""
    grid = np.linspace(0.0, math.pi / 2.0, 7)[1:-1]
    floor = 1e-6 * (10.0 * 1.0) ** 2
    worst, skipped = 0.0, 0
    for point in product(grid, repeat=3):
        for entry in precision_report(_sequential("scs", FieldVector(*point))).axes:
            expected = entry.qfi_analytic_main
            if expected < floor:
                skipped += 1
                continue
            worst = max(worst, abs(entry.qfi_numeric - expected) / expected)
    for g in grid:
        field = FieldVector(g, g, g)
        for probe in ("scs", "ghz"):
            for entry in precision_report(_parallel(probe, field)).axes:
                expected = entry.qfi_analytic_main
                worst = max(worst, abs(entry.qfi_numeric - expected) / expected)
    return _result(3, worst <= 1e-6,
        f"max rel err = {worst:.2e} over 125-point interleaved grid x 3 axes "
        f"plus parallel spot checks; {skipped} blind points excluded (tol 1e-6)")


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Interleaved closed forms and precision formulas track the simulator."""
    field = FieldVector(10.0, 6.0, 2.0)
    worst_moment = 0.0
    for k in range(64):
        t = (k + 1) * 12.8 / 64.0
        for probe in ("scs", "ghz"):
            cfg = _sequential(probe, field, (t, t, t))
            jz, jz2 = jz_moments(final_state(cfg))
            worst_moment = max(worst_moment,
                               abs(jz - analytic_jz(cfg)),
                               abs(jz2 - analytic_jz2(cfg)))
    rng = np.random.default_rng(seed + 2)
    worst_db, skipped = 0.0, 0
    for _ in range(8):
        f = FieldVector(*rng.uniform(0.15, 1.35, 3))
        for probe in ("scs", "ghz"):
            for entry in precision_report(_sequential(probe, f)).axes:
                formula = entry.delta_b_analytic
                if not math.isfinite(formula) or formula > 1e3:
                    skipped += 1  # blind spot or near-blind slope
                    continue
                worst_db = max(worst_db,
                               abs(entry.delta_b_numeric - formula) / formula)
    ok = worst_moment <= 1e-10 and worst_db <= 1e-6
    return _result(4, ok,
        f"moments: max err {worst_moment:.2e} on 64-point duration grid at "
        f"B=(10,6,2) (tol 1e-10); precision formulas: max rel err {worst_db:.2e} "
        f"over 8 random fields, {skipped} blind-spot axes skipped (tol 1e-6)")


def criterion_5() -> CriterionResult:
    """Exactly one of the two printed entangled-probe QFI forms is right."""
    floor = 1e-6 * (10.0 * 1.0) ** 2
    err = {"main": 0.0, "appendix": 0.0}
    for point in product((0.3, 0.75, 1.2), repeat=3):
        for entry in precision_report(_sequential("ghz", FieldVector(*point))).axes:
            main, appendix = entry.qfi_analytic_main, entry.qfi_analytic_appendix
            numeric = entry.qfi_numeric
            if max(main, appendix, numeric) < floor:
                continue
            scale = max(numeric, floor)
            err["main"] = max(err["main"], abs(main - numeric) / scale)
            err["appendix"] = max(err["appendix"], abs(appendix - numeric) / scale)
    agreeing = [name for name, e in err.items() if e <= 1e-6]
    ok = len(agreeing) == 1
    winner = agreeing[0] if ok else "none" if not agreeing else "both"
    return _result(5, ok,
        f"winner: {winner} variant (rel err {err['appendix']:.2e}; main variant "
        f"rel err {err['main']:.2e} over 27-point grid x 3 axes)")


def criterion_6() -> CriterionResult:
    """Pulsed evolution converges to the effective model as spacing shrinks."""
    curves = fidelity_f1(EnsembleDims(10), FieldVector(4.0, 5.0, 6.0), None,
                         [0.0002, 0.002, 0.005])
    by_ratio = {c.tau_over_T: c.minimum for c in curves}
    ok = (by_ratio[0.0002] >= 0.999 and by_ratio[0.002] >= 0.99
          and by_ratio[0.005] < by_ratio[0.002])
    return _result(6, ok,
        f"min F1 = {by_ratio[0.0002]:.6f} / {by_ratio[0.002]:.6f} / "
        f"{by_ratio[0.005]:.6f} at tau/T = 2e-4 / 2e-3 / 5e-3 "
        f"(need >= 0.999, >= 0.99, strictly decreasing)")


def criterion_7(seed: int = 7) -> CriterionResult:
    """Alternating pulse pairs survive rotation-angle errors; identical don't."""
    results = {}
    for mode in ("alternating", "identical"):
        schedules = [DDSchedule(ax, 1000, 1e-3, mode) for ax in ("z", "y", "x")]
        noise = NoiseModel(eta=0.06 * math.pi, trials=20, seed=seed,
                           paired_error=True)
        results[mode] = fidelity_f2(EnsembleDims(10), FieldVector(4.0, 5.0, 6.0),
                                    schedules, noise)
    alt, ident = results["alternating"], results["identical"]
    mean_f2 = alt.mean_trajectory_minimum
    wins = int(np.sum(alt.trial_minima >= ident.trial_minima))
    ok = mean_f2 >= 0.99 and wins >= 18
    return _result(7, ok,
        f"alternating mean F2 = {mean_f2:.6f} (need >= 0.99) at eta = 0.06 pi; "
        f"alternating >= identical in {wins}/20 paired-seed trials (need >= 18)")


def criterion_8() -> CriterionResult:
    """Both probes recover B=(10,6,2) from their spectra within resolution."""
    truth = (10.0, 6.0, 2.0)
    t_max, m = 12.8, 4096
    bin_width = 2.0 * math.pi / t_max
    details, ok = [], True
    spectra = {}
    for probe in ("scs", "ghz"):
        cfg = _sequential(probe, FieldVector(*truth))
        trace = sample_signal(cfg, t_max, m)
        recovered, _, peaks = recover_from_trace(trace, on_tie="positive")
        spectra[probe] = sorted(p.omega for p in peaks)
        tol = 2.0 * bin_width / trace.scale
        got = (recovered.bx, recovered.by, recovered.bz)
        err = max(abs(g - t) for g, t in zip(got, truth))
        signs_ok = all(math.copysign(1, g) == math.copysign(1, t)
                       for g, t in zip(got, truth))
        ok = ok and err <= tol and signs_ok
        details.append(f"{probe} max err {err:.4f} (tol {tol:.4f}, signs "
                       f"{'ok' if signs_ok else 'WRONG'})")
    ratio_dev = max(abs(g / 10.0 - s) for g, s in zip(spectra["ghz"], spectra["scs"]))
    ok = ok and ratio_dev < bin_width
    details.append(f"10x frequency check: max |w_ent/10 - w_scs| = "
                   f"{ratio_dev / bin_width:.3f} bins (need < 1)")
    return _result(8, ok, "; ".join(details))


def criterion_9() -> CriterionResult:
    """Minimized precision scales as N^-1/2 (SCS) and N^-1 (GHZ)."""
    ns = range(4, 41, 2)
    targets = (("scs", -0.5), ("ghz", -1.0))
    minima = {(probe, n): minimized_delta_b("sequential", probe, n)
              for n in ns for probe, _ in targets}
    details, ok = [], True
    for probe, target in targets:
        slopes = []
        for per_axis in zip(*(minima[probe, n] for n in ns)):
            fit = scaling_fit(zip(ns, per_axis))
            slopes.append(fit.slope)
            ok = ok and abs(fit.slope - target) <= 0.05 and fit.r_squared >= 0.999
        details.append(f"{probe} slopes ({', '.join(f'{s:.4f}' for s in slopes)}) "
                       f"target {target}")
    return _result(9, ok,
        "; ".join(details) + "; even N in [4, 40], r^2 >= 0.999 required")


# Criterion 10's dense reference: J_a and H_B as frozen Hermitian matrices, and
# one cached spectral basis per (N, generator) that every dense step, twist and
# pulse block is applied from.  J_z is diagonal and J_a^2 takes J_a's basis with
# squared eigenvalues, so neither is diagonalized.  Nothing else in the package
# builds these matrices.
_HERM_TOL = 1e-12


def _hermitian(N: int, mat, label: str) -> np.ndarray:
    """`mat` as a frozen complex generator on the Dicke space of N particles,
    checked to be (N + 1, N + 1) and Hermitian within _HERM_TOL."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (N + 1, N + 1):
        raise ValueError(f"generator {label!r} has shape {mat.shape}, expected ({N + 1}, {N + 1})")
    if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
        raise ValueError(f"generator {label!r} is not Hermitian within {_HERM_TOL}")
    return _frozen(mat)


@lru_cache(maxsize=32)
def _axis_matrix(N: int, axis: str) -> np.ndarray:
    """J_x = (J+ + J-)/2, J_y = (J+ - J-)/(2i) or J_z = diag(m), descending m."""
    up = np.diag(_tables(N).ladder, 1)
    if axis == "x":
        mat = (up + up.T) / 2.0
    elif axis == "y":
        mat = (up - up.T) / 2.0j
    elif axis == "z":
        mat = np.diag(_tables(N).m)
    else:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _hermitian(N, mat, f"J{axis}")


@lru_cache(maxsize=32)
def _spectral_basis(N: int, generator) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, V) with G = V diag(w) V^dagger, once per (N, generator): G is J_a for an
    axis a, or H_B = gamma (Bx Jx + By Jy + Bz Jz) for a FieldVector; V is None
    for the diagonal J_z."""
    if generator == "z":
        return EnsembleDims(N).m_values, None
    if isinstance(generator, str):
        mat = _axis_matrix(N, generator)
    else:
        mat = _hermitian(N, sum(generator.coupling(ax) * _axis_matrix(N, ax) for ax in AXES), "H_B")
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigendecomposition of {generator!r} failed (dim {N + 1}): {exc}") from exc
    return _frozen(w), _frozen(v)


def _dense_step(N: int, kind: str, generator, theta: float, psi=None) -> np.ndarray:
    """e^{-i theta G} ("rot") or e^{-i theta G^2} ("twist") on psi, a (dim,) vector or
    a (dim, k) block, or the dense unitary if psi is None, from G's `_spectral_basis`."""
    w, v = _spectral_basis(N, generator)
    phases = np.exp(-1j * theta * (w * w if kind == "twist" else w))
    if psi is None:
        return np.diag(phases) if v is None else (v * phases) @ v.conj().T
    phases = phases.reshape((-1,) + (1,) * (np.ndim(psi) - 1))
    if v is None:
        return phases * psi
    return v @ (phases * (v.T @ np.conj(psi)).conj())  # V^dagger psi without copying V


def _dense_pulse_block(N: int, field: FieldVector, axis: str, pairs: int, tau: float,
                       mode: str = "alternating") -> np.ndarray:
    """The dense unitary of `pairs` pulse pairs, each a free step of tau, a pi pulse
    about axis (-pi in alternating mode), a free step and a pi pulse."""
    free = _dense_step(N, "rot", field, tau)
    first = -math.pi if mode == "alternating" else math.pi
    pair = _dense_step(N, "rot", axis, math.pi, free @ _dense_step(N, "rot", axis, first, free))
    return np.linalg.matrix_power(pair, pairs)


def _dense_probe(dims: EnsembleDims, probe: str) -> np.ndarray:
    """The bare probe, e_0 (scs) or (e_0 + e_N)/sqrt(2) (ghz), built entry by entry."""
    psi = np.zeros(dims.dim, dtype=complex)
    psi[0] = 1.0
    if probe == "ghz":
        psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def _dense_chain(config: SchemeConfig, axis, literal: bool = False) -> np.ndarray:
    """The chain of `config` applied one dense step at a time to the probe vector:
    a (dim, 4) block whose columns 1-3 take, with effective evolution, each free
    step's tap -i gamma T_a J_a right after it."""
    dims = config.dims
    psi = np.zeros((dims.dim, 4), dtype=complex)
    psi[:, 0] = _dense_probe(dims, config.probe)
    for kind, step_axis, *angle in reversed(_chain(config, axis, literal)):
        if kind != "free":
            psi = _dense_step(dims.N, kind, step_axis, angle[0], psi)
        elif (t := config.duration(step_axis)) > 0.0 and config.evolution == "exact":
            pairs = max(1, round(t / (2.0 * config.tau)))  # alternating pairs re-timed to T
            psi = _dense_pulse_block(dims.N, config.field, step_axis, pairs, t / (2.0 * pairs)) @ psi
        elif t > 0.0:
            psi = _dense_step(dims.N, "rot", step_axis, config.field.coupling(step_axis) * t, psi)
            tap = _axis_matrix(dims.N, step_axis) @ psi[:, 0]
            psi[:, 1 + AXES.index(step_axis)] -= 1j * config.field.gamma * t * tap
    return psi


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Operator algebra and unitarity hold for every supported ensemble size.

    The spectral decompositions of the generators must be unitary, and the
    closed-form probe images (`probe_image`) of rotations, of the free step of
    exact pulsed evolution and of a pulse block must match them on both probes,
    as must the two images a twist after the block splits into.  Every chain's
    final state and tangent block must match the chain applied step by step
    with the dense unitaries (`_dense_chain`).
    """
    rng = np.random.default_rng(seed + 3)
    pulse_rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for n in (*range(1, 13), 20, 30):
        dims = EnsembleDims(n)
        ops = {ax: _axis_matrix(n, ax) for ax in AXES}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            comm = ops[a] @ ops[b] - ops[b] @ ops[a] - 1j * ops[c]
            worst = max(worst, np.max(np.abs(comm)))
        casimir = sum(ops[ax] @ ops[ax] for ax in AXES)
        target = dims.J * (dims.J + 1) * np.eye(dims.dim)
        worst = max(worst, np.max(np.abs(casimir - target)))
        field = FieldVector(*pulse_rng.uniform(-6.0, 6.0, 3), gamma=(1.0, 2.5)[n % 2])
        sched = DDSchedule(AXES[pulse_rng.integers(3)], int(pulse_rng.integers(2, 200)),
                           pulse_rng.uniform(1e-3, 0.1), ("alternating", "identical")[n % 2])
        block = _pulse_block(field, sched.axis, sched.pairs, sched.tau, sched.mode)
        dense = _dense_pulse_block(n, field, sched.axis, sched.pairs, sched.tau, sched.mode)
        rotations = [(AXES[rng.integers(3)], rng.uniform(-2 * math.pi, 2 * math.pi)) for _ in range(3)]
        images = [(_su2(axis, theta), _dense_step(n, "rot", axis, theta)) for axis, theta in rotations]
        images += [(_free_su2(field, sched.tau), _dense_step(n, "rot", field, sched.tau)), (block, dense)]
        worst = max(worst, *(np.max(np.abs(w.conj().T @ w - np.eye(dims.dim))) for _, w in images))
        for probe in ("scs", "ghz"):
            state = _dense_probe(dims, probe)
            for u, w in images:
                worst = max(worst, np.max(np.abs(probe_image(dims, probe, [u])[0] - w @ state)))
            for axis, theta in product(AXES, (math.pi / 2, -math.pi / 2)):
                halves = _twist_terms(n, axis, theta)  # a twist after the block splits its image
                split = (np.array([c for c, _ in halves])
                         @ probe_image(dims, probe, [_compose(w, block) for _, w in halves]))
                want = _dense_step(n, "twist", axis, theta, dense @ state)
                worst = max(worst, np.max(np.abs(split - want)))
            chain_field = FieldVector(*rng.uniform(-2.0, 2.0, 3), gamma=(1.0, 2.5)[n % 2])
            for scheme, (literal, evolution) in product(SCHEMES, ((False, "effective"),
                                                                  (True, "effective"), (False, "exact"))):
                config = SchemeConfig(scheme, probe, dims, chain_field, (1.3, 0.8, 1.1),
                                      evolution, tau=0.05)
                for axis in (AXES if scheme == "parallel" else ("x",)):
                    want = _dense_chain(config, axis, literal)
                    want /= np.linalg.norm(want[:, 0])
                    got = final_state(config, axis, literal).amplitudes
                    worst = max(worst, np.max(np.abs(got - want[:, 0])))
                    if evolution == "effective" and not literal:
                        worst = max(worst, np.max(np.abs(_tangent(config, axis) - want)))
        evolved = evolve_exact(dims, FieldVector(0.4, 0.5, 0.6), [DDSchedule("x", 3, 0.01)], "scs")
        worst = max(worst, abs(np.linalg.norm(evolved.amplitudes) - 1.0))
    return _result(10, worst <= 1e-10,
        f"max commutator/Casimir/unitarity/probe-image/free-step/pulse-block/twist/chain/"
        f"tangent/norm defect = {worst:.2e} for N in {{1..12, 20, 30}} (tol 1e-10)")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(only=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run the numbered checks (all by default) and return their results."""
    wanted = set(range(1, 11)) if only is None else {int(i) for i in only}
    unknown = wanted - set(range(1, 11))
    if unknown:
        raise ValueError(f"unknown criterion indices: {sorted(unknown)}")
    results = []
    for index, func in enumerate(CRITERIA, start=1):
        if index not in wanted:
            continue
        takes_seed = "seed" in inspect.signature(func).parameters
        results.append(func(seed) if takes_seed else func())
    return results
