"""Interferometer schemes built from collective-spin probes.

Two layouts are provided.  The parallel scheme runs three devices at once,
one per field axis, each reading out a single component through its own
rotation/twist chain.  The sequential scheme threads one ensemble through
the three axis blocks in turn so a single readout carries all three phases.

Each scheme/probe combination has a closed-form branch (half-population
moments, error-propagated precision, quantum Fisher information) and a
simulation branch (effective single-axis evolution or exact pulsed
dynamics).  The closed forms for the cat-state probe exist only for even
particle number; odd N leaves the twist readout inert, and the analytic
functions refuse rather than return garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pulses import DDSchedule, evolve_exact
from .spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    apply_collective,
    ghz_state,
    propagate,
    scs_state,
)

SCHEMES = ("parallel", "sequential")
PROBES = ("scs", "ghz")
EVOLUTIONS = ("effective", "exact")

HALF_PI = math.pi / 2.0

# Relative QFI floor below which an axis is reported as a blind spot.
BLIND_SPOT_QFI_FLOOR = 1e-6


class AnalyticBranchError(ValueError):
    """No closed form exists for the requested configuration."""


class QFIVariants(NamedTuple):
    """Two closed-form candidates for the same quantity.

    They agree except for the sequential cat-state y and z axes, where
    `appendix` carries the N-fold phase arguments that match the numeric
    Fisher information; `main` keeps the bare-phase variant for comparison.
    """

    main: float
    appendix: float


@dataclass(frozen=True)
class SchemeConfig:
    """Complete description of one magnetometry run.

    durations are the per-axis interrogation times (Tx, Ty, Tz).  With
    evolution="exact", each free segment is replaced by a pulsed block of
    L = max(1, round(T / (2 tau))) pairs re-timed to land exactly on T.
    """

    scheme: str
    probe: str
    dims: EnsembleDims
    field: FieldVector
    durations: tuple[float, float, float]
    evolution: str = "effective"
    tau: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.probe not in PROBES:
            raise ValueError(f"unknown probe {self.probe!r}")
        if self.evolution not in EVOLUTIONS:
            raise ValueError(f"unknown evolution {self.evolution!r}")
        durations = tuple(float(t) for t in self.durations)
        if len(durations) != 3 or any(t < 0 for t in durations):
            raise ValueError("durations must be three non-negative times")
        object.__setattr__(self, "durations", durations)
        if self.evolution == "exact":
            if self.tau is None or self.tau <= 0:
                raise ValueError("exact evolution needs tau > 0")

    def duration(self, axis: str) -> float:
        return self.durations[AXES.index(axis)]

    def phase(self, axis: str) -> float:
        """Accumulated angle phi_axis = gamma B_axis T_axis."""
        return self.field.coupling(axis) * self.duration(axis)

    @property
    def phases(self) -> tuple[float, float, float]:
        return tuple(self.phase(ax) for ax in AXES)

    @property
    def analytic_supported(self) -> bool:
        return self.probe != "ghz" or self.dims.N % 2 == 0

    def require_analytic(self) -> None:
        if not self.analytic_supported:
            raise AnalyticBranchError(
                f"closed forms for the ghz probe need even N, got N={self.dims.N}"
            )


@dataclass(frozen=True)
class ChainStep:
    """One factor of a readout chain.

    kind "rot" applies e^{-i value J_axis}, kind "twist" applies
    e^{-i value J_axis^2}, kind "free" evolves for time `value` (effective
    single-axis or exact pulsed, per the configuration).
    """

    kind: str
    axis: str
    value: float

    def __post_init__(self):
        if self.kind not in ("rot", "twist", "free"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Operator product in written order: steps[0] acts last."""

    probe: str
    steps: tuple[ChainStep, ...]


def _rot(axis: str, value: float) -> ChainStep:
    return ChainStep("rot", axis, value)


def _twist(axis: str, value: float) -> ChainStep:
    return ChainStep("twist", axis, value)


def _free(axis: str, value: float) -> ChainStep:
    return ChainStep("free", axis, value)


def parallel_chain(probe: str, axis: str, durations, literal: bool = False) -> ChainSpec:
    """Readout chain of the parallel-scheme device for one axis.

    The default ghz x and y chains place the one-axis twist directly after
    the free evolution, inside the basis-change sandwich; that ordering is
    what maps the accumulated phase onto the z population.  literal=True
    keeps the twist outside the sandwich instead, an ordering whose readout
    signal vanishes identically (kept for comparison).
    """
    tx, ty, tz = (float(t) for t in durations)
    if probe == "scs":
        chains = {
            "x": (_rot("x", -HALF_PI), _free("x", tx)),
            "y": (_rot("y", -HALF_PI), _free("y", ty)),
            "z": (_rot("x", HALF_PI), _free("z", tz), _rot("y", HALF_PI)),
        }
    elif probe == "ghz":
        if literal:
            chains = {
                "x": (_twist("z", HALF_PI), _rot("y", -HALF_PI),
                      _free("x", tx), _rot("y", HALF_PI)),
                "y": (_twist("z", -HALF_PI), _rot("x", HALF_PI),
                      _free("y", ty), _rot("x", HALF_PI)),
                "z": (_rot("x", HALF_PI), _twist("z", -HALF_PI),
                      _rot("x", -HALF_PI), _free("z", tz)),
            }
        else:
            chains = {
                "x": (_rot("y", -HALF_PI), _twist("z", HALF_PI),
                      _free("x", tx), _rot("y", HALF_PI)),
                "y": (_rot("x", HALF_PI), _twist("z", -HALF_PI),
                      _free("y", ty), _rot("x", HALF_PI)),
                "z": (_rot("x", HALF_PI), _twist("z", -HALF_PI),
                      _rot("x", -HALF_PI), _free("z", tz)),
            }
    else:
        raise ValueError(f"unknown probe {probe!r}")
    if axis not in chains:
        raise ValueError(f"unknown axis {axis!r}")
    return ChainSpec(probe, chains[axis])


def sequential_chain(probe: str, durations, literal: bool = False) -> ChainSpec:
    """Single-device chain accumulating all three phases before readout.

    The ghz chain expects the cat state prepared along x; the trailing
    rotation performs that preparation from the z-basis cat.  literal=True
    omits it and runs the chain on the bare z-basis cat.
    """
    tx, ty, tz = (float(t) for t in durations)
    if probe == "scs":
        steps = (_rot("y", HALF_PI), _free("z", tz), _free("y", ty), _free("x", tx))
    elif probe == "ghz":
        steps = (
            _twist("x", -HALF_PI),
            _free("z", tz),
            _twist("x", -HALF_PI),
            _rot("x", HALF_PI),
            _free("y", ty),
            _twist("z", -HALF_PI),
            _rot("z", HALF_PI),
            _free("x", tx),
        )
        if not literal:
            steps = steps + (_rot("y", HALF_PI),)
    else:
        raise ValueError(f"unknown probe {probe!r}")
    return ChainSpec(probe, steps)


def _free_evolution(config: SchemeConfig, axis: str, duration: float,
                    psi: np.ndarray) -> np.ndarray:
    """One free step on a (dim,) vector or a (dim, 4) tangent block (see _tangent).

    B_axis enters only here and J_axis commutes with the step, so its
    derivative is the tap -i gamma T J_axis on the propagated state.
    """
    if duration == 0.0:
        return psi
    if config.evolution == "effective":
        psi = propagate(config.dims, axis, config.field.coupling(axis) * duration, psi)
        if psi.ndim == 2:
            tap = apply_collective(config.dims, axis, psi[:, 0])
            psi[:, 1 + AXES.index(axis)] -= 1j * config.field.gamma * duration * tap
        return psi
    pairs = max(1, round(duration / (2.0 * config.tau)))
    sched = DDSchedule(axis=axis, pairs=pairs, tau=duration / (2.0 * pairs))
    return evolve_exact(DickeState(config.dims, psi), config.field, [sched]).amplitudes


def _apply_chain(config: SchemeConfig, chain: ChainSpec, psi: np.ndarray) -> np.ndarray:
    """Apply the chain right to left to a probe vector or a tangent block."""
    if chain.probe != config.probe:
        raise ValueError("chain probe does not match configuration")
    for step in reversed(chain.steps):
        if step.kind == "free":
            psi = _free_evolution(config, step.axis, step.value, psi)
        else:
            psi = propagate(config.dims, step.axis, step.value, psi,
                            squared=step.kind == "twist")
    return psi


def _probe_amplitudes(config: SchemeConfig) -> np.ndarray:
    return (scs_state if config.probe == "scs" else ghz_state)(config.dims).amplitudes


def run_chain(config: SchemeConfig, chain: ChainSpec) -> DickeState:
    """Prepare the probe and apply the chain right to left."""
    psi = _apply_chain(config, chain, _probe_amplitudes(config))
    return DickeState(config.dims, psi / np.linalg.norm(psi))


def parallel_final_state(config: SchemeConfig, axis: str,
                         literal: bool = False) -> DickeState:
    if config.scheme != "parallel":
        raise ValueError("configuration is not a parallel scheme")
    return run_chain(config, parallel_chain(config.probe, axis, config.durations, literal))


def sequential_final_state(config: SchemeConfig, literal: bool = False) -> DickeState:
    if config.scheme != "sequential":
        raise ValueError("configuration is not a sequential scheme")
    return run_chain(config, sequential_chain(config.probe, config.durations, literal))


def _readout_chain(config: SchemeConfig, axis: str | None,
                   literal: bool = False) -> ChainSpec:
    if config.scheme == "parallel":
        if axis is None:
            raise ValueError("parallel scheme needs an axis")
        return parallel_chain(config.probe, axis, config.durations, literal)
    return sequential_chain(config.probe, config.durations, literal)


def final_state(config: SchemeConfig, axis: str | None = None,
                literal: bool = False) -> DickeState:
    """Dispatch to the per-axis device (parallel) or the single device."""
    return run_chain(config, _readout_chain(config, axis, literal))


def _tangent(config: SchemeConfig, axis: str) -> np.ndarray:
    """One chain pass giving the final state (column 0) and its exact
    derivatives in B_x, B_y, B_z (columns 1-3) as a (dim, 4) block."""
    if config.evolution != "effective":
        raise ValueError("exact state derivatives need effective evolution, "
                         f"got evolution={config.evolution!r}")
    block = np.zeros((config.dims.dim, 4), dtype=complex)
    block[:, 0] = _probe_amplitudes(config)
    block = _apply_chain(config, _readout_chain(config, axis), block)
    return block / np.linalg.norm(block[:, 0])


def jz_moments(state: DickeState) -> tuple[float, float]:
    """(<Jz>, <Jz^2>) of the readout observable, read off the diagonal."""
    amps = state.amplitudes
    prob = amps.real * amps.real + amps.imag * amps.imag
    m = state.dims.m_values
    return float(prob @ m), float(prob @ (m * m))


def _ghz_parity(n: int) -> float:
    """(-1)^J for even N."""
    return -1.0 if (n // 2) % 2 else 1.0


def _parallel_ghz_sign(n: int, axis: str) -> float:
    # Readout sign of the repaired chains, fixed by the chain algebra:
    # x carries (-1)^{J+1}, y and z come out positive.
    return -_ghz_parity(n) if axis == "x" else 1.0


def _seq_scs_terms(px, py, pz):
    """Signal S and its phase derivatives for the sequential product probe."""
    s = np.cos(px) * np.sin(py) * np.cos(pz) + np.sin(px) * np.sin(pz)
    ds = {
        "x": -np.sin(px) * np.sin(py) * np.cos(pz) + np.cos(px) * np.sin(pz),
        "y": np.cos(px) * np.cos(py) * np.cos(pz),
        "z": -np.cos(px) * np.sin(py) * np.sin(pz) + np.sin(px) * np.cos(pz),
    }
    return s, ds


def _seq_ghz_terms(n: int, px, py, pz):
    """Signal S and derivatives in the scaled phases N*phi for the cat probe."""
    parity = _ghz_parity(n)
    a, b, c = n * np.asarray(px), n * np.asarray(py), n * np.asarray(pz)
    s = np.cos(a) * np.cos(b) * np.sin(c) - parity * np.sin(a) * np.cos(c)
    ds = {
        "x": -np.sin(a) * np.cos(b) * np.sin(c) - parity * np.cos(a) * np.cos(c),
        "y": -np.cos(a) * np.sin(b) * np.sin(c),
        "z": np.cos(a) * np.cos(b) * np.cos(c) + parity * np.sin(a) * np.sin(c),
    }
    return s, ds


def sequential_signal_terms(probe: str, n: int, phase_x, phase_y, phase_z):
    """Normalized sequential signal S and its derivative per axis.

    <Jz> is -(N/2) S for the product probe and +(N/2) S for the cat probe.
    Derivatives are taken in the natural argument: the bare phase phi for
    the product probe, the amplified phase N*phi for the cat probe, which
    is the convention the precision prefactors 1/(sqrt(N) T) and 1/(N T)
    expect.  Arguments broadcast as numpy arrays.
    """
    if probe == "ghz":
        if n % 2:
            raise AnalyticBranchError(f"ghz closed forms need even N, got N={n}")
        return _seq_ghz_terms(n, phase_x, phase_y, phase_z)
    if probe != "scs":
        raise ValueError(f"unknown probe {probe!r}")
    return _seq_scs_terms(phase_x, phase_y, phase_z)


def closed_form_jz(scheme: str, probe: str, n: int, phase_x, phase_y, phase_z,
                   axis: str | None = None):
    """Vectorized closed-form <Jz>; phases broadcast as numpy arrays.

    For the parallel scheme, `axis` selects which device is read out and
    only that axis's phase enters.  The ghz forms require even N.
    """
    if probe == "ghz" and n % 2:
        raise AnalyticBranchError(f"ghz closed forms need even N, got N={n}")
    if scheme == "parallel":
        if axis is None:
            raise ValueError("parallel closed form needs an axis")
        phase = {"x": phase_x, "y": phase_y, "z": phase_z}[axis]
        if probe == "scs":
            return (n / 2.0) * np.sin(phase)
        return _parallel_ghz_sign(n, axis) * (n / 2.0) * np.sin(n * np.asarray(phase))
    if probe == "scs":
        s, _ = _seq_scs_terms(phase_x, phase_y, phase_z)
        return -(n / 2.0) * s
    s, _ = _seq_ghz_terms(n, phase_x, phase_y, phase_z)
    return (n / 2.0) * s


def closed_form_jz2(scheme: str, probe: str, n: int, phase_x, phase_y, phase_z,
                    axis: str | None = None):
    """Vectorized closed-form <Jz^2> matching closed_form_jz."""
    if probe == "ghz" and n % 2:
        raise AnalyticBranchError(f"ghz closed forms need even N, got N={n}")
    if scheme == "parallel":
        if axis is None:
            raise ValueError("parallel closed form needs an axis")
        phase = {"x": phase_x, "y": phase_y, "z": phase_z}[axis]
        if probe == "scs":
            return n / 4.0 + (n * (n - 1) / 4.0) * np.sin(phase) ** 2
        return (n * n / 4.0) * np.ones_like(np.asarray(phase, dtype=float))
    if probe == "scs":
        s, _ = _seq_scs_terms(phase_x, phase_y, phase_z)
        return n / 4.0 + (n * (n - 1) / 4.0) * s**2
    s, _ = _seq_ghz_terms(n, phase_x, phase_y, phase_z)
    return (n * n / 4.0) * np.ones_like(np.asarray(s, dtype=float))


def analytic_jz(config: SchemeConfig, axis: str | None = None) -> float:
    config.require_analytic()
    px, py, pz = config.phases
    return float(closed_form_jz(config.scheme, config.probe, config.dims.N,
                                px, py, pz, axis))


def analytic_jz2(config: SchemeConfig, axis: str | None = None) -> float:
    config.require_analytic()
    px, py, pz = config.phases
    return float(closed_form_jz2(config.scheme, config.probe, config.dims.N,
                                 px, py, pz, axis))


def analytic_delta_b(config: SchemeConfig, axis: str) -> float:
    """Single-shot error-propagated precision dJz / |d<Jz>/dB_axis|.

    The parallel devices give flat bounds (the phase dependence cancels):
    1/(sqrt(N) T) for the product probe, 1/(N T) for the cat.  Sequential
    readouts inherit blind spots where the slope vanishes; those return inf.
    """
    config.require_analytic()
    n = config.dims.N
    t_axis = config.duration(axis)
    if t_axis == 0.0:
        return math.inf
    if config.scheme == "parallel":
        if config.probe == "scs":
            return 1.0 / (math.sqrt(n) * t_axis)
        return 1.0 / (n * t_axis)
    px, py, pz = config.phases
    if config.probe == "scs":
        s, ds = _seq_scs_terms(px, py, pz)
        noise_amp = math.sqrt(max(0.0, 1.0 - float(s) ** 2))
        slope = abs(float(ds[axis]))
        if slope < 1e-12:
            return math.inf
        return noise_amp / (math.sqrt(n) * t_axis * slope)
    s, ds = _seq_ghz_terms(n, px, py, pz)
    noise_amp = math.sqrt(max(0.0, 1.0 - float(s) ** 2))
    slope = abs(float(ds[axis]))
    if slope < 1e-12:
        return math.inf
    return noise_amp / (n * t_axis * slope)


def qfi_analytic(config: SchemeConfig, axis: str) -> QFIVariants:
    """Closed-form quantum Fisher information for B_axis.

    Returns both candidate forms.  They differ only for the sequential
    cat probe on y and z; there the appendix forms (N-fold phases) are the
    ones the numeric QFI reproduces, so downstream consumers should prefer
    `.appendix`.
    """
    config.require_analytic()
    n = config.dims.N
    t_axis = config.duration(axis)
    px, py, _ = config.phases
    if config.scheme == "parallel":
        value = (n if config.probe == "scs" else n * n) * t_axis**2
        return QFIVariants(value, value)
    if config.probe == "scs":
        if axis == "x":
            value = n * t_axis**2
        elif axis == "y":
            value = n * t_axis**2 * math.cos(px) ** 2
        else:
            value = n * t_axis**2 * (1.0 - math.cos(px) ** 2 * math.cos(py) ** 2)
        return QFIVariants(value, value)
    if axis == "x":
        value = n * n * t_axis**2
        return QFIVariants(value, value)
    if axis == "y":
        main = n * n * t_axis**2 * math.cos(px) ** 2
        appendix = n * n * t_axis**2 * math.cos(n * px) ** 2
        return QFIVariants(main, appendix)
    main = n * n * t_axis**2 * (1.0 - math.cos(px) ** 2 * math.cos(py) ** 2)
    appendix = n * n * t_axis**2 * (1.0 - math.cos(n * px) ** 2 * math.sin(n * py) ** 2)
    return QFIVariants(main, appendix)


def _axis_figures(config: SchemeConfig, block: np.ndarray, axis: str):
    """<Jz>, <Jz^2>, dJz, slope 2 Re<psi|Jz|d psi> and QFI 4 (|d psi|^2 - |<psi|d psi>|^2)
    for B_axis from a tangent block; dJz and the QFI are clipped at 0 like a variance."""
    psi, dpsi = block[:, 0], block[:, 1 + AXES.index(axis)]
    jz, jz2 = jz_moments(DickeState(config.dims, psi))
    slope = 2.0 * float(np.vdot(psi, config.dims.m_values * dpsi).real)
    qfi = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    return jz, jz2, math.sqrt(max(0.0, jz2 - jz * jz)), slope, max(float(qfi), 0.0)


def _delta_b(config: SchemeConfig, axis: str, delta_jz: float, slope: float) -> float:
    floor = 1e-12 * config.dims.N * max(1.0, config.duration(axis))
    return math.inf if abs(slope) < floor else delta_jz / abs(slope)


def qfi_numeric(config: SchemeConfig, axis: str) -> float:
    """Fisher information for B_axis from the exact state derivative."""
    return _axis_figures(config, _tangent(config, axis), axis)[4]


def delta_b_numeric(config: SchemeConfig, axis: str) -> float:
    """Error-propagated precision dJz / |d<Jz>/dB_axis| from simulated states.

    A vanishing slope is reported as inf (blind spot) rather than a
    division error.
    """
    _, _, delta_jz, slope, _ = _axis_figures(config, _tangent(config, axis), axis)
    return _delta_b(config, axis, delta_jz, slope)


@dataclass(frozen=True)
class AxisPrecision:
    """Precision summary for one field component."""

    axis: str
    jz: float
    jz2: float
    delta_jz: float
    delta_b_analytic: float
    delta_b_numeric: float
    qfi_analytic_main: float
    qfi_analytic_appendix: float
    qfi_numeric: float
    qcrb: float
    blind_spot: bool


@dataclass(frozen=True)
class PrecisionReport:
    """Per-axis precision of one configuration at a fixed working point."""

    scheme: str
    probe: str
    n: int
    eta: int
    axes: tuple[AxisPrecision, ...]

    def axis(self, name: str) -> AxisPrecision:
        for entry in self.axes:
            if entry.axis == name:
                return entry
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        def num(x: float):
            return None if math.isinf(x) or math.isnan(x) else x

        return {
            "scheme": self.scheme,
            "probe": self.probe,
            "n": self.n,
            "eta": self.eta,
            "axes": [
                {
                    "axis": a.axis,
                    "jz": num(a.jz),
                    "jz2": num(a.jz2),
                    "delta_jz": num(a.delta_jz),
                    "delta_b_analytic": num(a.delta_b_analytic),
                    "delta_b_numeric": num(a.delta_b_numeric),
                    "qfi_analytic_main": num(a.qfi_analytic_main),
                    "qfi_analytic_appendix": num(a.qfi_analytic_appendix),
                    "qfi_numeric": num(a.qfi_numeric),
                    "qcrb": num(a.qcrb),
                    "blind_spot": a.blind_spot,
                }
                for a in self.axes
            ],
        }


def precision_report(config: SchemeConfig, axes=AXES, eta: int = 1) -> PrecisionReport:
    """Assemble analytic and numeric precision figures for each axis.

    eta is the number of independent trials entering the Cramer-Rao bound
    1/sqrt(eta F).  The single-shot numeric precision must respect the
    single-trial bound; a violation beyond 1e-9 raises ArithmeticError.
    """
    if eta < 1:
        raise ValueError("eta must be a positive trial count")
    entries = []
    block = None
    for axis in axes:
        if block is None or config.scheme == "parallel":
            block = _tangent(config, axis)
        jz, jz2, delta_jz, slope, qfi_num = _axis_figures(config, block, axis)
        db_num = _delta_b(config, axis, delta_jz, slope)
        variants = qfi_analytic(config, axis)
        db_ana = analytic_delta_b(config, axis)
        qcrb = math.inf if qfi_num <= 0 else 1.0 / math.sqrt(eta * qfi_num)
        t_axis = config.duration(axis)
        qfi_scale = (config.dims.N * max(t_axis, 1e-300)) ** 2
        blind = math.isinf(db_ana) or qfi_num < BLIND_SPOT_QFI_FLOOR * qfi_scale
        if math.isfinite(db_num) and qfi_num > 0:
            single_shot_bound = 1.0 / math.sqrt(qfi_num)
            if db_num < single_shot_bound - 1e-9:
                raise ArithmeticError(
                    f"precision beats the quantum bound on axis {axis}: "
                    f"{db_num} < {single_shot_bound}"
                )
        entries.append(AxisPrecision(
            axis=axis,
            jz=jz,
            jz2=jz2,
            delta_jz=delta_jz,
            delta_b_analytic=db_ana,
            delta_b_numeric=db_num,
            qfi_analytic_main=variants.main,
            qfi_analytic_appendix=variants.appendix,
            qfi_numeric=qfi_num,
            qcrb=qcrb,
            blind_spot=blind,
        ))
    return PrecisionReport(
        scheme=config.scheme,
        probe=config.probe,
        n=config.dims.N,
        eta=eta,
        axes=tuple(entries),
    )
