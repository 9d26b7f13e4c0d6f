"""Dynamical-decoupling pulse sequences and their validity fidelities.

A block of rapid pi pulses about one axis cancels the transverse field
components to first order in the pulse spacing tau, so the block behaves
like free evolution under the selected component alone.  This module
evolves states pulse by pulse (exactly), injects rotation-angle errors,
and measures how well the idealization holds against the effective
rotation e^{-i gamma B_a t J_a} from `spin.propagate`:

* F1(t): overlap between the exact pulsed state and the effective state.
* F2(t): overlap between the noiseless and error-perturbed pulsed states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    field_hamiltonian,
    propagate,
    scs_state,
    unitary_from_generator,
)

__all__ = [
    "DDSchedule",
    "NoiseModel",
    "evolve_exact",
    "F1Curve",
    "fidelity_f1",
    "F2Result",
    "fidelity_f2",
]


@dataclass(frozen=True)
class DDSchedule:
    """One axis's pulse plan: `pairs` pulse pairs with spacing `tau`.

    alternating mode applies (e^{-i pi J_a} free(tau) e^{+i pi J_a} free(tau))
    per pair; identical mode uses e^{-i pi J_a} for both pulses.  The block
    spans duration 2 * pairs * tau.
    """

    axis: str
    pairs: int
    tau: float
    mode: str = "alternating"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.pairs < 1:
            raise ValueError(f"pulse-pair count must be >= 1, got {self.pairs}")
        if self.tau <= 0:
            raise ValueError(f"pulse spacing must be positive, got {self.tau}")
        if self.mode not in ("alternating", "identical"):
            raise ValueError(f"mode must be alternating or identical, got {self.mode!r}")

    @property
    def duration(self) -> float:
        return 2.0 * self.pairs * self.tau


@dataclass(frozen=True)
class NoiseModel:
    """Uniform rotation-angle error on every pi pulse.

    Each pulse angle becomes pi + dtheta with dtheta drawn uniformly from
    [-eta, eta].  By default every pulse draws independently; with
    paired_error=True the two pulses of a pair share one draw.
    """

    eta: float
    trials: int = 1
    seed: int = 0
    paired_error: bool = False

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def _draw_pair_angles(sched: DDSchedule, noise: NoiseModel | None, rng) -> tuple[float, float]:
    """Signed pulse angles (chronologically first, second) for one pair.

    Angles are in the e^{-i angle J_axis} convention, so the alternating
    pair free/+pi/free/-pi comes out as (-(pi+d1), +(pi+d2)).
    """
    if noise is None or noise.eta == 0.0:
        d1 = d2 = 0.0
    elif noise.paired_error:
        d1 = d2 = rng.uniform(-noise.eta, noise.eta)
    else:
        d1 = rng.uniform(-noise.eta, noise.eta)
        d2 = rng.uniform(-noise.eta, noise.eta)
    if sched.mode == "alternating":
        return -(np.pi + d1), np.pi + d2
    return np.pi + d1, np.pi + d2


def evolve_exact(state: DickeState, field: FieldVector, schedules,
                 noise: NoiseModel | None = None, rng=None) -> DickeState:
    """Pulse-by-pulse evolution through the listed DD blocks.

    Each pair applies free evolution, the first pi pulse, free evolution,
    the second pi pulse (chronological order).  The free-evolution unitary
    is computed once per distinct tau and reused.
    """
    if not schedules:
        return state
    if noise is not None and noise.eta > 0.0 and rng is None:
        rng = np.random.default_rng(noise.seed)
    psi = state.amplitudes
    for step in _iter_pair_states(psi, state.dims, field, schedules, noise, rng):
        psi = step
    return DickeState(state.dims, psi / np.linalg.norm(psi))


def _iter_pair_states(psi, dims, field, schedules, noise, rng):
    """Yield the raw state vector after every pulse pair, block by block."""
    h_b = field_hamiltonian(dims, field)
    free_cache: dict[float, np.ndarray] = {}
    for sched in schedules:
        if sched.tau not in free_cache:
            free_cache[sched.tau] = unitary_from_generator(h_b, sched.tau)
        u_free = free_cache[sched.tau]
        for _ in range(sched.pairs):
            a_first, a_second = _draw_pair_angles(sched, noise, rng)
            psi = propagate(dims, sched.axis, a_first, u_free @ psi)
            psi = propagate(dims, sched.axis, a_second, u_free @ psi)
            yield psi


@dataclass(frozen=True)
class F1Curve:
    """Exact-vs-effective overlap sampled at pulse-pair boundaries."""

    tau_over_T: float
    pairs_per_axis: int
    tau: float
    times: np.ndarray
    values: np.ndarray

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))

    @property
    def final(self) -> float:
        return float(self.values[-1])


def fidelity_f1(dims: EnsembleDims, field: FieldVector, L_per_axis: int | None,
                tau_over_T, total_time: float = 6.0,
                block_order=("z", "y", "x")) -> list[F1Curve]:
    """F1(t) = |<exact(t)|effective(t)>|^2 for each pulse-spacing ratio.

    The total time is split into three equal single-axis blocks of duration
    T_block = total_time / 3, applied in block_order.  For each ratio r in
    tau_over_T the spacing is tau = r * T_block and the pair count is
    L = round(1 / (2 r)) unless L_per_axis overrides it.  Both the exact
    and the effective state advance pair by pair and are compared at every
    pair boundary.
    """
    ratios = [float(r) for r in np.atleast_1d(tau_over_T)]
    if any(r <= 0 for r in ratios):
        raise ValueError(f"tau/T ratios must be positive, got {ratios}")
    t_block = total_time / 3.0
    curves = []
    for ratio in ratios:
        tau = ratio * t_block
        pairs = L_per_axis if L_per_axis is not None else max(1, round(1.0 / (2.0 * ratio)))
        schedules = [DDSchedule(ax, pairs, tau) for ax in block_order]
        psi = phi = scs_state(dims).amplitudes
        times, values = [], []
        t = 0.0
        pair_iter = _iter_pair_states(psi, dims, field, schedules, None, None)
        for sched in schedules:
            angle = field.coupling(sched.axis) * 2.0 * tau
            for _ in range(sched.pairs):
                psi = next(pair_iter)
                phi = propagate(dims, sched.axis, angle, phi)
                t += 2.0 * tau
                times.append(t)
                values.append(abs(np.vdot(psi, phi)) ** 2)
        curves.append(F1Curve(ratio, pairs, tau, np.array(times), np.array(values)))
    return curves


@dataclass(frozen=True)
class F2Result:
    """Noiseless-vs-noisy overlap, averaged over error realizations."""

    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    trial_minima: np.ndarray

    @property
    def mean_trajectory_minimum(self) -> float:
        """Average over trials of each trial's worst overlap."""
        return float(np.mean(self.trial_minima))


def fidelity_f2(dims: EnsembleDims, field: FieldVector, schedules,
                noise: NoiseModel) -> F2Result:
    """F2(t) = |<noiseless(t)|noisy(t)>|^2 over `noise.trials` realizations.

    Trial k draws its errors from an independent stream seeded by
    (noise.seed, k), so results are reproducible and order-independent.
    The reference trajectory runs the same schedules with exact pi pulses.
    """
    if not schedules:
        raise ValueError("at least one schedule is required")
    psi0 = scs_state(dims).amplitudes
    reference = list(_iter_pair_states(psi0, dims, field, schedules, None, None))
    ref_norm2 = [np.vdot(r, r).real for r in reference]
    times = np.cumsum([2.0 * s.tau for s in schedules for _ in range(s.pairs)])
    table = np.empty((noise.trials, len(reference)))
    for trial in range(noise.trials):
        rng = np.random.default_rng([noise.seed, trial])
        noisy = _iter_pair_states(psi0, dims, field, schedules, noise, rng)
        for i, (ref, psi) in enumerate(zip(reference, noisy)):
            # normalized so a zero-error trajectory scores exactly 1 even
            # though the raw vectors' norms drift at machine level
            v = np.vdot(ref, psi)
            num = v.real * v.real + v.imag * v.imag
            table[trial, i] = num / (ref_norm2[i] * np.vdot(psi, psi).real)
    return F2Result(times, table.mean(axis=0), table.std(axis=0), table.min(axis=1))
