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


def _pair_plan(schedules) -> list[DDSchedule]:
    """The schedule each pulse pair belongs to, in pulse order."""
    return [sched for sched in schedules for _ in range(sched.pairs)]


def _pair_times(schedules) -> np.ndarray:
    """Elapsed time at the end of every pulse pair: the F1 and F2 grid."""
    return np.cumsum([2.0 * sched.tau for sched in _pair_plan(schedules)])


def _angle_table(schedules, noise: NoiseModel | None = None) -> np.ndarray:
    """Signed pulse angles of shape (pairs, 2, 1 + trials), in pulse order.

    In the e^{-i angle J_axis} convention an alternating pair (free/+pi/
    free/-pi) is (-(pi+d1), +(pi+d2)).  Column 0 holds the exact pi pulses;
    column 1 + k holds trial k, with all its errors drawn at once from the
    stream seeded by (noise.seed, k).
    """
    plan = _pair_plan(schedules)
    trials = 0 if noise is None else noise.trials
    angles = np.full((len(plan), 2, 1 + trials), np.pi)
    for k in range(trials):
        shape = (len(plan), 1 if noise.paired_error else 2)
        rng = np.random.default_rng([noise.seed, k])
        angles[:, :, 1 + k] += rng.uniform(-noise.eta, noise.eta, shape)
    angles[[s.mode == "alternating" for s in plan], 0] *= -1.0
    return angles


def evolve_exact(state: DickeState, field: FieldVector, schedules) -> DickeState:
    """Pulse-by-pulse evolution through the listed DD blocks, exact pi pulses.

    Each pair applies free evolution, the first pi pulse, free evolution,
    the second pi pulse (chronological order).
    """
    if not schedules:
        return state
    angles = _angle_table(schedules)[:, :, 0].tolist()
    for psi in _iter_pair_states(state.amplitudes, state.dims, field, schedules, angles):
        pass
    return DickeState(state.dims, psi / np.linalg.norm(psi))


def _iter_pair_states(psi, dims, field, schedules, angles):
    """Yield the raw state after every pulse pair, block by block.

    psi is a (dim,) vector or a (dim, k) block; angles[i] holds pair i's
    (first, second) angles, scalars or one per column (see _angle_table).
    The free-evolution unitary is computed once per distinct tau.
    """
    h_b = field_hamiltonian(dims, field)
    u_free = {t: unitary_from_generator(h_b, t) for t in {s.tau for s in schedules}}
    for sched, (a_first, a_second) in zip(_pair_plan(schedules), angles):
        psi = propagate(dims, sched.axis, a_first, u_free[sched.tau] @ psi)
        psi = propagate(dims, sched.axis, a_second, u_free[sched.tau] @ psi)
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


def fidelity_f1(dims: EnsembleDims, field: FieldVector, L_per_axis: int | None,
                tau_over_T, block_order=("z", "y", "x")) -> list[F1Curve]:
    """F1(t) = |<exact(t)|effective(t)>|^2 for each pulse-spacing ratio.

    The total time 6 is split into three equal single-axis blocks of
    duration T_block = 2, applied in block_order.  For each ratio r in
    tau_over_T the spacing is tau = r * T_block and the pair count is
    L = round(1 / (2 r)) unless L_per_axis overrides it.  The exact and the
    effective state are compared at every pair boundary.
    """
    ratios = [float(r) for r in np.atleast_1d(tau_over_T)]
    if any(r <= 0 for r in ratios):
        raise ValueError(f"tau/T ratios must be positive, got {ratios}")
    t_block = 2.0
    curves = []
    for ratio in ratios:
        tau = ratio * t_block
        pairs = L_per_axis if L_per_axis is not None else max(1, round(1.0 / (2.0 * ratio)))
        schedules = [DDSchedule(ax, pairs, tau) for ax in block_order]
        phi = scs_state(dims).amplitudes
        angles = _angle_table(schedules)[:, :, 0].tolist()
        free_angle = {ax: field.coupling(ax) * 2.0 * tau for ax in block_order}
        values = []
        for sched, psi in zip(_pair_plan(schedules),
                              _iter_pair_states(phi, dims, field, schedules, angles)):
            phi = propagate(dims, sched.axis, free_angle[sched.axis], phi)
            values.append(abs(np.vdot(psi, phi)) ** 2)
        curves.append(F1Curve(ratio, pairs, tau, _pair_times(schedules), np.array(values)))
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

    The noiseless reference (column 0) and the trials run as one
    (dim, 1 + trials) block through a single pass over the pulses.  Trial k
    draws its errors from its own stream seeded by (noise.seed, k), so
    results are reproducible and depend on the trial count only at round-off
    level.  With eta = 0 every trial is the reference: F2 is 1 by definition.
    """
    if not schedules:
        raise ValueError("at least one schedule is required")
    times = _pair_times(schedules)
    table = np.ones((noise.trials, times.size))
    if noise.eta > 0.0:
        block = np.repeat(scs_state(dims).amplitudes[:, None], 1 + noise.trials, 1)
        angles = _angle_table(schedules, noise)
        for i, psi in enumerate(_iter_pair_states(block, dims, field, schedules, angles)):
            # normalized so the raw vectors' machine-level norm drift cancels
            overlap = psi[:, 0].conj() @ psi[:, 1:]
            norm2 = np.sum(psi.real ** 2 + psi.imag ** 2, axis=0)
            table[:, i] = (overlap.real ** 2 + overlap.imag ** 2) / (norm2[0] * norm2[1:])
    return F2Result(times, table.mean(axis=0), table.std(axis=0), table.min(axis=1))
