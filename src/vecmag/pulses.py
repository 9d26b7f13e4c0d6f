"""Dynamical-decoupling pulse sequences and their validity fidelities.

A block of rapid pi pulses about one axis cancels the transverse field
components to first order in the pulse spacing tau, so the block behaves
like free evolution under the selected component alone.  This module
evolves states through pulse blocks exactly, injects rotation-angle errors,
and measures how well the idealization holds against the effective
rotation e^{-i gamma B_a t J_a}:

* F1(t): overlap between the exact pulsed state and the effective state.
* F2(t): overlap between the noiseless and error-perturbed pulsed states.

Every pulse and free step is linear in J, so any pulse block, with or
without angle errors, is the spin-J image of one SU(2) element and all
three run on 2 x 2 products (`spin._pulse_pair`).  An exact block is P^L in
closed form (`spin._power`), and a chain of them one element, whose image on
a probe is closed form and O(N) (`spin.probe_image`).  On the product probe
an overlap is |V_11|^{2N} of V = U^dagger U', so no cost grows with N; F2
takes every trial's running pair products by a log-depth scan over the
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import (AXES, DickeState, EnsembleDims, FieldVector, _compose, _is_count, _pulse_block,
                   _pulse_pair, _su2, probe_image)

# entries per array in one chunk of F2 pair elements (64 KiB of complex); whole
# blocks raised `validate`'s peak RSS by 6% and ran 2.4x slower at 1000 x 201
_F2_CHUNK = 1 << 12

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
        if not _is_count(self.pairs) or self.pairs < 1:
            raise ValueError(f"pulse-pair count must be an integer >= 1, got {self.pairs!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"pulse spacing must be finite and positive, got {self.tau}")
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
        if not (math.isfinite(2.0 * self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be >= 0 with a finite draw range 2 eta, got {self.eta}")
        if not _is_count(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


def _pair_times(schedules) -> np.ndarray:
    """Elapsed time at the end of every pulse pair: the F1 and F2 grid."""
    return np.cumsum(np.repeat([2.0 * s.tau for s in schedules], [s.pairs for s in schedules]))


def _angle_table(schedules, noise: NoiseModel | None = None) -> np.ndarray:
    """Signed pulse angles of shape (pairs, 2, 1 + trials), in pulse order.

    In the e^{-i angle J_axis} convention an alternating pair (free/+pi/
    free/-pi) is (-(pi+d1), +(pi+d2)).  Column 0 holds the exact pi pulses;
    column 1 + k holds trial k, with all its errors drawn at once from the
    stream seeded by (noise.seed, k).
    """
    pairs = [s.pairs for s in schedules]
    trials = 0 if noise is None else noise.trials
    angles = np.full((sum(pairs), 2, 1 + trials), np.pi)
    for k in range(trials):
        shape = (sum(pairs), 1 if noise.paired_error else 2)
        rng = np.random.default_rng([noise.seed, k])
        angles[:, :, 1 + k] += rng.uniform(-noise.eta, noise.eta, shape)
    angles[np.repeat([s.mode == "alternating" for s in schedules], pairs), 0] *= -1.0
    return angles


def evolve_exact(dims: EnsembleDims, field: FieldVector, schedules, probe: str) -> DickeState:
    """Exact evolution of the probe ("scs" or "ghz") through the listed DD blocks
    with exact pi pulses.

    Each pair applies free evolution, the first pi pulse, free evolution
    and the second pi pulse.  Every pair of a block is the same SU(2)
    element P, so the chain is one element, the product of its blocks'
    P^pairs, and the state is that element's probe image.
    """
    u = (1 + 0j, 0j)
    for sched in schedules:
        u = _compose(_pulse_block(field, sched.axis, sched.pairs, sched.tau, sched.mode), u)
    psi = probe_image(dims, probe, [u])[0]
    return DickeState(dims, psi / np.linalg.norm(psi))


def _scs_fidelity(n: int, u, v) -> np.ndarray:
    """|<J,J| D(u)^dagger D(v) |J,J>|^2 = |V_11|^{2N} = (1 - |V_21|^2)^N for
    V = u^dagger v, elementwise over arrays of SU(2) pairs."""
    _, off = _compose((u[0].conjugate(), -u[1]), v)  # V_12 = -V_21*
    with np.errstate(divide="ignore"):  # |V_21| = 1 is F = 0
        return np.exp(n * np.log1p(-np.minimum(off.real ** 2 + off.imag ** 2, 1.0)))


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
    effective state are compared at every pair boundary k, from P^k and the
    effective rotation by k pairs' angle as arrays of SU(2) pairs.
    """
    ratios = [float(r) for r in np.atleast_1d(tau_over_T)]
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError(f"tau/T ratios must be finite and positive, got {ratios}")
    t_block = 2.0
    curves = []
    for ratio in ratios:
        tau = ratio * t_block
        pairs = L_per_axis if L_per_axis is not None else max(1, round(1.0 / (2.0 * ratio)))
        schedules = [DDSchedule(ax, pairs, tau) for ax in block_order]
        k = np.arange(1, pairs + 1)
        exact = effective = (1 + 0j, 0j)
        values = []
        for sched in schedules:
            exact_k = _compose(_pulse_block(field, sched.axis, k, tau, sched.mode), exact)
            rate = field.coupling(sched.axis) * 2.0 * tau
            effective_k = _compose(_su2(sched.axis, rate * k), effective)
            values.append(_scs_fidelity(dims.N, exact_k, effective_k))
            exact, effective = [(a[-1], b[-1]) for a, b in (exact_k, effective_k)]
        curves.append(F1Curve(ratio, pairs, tau, _pair_times(schedules), np.concatenate(values)))
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

    Every pair of the noiseless reference (column 0) and of each trial is
    one SU(2) element, held as (pairs, 1 + trials) arrays a chunk of pairs
    of one block at a time; their running products over the chunk are one
    log-depth prefix scan, then follow the product of the pairs before it.
    Trial k draws its errors from its own stream seeded by (noise.seed, k),
    so results are reproducible and depend on the trial count only at
    round-off level (vectorized sines and cosines).  With eta = 0 every
    trial is the reference: F2 is 1 by definition.
    """
    if not schedules:
        raise ValueError("at least one schedule is required")
    times = _pair_times(schedules)
    table = np.ones((noise.trials, times.size))
    if noise.eta > 0.0:
        angles, done, values = _angle_table(schedules, noise), (1 + 0j, 0j), []
        rows = max(1, _F2_CHUNK // (1 + noise.trials))
        pieces = [(s, min(rows, s.pairs - i)) for s in schedules for i in range(0, s.pairs, rows)]
        for sched, count in pieces:
            block, angles = angles[:count], angles[count:]
            pulse = _su2(sched.axis, block[:, 0]), _su2(sched.axis, block[:, 1])
            a, b = _pulse_pair(field, sched.tau, *pulse)
            shift = 1
            while shift < len(a):  # entry i becomes the product of pairs i - 2 shift + 1 ... i
                a[shift:], b[shift:] = _compose((a[shift:], b[shift:]), (a[:-shift], b[:-shift]))
                shift *= 2
            a, b = _compose((a, b), done)
            values.append(_scs_fidelity(dims.N, (a[:, :1], b[:, :1]), (a[:, 1:], b[:, 1:])))
            done = a[-1], b[-1]
        table = np.concatenate(values).T
    return F2Result(times, table.mean(axis=0), table.std(axis=0), table.min(axis=1))
