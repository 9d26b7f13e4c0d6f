"""Dynamical-decoupling pulse sequences and their validity fidelities.

A block of rapid pi pulses about one axis cancels the transverse field
components to first order in the pulse spacing tau, so the block behaves
like free evolution under the selected component alone.  This module
evolves states through pulse blocks exactly, injects rotation-angle errors,
and measures how well the idealization holds against the effective
rotation e^{-i gamma B_a t J_a}:

* F1(t): overlap between the exact pulsed state and the effective state.
* F2(t): overlap between the noiseless and error-perturbed pulsed states.

All three run on one pulse-block kernel built on `spin.propagate`, with no
eigendecomposition of the field Hamiltonian.  A block about axis a runs in
the J_a eigenbasis, where every pulse is a diagonal phase and the free step
e^{-i tau gamma B.J} (one SU(2) rotation, `_free_step`) is one matrix W
(`_block_frame`).  With exact pi pulses every pair is the same P, so a
block is P^L, by binary powering from the measured crossover on and by
stepping P below it (`_apply_pairs`).  F1 steps P once per pair; F2 with
pulse errors steps each trial's own pulses.  Both take the states a chunk
of pairs at a time, so their memory does not grow with the pair count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import (AXES, _CHUNK, DickeState, EnsembleDims, FieldVector, _jx_eigenbasis,
                   _jx_sectors, rotate, scs_state)

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
    return np.cumsum(np.repeat([2.0 * s.tau for s in schedules], [s.pairs for s in schedules]))


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
    """Exact evolution through the listed DD blocks with exact pi pulses.

    Each pair applies free evolution, the first pi pulse, free evolution,
    the second pi pulse (chronological order).  Every pair of a block is
    the same unitary P, so the block is P^pairs (see `_apply_pairs`).
    """
    if not schedules:
        return state
    psi = state.amplitudes
    for sched in schedules:
        basis, ev, w = _block_frame(state.dims, field, sched)
        c = _apply_pairs(_exact_pair(w, ev, sched.mode), basis.conj().T @ psi, sched.pairs)
        psi = basis @ c
    return DickeState(state.dims, psi / np.linalg.norm(psi))


def _free_step(dims: EnsembleDims, field: FieldVector, tau: float,
               psi: np.ndarray) -> np.ndarray:
    """e^{-i tau gamma B.J} psi by one `spin.rotate`, with no eigh of H_B.

    With b = gamma B, e^{-i tau b.sigma/2} is the SU(2) element
    a = cos(|b| tau/2) - i (b_z/|b|) sin(|b| tau/2),
    b = -(i b_x + b_y)/|b| sin(|b| tau/2); |b| = 0 is the identity.
    """
    bx, by, bz = (field.coupling(ax) for ax in AXES)
    norm = math.hypot(bx, by, bz)
    if norm == 0.0:
        return psi
    c, s = math.cos(norm * tau / 2.0), math.sin(norm * tau / 2.0) / norm
    return rotate(dims, (complex(c, -bz * s), complex(-by * s, -bx * s)), psi)


def _block_frame(dims: EnsembleDims, field: FieldVector, sched: DDSchedule):
    """(B, ev, W) for one block about axis a.

    B holds the J_a eigenvectors as columns (the identity for z, the sorted
    real eigenbasis V of J_x for x, diag(r) V for y; see
    `spin._jx_eigenbasis`) and ev their eigenvalues, so a pulse
    e^{-i theta J_a} is the diagonal phase e^{-i theta ev} in that basis.
    W = B^dagger U B is the free step.
    """
    _, _, _, m, r, _ = _jx_sectors(dims.N)
    if sched.axis == "z":
        basis, ev = np.eye(dims.dim), m
    else:
        v, ev = _jx_eigenbasis(dims.N)
        basis = v if sched.axis == "x" else r[:, None] * v
    return basis, ev, basis.conj().T @ _free_step(dims, field, sched.tau, basis)


def _exact_pair(w: np.ndarray, ev: np.ndarray, mode: str) -> np.ndarray:
    """P = D(pi) W D(first) W with D(theta) = diag(e^{-i theta ev}): one
    exact pulse pair in the block's eigenbasis, first = -pi when alternating."""
    first = -np.pi if mode == "alternating" else np.pi
    return (np.exp(-1j * np.pi * ev)[:, None] * w) @ (np.exp(-1j * first * ev)[:, None] * w)


def _apply_pairs(p: np.ndarray, c: np.ndarray, pairs: int) -> np.ndarray:
    """P^pairs c, by binary powering once it pays (`_powering_pays`), else
    by stepping P."""
    if _powering_pays(p.shape[0], pairs):
        return _powered(p, c, pairs)
    return _stepped(p, c, pairs)


def _powering_pays(dim: int, pairs: int) -> bool:
    """Whether binary powering beats stepping for a block of L = pairs.

    Powering takes about ceil(log2 L) dense dim x dim products and stepping
    L matrix-vector products, but a product costs far less than dim times a
    matrix-vector product.  Timing the two on one state vector (2-CPU box,
    dim 3 to 401) put the crossover at L / ceil(log2 L) of about dim / 4:
    L = 10, 22, 130, 203, 563 and 1732 at dim 11, 21, 51, 101, 201 and 401.
    """
    return (pairs - 1).bit_length() * dim < 4 * pairs


def _powered(p: np.ndarray, c: np.ndarray, pairs: int) -> np.ndarray:
    """P^pairs c by binary powering: P^(2^k) c for every set bit k."""
    while True:
        if pairs & 1:
            c = p @ c
        pairs >>= 1
        if not pairs:
            return c
        p = p @ p


def _stepped(p: np.ndarray, c: np.ndarray, pairs: int) -> np.ndarray:
    """P^pairs c, one pair at a time."""
    for _ in range(pairs):
        c = p @ c
    return c


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
    effective state are compared at every pair boundary, a chunk of pairs
    at a time, so memory beyond the returned curves does not grow with L.
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
        psi = phi = scs_state(dims).amplitudes
        values, rows = [], max(1, _CHUNK // dims.dim)
        for sched in schedules:
            basis, ev, w = _block_frame(dims, field, sched)
            p = _exact_pair(w, ev, sched.mode)
            c, c_eff = basis.conj().T @ psi, basis.conj().T @ phi
            rate = field.coupling(sched.axis) * 2.0 * tau
            for lo in range(0, pairs, rows):
                exact = np.empty((min(rows, pairs - lo), dims.dim), dtype=complex)
                for k in range(len(exact)):
                    c = exact[k] = p @ c
                angles = rate * np.arange(lo + 1, lo + 1 + len(exact))
                effective = np.exp(-1j * angles[:, None] * ev) * c_eff
                # normalized so the raw vectors' machine-level norm drift cancels
                overlap = np.einsum("kd,kd->k", exact.conj(), effective)
                norm2 = [np.sum(a.real ** 2 + a.imag ** 2, axis=1) for a in (exact, effective)]
                values.append((overlap.real ** 2 + overlap.imag ** 2) / (norm2[0] * norm2[1]))
            psi, phi = basis @ c, basis @ effective[-1]
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
        table = _f2_table(block, dims, field, schedules, _angle_table(schedules, noise))
    return F2Result(times, table.mean(axis=0), table.std(axis=0), table.min(axis=1))


def _f2_table(psi, dims, field, schedules, angles) -> np.ndarray:
    """F2 of columns 1.. of the (dim, 1 + trials) block psi against column 0
    after every pulse pair, shape (trials, pairs).

    angles is the (pairs, 2, 1 + trials) table of `_angle_table`.  Each
    block runs in its eigenbasis (see `_block_frame`), where a pair is two
    products with W and two diagonal phases; the phases are built for a
    chunk of pairs at a time, and the states of a chunk are kept to take
    their overlaps and norms at once.
    """
    cols, half = psi.shape[1], (dims.dim + 1) // 2
    table = np.empty((cols - 1, len(angles)))
    rows = max(1, _CHUNK // (2 * dims.dim * cols))
    start = 0
    for sched in schedules:
        basis, ev, w = _block_frame(dims, field, sched)
        c = basis.conj().T @ psi
        for lo in range(start, start + sched.pairs, rows):
            hi = min(lo + rows, start + sched.pairs)
            # ev[-1 - k] = -ev[k] exactly, so the upper half are conjugates
            phases = np.exp(-1j * angles[lo:hi, :, None, :] * ev[:half, None])
            phases = np.concatenate([phases, phases[:, :, dims.dim // 2 - 1::-1].conj()], 2)
            states = np.empty((hi - lo, dims.dim, cols), dtype=complex)
            for i, (first, second) in enumerate(phases):
                c = states[i] = second * (w @ (first * (w @ c)))
            # normalized so the raw vectors' machine-level norm drift cancels
            overlap = np.einsum("id,idk->ik", states[:, :, 0].conj(), states[:, :, 1:])
            norm2 = np.sum(states.real ** 2 + states.imag ** 2, axis=1)
            table[:, lo:hi] = ((overlap.real ** 2 + overlap.imag ** 2)
                               / (norm2[:, :1] * norm2[:, 1:])).T
        psi = basis @ c
        start += sched.pairs
    return table
