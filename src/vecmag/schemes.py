"""Interferometer schemes built from collective-spin probes.

Two layouts are provided.  The parallel scheme runs three devices at once,
one per field axis, each reading out a single component through its own
rotation/twist chain.  The sequential scheme threads one ensemble through
the three axis blocks in turn so a single readout carries all three phases.

Each scheme/probe combination has a closed-form branch (half-population
moments, error-propagated precision, quantum Fisher information) and a
simulation branch (effective single-axis evolution or exact pulsed
dynamics, the state a sum of closed-form probe images, O(N)).  The
closed forms for the cat-state probe exist only for even particle number;
odd N leaves the twist readout inert, and the analytic functions refuse
rather than return garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import AnalyticBranchError, BoundViolationError
from .spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    _compose,
    _diagonals,
    _pulse_block,
    _su2,
    _twist_terms,
    apply_collective,
    probe_image,
)

SCHEMES = ("parallel", "sequential")
PROBES = ("scs", "ghz")
EVOLUTIONS = ("effective", "exact")

HALF_PI = math.pi / 2.0

# Relative QFI floor below which an axis is reported as a blind spot.
BLIND_SPOT_QFI_FLOOR = 1e-6


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
        if len(durations) != 3 or not all(0.0 <= t < math.inf for t in durations):
            raise ValueError(f"durations must be three finite times >= 0, got {durations}")
        object.__setattr__(self, "durations", durations)
        if self.evolution == "exact" and not (self.tau is not None and 0.0 < self.tau < math.inf):
            raise ValueError(f"exact evolution needs a finite tau > 0, got tau={self.tau!r}")
        if self.evolution == "exact" and not math.isfinite(max(durations) / (2.0 * self.tau)):
            raise ValueError(f"tau={self.tau!r} is too small: T / (2 tau) pulse pairs overflow")

    def duration(self, axis: str) -> float:
        return self.durations[AXES.index(axis)]

    def phase(self, axis: str) -> float:
        """Accumulated angle phi_axis = gamma B_axis T_axis."""
        return self.field.coupling(axis) * self.duration(axis)

    @property
    def phases(self) -> tuple[float, float, float]:
        return tuple(self.phase(ax) for ax in AXES)


# Readout chains, keyed by (scheme, probe, literal) and, for the parallel
# scheme, by device axis.  A chain is an operator product whose first step acts
# last: ("rot" | "twist", a, theta) applies e^{-i theta J_a} or e^{-i theta J_a^2},
# and ("free", a) evolves for the configuration's T_a (see _apply_chain).
#
# The default parallel ghz x and y chains place the one-axis twist directly
# after the free evolution, inside the basis-change sandwich; that ordering is
# what maps the accumulated phase onto the z population.  Their literal entries
# keep the twist outside the sandwich, an ordering whose readout signal
# vanishes identically (kept for comparison).  The sequential ghz chain expects
# the cat state prepared along x; the trailing rotation performs that
# preparation from the z-basis cat.  Its literal entry omits it and runs the
# chain on the bare z-basis cat.
_PARALLEL_GHZ_Z = (("rot", "x", HALF_PI), ("twist", "z", -HALF_PI),
                   ("rot", "x", -HALF_PI), ("free", "z"))
_SEQUENTIAL_GHZ_LITERAL = (
    ("twist", "x", -HALF_PI), ("free", "z"), ("twist", "x", -HALF_PI),
    ("rot", "x", HALF_PI), ("free", "y"), ("twist", "z", -HALF_PI),
    ("rot", "z", HALF_PI), ("free", "x"))
_CHAINS = {
    ("parallel", "scs", False): {
        "x": (("rot", "x", -HALF_PI), ("free", "x")),
        "y": (("rot", "y", -HALF_PI), ("free", "y")),
        "z": (("rot", "x", HALF_PI), ("free", "z"), ("rot", "y", HALF_PI)),
    },
    ("parallel", "ghz", False): {
        "x": (("rot", "y", -HALF_PI), ("twist", "z", HALF_PI),
              ("free", "x"), ("rot", "y", HALF_PI)),
        "y": (("rot", "x", HALF_PI), ("twist", "z", -HALF_PI),
              ("free", "y"), ("rot", "x", HALF_PI)),
        "z": _PARALLEL_GHZ_Z,
    },
    ("parallel", "ghz", True): {
        "x": (("twist", "z", HALF_PI), ("rot", "y", -HALF_PI),
              ("free", "x"), ("rot", "y", HALF_PI)),
        "y": (("twist", "z", -HALF_PI), ("rot", "x", HALF_PI),
              ("free", "y"), ("rot", "x", HALF_PI)),
        "z": _PARALLEL_GHZ_Z,
    },
    ("sequential", "scs", False): (("rot", "y", HALF_PI), ("free", "z"),
                                   ("free", "y"), ("free", "x")),
    ("sequential", "ghz", False): _SEQUENTIAL_GHZ_LITERAL + (("rot", "y", HALF_PI),),
    ("sequential", "ghz", True): _SEQUENTIAL_GHZ_LITERAL,
}


def _exact_free_evolution(config: SchemeConfig, axis: str, duration: float):
    """SU(2) pair of a pulsed free step: L = max(1, round(T / 2 tau)) pairs re-timed to T."""
    pairs = max(1, round(duration / (2.0 * config.tau)))
    return _pulse_block(config.field, axis, pairs, duration / (2.0 * pairs), "alternating")


def _chain(config: SchemeConfig, axis: str | None, literal: bool = False):
    """The sequential device's chain (`axis` ignored), or the parallel one's for `axis`."""
    chain = _CHAINS[config.scheme, config.probe, bool(literal) and config.probe == "ghz"]
    if config.scheme == "parallel" and axis not in chain:
        raise ValueError(f"parallel scheme needs a device axis, got {axis!r}")
    return chain[axis] if config.scheme == "parallel" else chain


def _apply_chain(config: SchemeConfig, chain, tangent: bool = False) -> np.ndarray:
    """Apply the chain right to left to the probe: the final state, or with
    `tangent` the (dim, 4) block of _tangent.

    A free step of T_a > 0 evolves by e^{-i gamma B_a T_a J_a}, exact evolution
    by a pulse block; a run of free steps and rotations is one SU(2) element, and
    a quarter turn right after a twist moves before it, turning the twist's axis.
    The state is a sum of terms c D(u) probe, each twist D(v0) (c0 + c1 H_a)
    splitting every term in two (`spin._twist_terms`), up to the last twist that
    a turning run (b != 0) follows or whose D(v0) turns (odd N, x or y).  There
    the terms' images are formed, in one `probe_image` call, and summed; the
    twists and z rotations left act on that vector as O(N) reversals and phases
    (`spin._diagonals`).  B_a enters only its free step, as the tap k J_a,
    k = -i gamma T_a: each term carries its taps (w, a, k), k D(w) J_a D(w)^dagger
    on the term, w the steps after the free step, which splits and runs compose
    into as into u; a tap joins its column by `apply_collective`, on its term's
    image or on the vector at the end of its run.
    """
    dims, runs, taps, twists = config.dims, [[]], [[]], []
    for kind, axis, *angle in reversed(chain):
        if kind == "twist":
            runs, taps, twists = runs + [[]], taps + [[]], twists + [(axis, angle[0])]
        elif kind == "rot" and twists and not runs[-1] and abs(angle[0]) == HALF_PI:
            # R T_a = T_c R with R J_a R^dagger = +-J_c: c = a, or the third axis
            a = twists[-1][0]
            twists[-1] = (a if a == axis else AXES[3 - AXES.index(a) - AXES.index(axis)], twists[-1][1])
            runs[-2].append(_rotation(axis, angle[0]))
        elif kind == "rot":
            runs[-1].append(_rotation(axis, angle[0]))
        elif (duration := config.duration(axis)) > 0.0:
            if tangent:  # effective evolution only
                taps[-1].append((len(runs[-1]), axis, -1j * config.field.gamma * duration))
            runs[-1].append(_exact_free_evolution(config, axis, duration) if config.evolution == "exact"
                            else (axis, config.field.coupling(axis) * duration))
    elements = [_element(run) for run in runs]
    last = 0  # the number of twists that split the terms
    for i, (axis, _) in enumerate(twists, start=1):
        if elements[i][1] or (dims.N % 2 and axis != "z"):
            last = i
    terms = [(1.0, elements[0], [(_element(runs[0][at + 1:]), a, k) for at, a, k in taps[0]])]
    for i in range(1, last + 1):
        halves = [(d, _compose(elements[i], w)) for d, w in _twist_terms(dims.N, *twists[i - 1])]
        terms = [(c * d, _compose(w, u), [(_compose(w, t), a, k) for t, a, k in tapped]
                  + [(_element(runs[i][at + 1:]), a, k) for at, a, k in taps[i]])
                 for c, u, tapped in terms for d, w in halves]
    scales, us, tapped = zip(*terms)
    images = probe_image(dims, config.probe, us)
    psi = images[0] if len(images) == 1 else np.array(scales) @ images  # one term: c = 1
    if tangent:  # the block's columns as rows while it forms
        psi = np.vstack((psi, np.zeros((3, dims.dim), dtype=complex)))
    for c, image, term_taps in zip(scales, images, tapped):
        for t, a, k in term_taps:
            psi[1 + AXES.index(a)] += c * k * apply_collective(dims, a, image, t)
    m, turns = _diagonals(dims.N)
    for i in range(last + 1, len(runs)):  # D(u v0) (c0 + c1 H_a), u v0 = (a, 0)
        (c0, v0), (c1, _) = _twist_terms(dims.N, *twists[i - 1])
        turned = turns[twists[i - 1][0]] * psi
        psi = c0 * psi + c1 * (turned if twists[i - 1][0] == "z" else turned[..., ::-1])
        a = _compose(elements[i], v0)[0]
        if arg := math.atan2(a.imag, a.real):
            psi = np.exp(-1j * (-2.0 * arg) * m) * psi
        for at, a, k in taps[i]:
            psi[1 + AXES.index(a)] += k * apply_collective(dims, a, psi[0], _element(runs[i][at + 1:]))
    return psi.T if tangent else psi


@lru_cache(maxsize=None)
def _rotation(axis: str, theta: float):
    """The SU(2) pair of a chain table's rotation, one of a few constants."""
    return _su2(axis, theta)


def _element(run):
    """The SU(2) pair of a run, first step first, each an (axis, angle) or a pair."""
    u, *rest = [_su2(*s) if isinstance(s[0], str) else s for s in run] or [(1 + 0j, 0j)]
    for step in rest:
        u = _compose(step, u)
    return u


def final_state(config: SchemeConfig, axis: str | None = None,
                literal: bool = False) -> DickeState:
    """Dispatch to the per-axis device (parallel) or the single device."""
    psi = _apply_chain(config, _chain(config, axis, literal))
    return DickeState(config.dims, psi / np.linalg.norm(psi))


def simulated_jz(config: SchemeConfig, times, axis: str | None = None) -> np.ndarray:
    """Simulated <Jz> at each time t, every interrogation time set to t.

    One chain run per point: exact evolution re-times its pulses per point.
    """
    points = (replace(config, durations=(t, t, t)) for t in map(float, times))
    return np.array([jz_moments(final_state(point, axis))[0] for point in points])


def _tangent(config: SchemeConfig, axis: str) -> np.ndarray:
    """One chain pass giving the final state (column 0) and its exact
    derivatives in B_x, B_y, B_z (columns 1-3) as a (dim, 4) block."""
    if config.evolution != "effective":
        raise ValueError("exact state derivatives need effective evolution, "
                         f"got evolution={config.evolution!r}")
    block = _apply_chain(config, _chain(config, axis), tangent=True)
    return block / np.linalg.norm(block[:, 0])


def jz_moments(state: DickeState) -> tuple[float, float]:
    """(<Jz>, <Jz^2>) of the readout observable, read off the diagonal."""
    amps = state.amplitudes
    prob = amps.real * amps.real + amps.imag * amps.imag
    m = state.dims.m_values
    return float(prob @ m), float(prob @ (m * m))


# Sequential S and dS[a] by probe, from the k-scaled phases' sines, cosines and parity s
_SEQUENTIAL_TERMS = {
    "scs": {"S": lambda sa, ca, sb, cb, sc, cc, s: -(ca * sb * cc + sa * sc),
            "x": lambda sa, ca, sb, cb, sc, cc, s: sa * sb * cc - ca * sc,
            "y": lambda sa, ca, sb, cb, sc, cc, s: -ca * cb * cc,
            "z": lambda sa, ca, sb, cb, sc, cc, s: ca * sb * sc - sa * cc},
    "ghz": {"S": lambda sa, ca, sb, cb, sc, cc, s: ca * cb * sc - s * sa * cc,
            "x": lambda sa, ca, sb, cb, sc, cc, s: -sa * cb * sc - s * ca * cc,
            "y": lambda sa, ca, sb, cb, sc, cc, s: -ca * sb * sc,
            "z": lambda sa, ca, sb, cb, sc, cc, s: ca * cb * cc + s * sa * sc},
}


def signal_terms(scheme: str, probe: str, n: int, phase_x, phase_y, phase_z,
                 axis: str | None = None):
    """Normalized closed-form signal S, <Jz> = (N/2) S, and dS[a] = dS/d(k phi_a).

    k is 1 for the product probe and N for the cat probe, the phase the
    precision prefactors 1/(sqrt(N) gamma T) and 1/(N gamma T) expect.  This
    and _SEQUENTIAL_TERMS are the one home of the readout-sign table of
    docs/conventions.md: the parity s = (-1)^J, the minus of the sequential
    product probe and the -s of the parallel cat-probe x readout.  For the
    parallel scheme `axis` selects the device and only its phase enters; a
    given `axis` is dS's one key.  The cat probe needs even N.  Sines and
    cosines come from numpy, which broadcasts; scalar phases give np.float64.
    """
    keys = AXES if axis is None and scheme == "sequential" else (axis,)
    s, *ds = _terms(scheme, probe, n, (phase_x, phase_y, phase_z), axis, ("S",) + keys)
    return s, dict(zip(keys, ds))


def _parity(scheme, probe, n, axis) -> float:
    """(-1)^J of a configuration that has closed forms; refuses the others."""
    if probe not in PROBES:
        raise ValueError(f"unknown probe {probe!r}")
    if probe == "ghz" and n % 2:
        raise AnalyticBranchError(f"ghz closed forms need even N, got N={n}")
    if scheme == "parallel" and axis not in AXES:
        raise ValueError("parallel closed form needs an axis")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return -1.0 if (n // 2) % 2 else 1.0


def _terms(scheme, probe, n, phases, axis, keys) -> list:
    """S for the key "S" and dS[key] for an axis, for each key (see signal_terms)."""
    parity = _parity(scheme, probe, n, axis)
    phases = [np.asarray(p, dtype=float) for p in phases]
    if probe == "ghz":
        phases = [n * p for p in phases]
    if scheme == "parallel":
        phase = phases[AXES.index(axis)]
        sign = -parity if probe == "ghz" and axis == "x" else 1.0
        return [sign * (np.sin(phase) if key == "S" else np.cos(phase)) for key in keys]
    a, b, c = phases
    terms = _SEQUENTIAL_TERMS[probe]
    trig = np.sin(a), np.cos(a), np.sin(b), np.cos(b), np.sin(c), np.cos(c), parity
    return [terms[key](*trig) for key in keys]


def closed_form_jz(scheme: str, probe: str, n: int, phase_x, phase_y, phase_z,
                   axis: str | None = None):
    """Vectorized closed-form <Jz> = (N/2) S (see signal_terms)."""
    s, = _terms(scheme, probe, n, (phase_x, phase_y, phase_z), axis, ("S",))
    return (n / 2.0) * s


def closed_form_jz2(scheme: str, probe: str, n: int, phase_x, phase_y, phase_z,
                    axis: str | None = None):
    """Vectorized closed-form <Jz^2>: N/4 + N(N-1)/4 S^2 for the product
    probe, exactly N^2/4 for the cat probe."""
    s, = _terms(scheme, probe, n, (phase_x, phase_y, phase_z), axis, ("S",))
    if probe == "scs":
        return n / 4.0 + (n * (n - 1) / 4.0) * s**2
    return (n * n / 4.0) * np.ones_like(s)


def closed_form_delta_b(scheme: str, probe: str, n: int, axis: str, gamma_t,
                        phase_x, phase_y, phase_z):
    """Vectorized closed-form single-shot precision dJz / |d<Jz>/dB_axis|.

    gamma_t is gamma T_axis.  Parallel devices give the flat bounds
    1/(sqrt(N) gamma T) and 1/(N gamma T), the phase dependence of dJz and of
    the slope cancelling; the sequential readout gives that prefactor times
    sqrt(1 - S^2) / |dS_axis|.  Sequential blind spots (|dS| < 1e-12), T = 0
    and points where 1 - S^2 rounds to 0, which leaves no noise to propagate,
    are inf.  Scalar phases take _delta_b_kernel and give a float; arrays
    take _delta_b_arrays, or the flat bound for the parallel scheme.
    """
    phases = (phase_x, phase_y, phase_z)
    if all(isinstance(p, float) or np.ndim(p) == 0 for p in phases):
        return _delta_b_kernel(scheme, probe, n, axis, gamma_t)(*phases)
    if scheme != "parallel":
        db, = _delta_b_arrays(scheme, probe, n, gamma_t, phases, (axis,))
        return db
    s, = _terms(scheme, probe, n, phases, axis, ("S",))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        db = (1.0 / np.float64(_precision_scale(probe, n, gamma_t))) * np.ones_like(s)
    return np.where(db > 0.0, db, np.inf)


def _precision_scale(probe: str, n: int, gamma_t):
    """sqrt(N) gamma T (product probe) or N gamma T (cat probe): 1 / the flat bound."""
    return (math.sqrt(n) if probe == "scs" else n) * gamma_t


def _delta_b_arrays(scheme, probe, n, gamma_t, phases, axes) -> list:
    """Sequential dB_a at array phases, for each axis a in `axes`.

    One _terms call gives S and every dS_a; prefactor sqrt(1 - S^2) is formed
    once and divided by each |dS_a|, so every axis gets the bits a call for it
    alone would.  minimized_delta_b runs its grid through here, all three axes
    in one pass.  The steps run in place on the fresh S and dS arrays, which
    keeps a grid slab's temporaries few enough to stay in cache.  A dB that is
    NaN or not > 0 becomes inf, as does one below the |dS| floor; that covers
    1 - S^2 <= 0 (sqrt gives NaN or 0), and an inf dB stays inf, so neither a
    clamp nor a finiteness test is needed.
    """
    s, *ds = _terms(scheme, probe, n, phases, None, ("S", *axes))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        noise = np.square(s, out=s)
        np.subtract(1.0, noise, out=noise)
        np.sqrt(noise, out=noise)
        np.multiply(1.0 / np.float64(_precision_scale(probe, n, gamma_t)), noise, out=noise)
        out = []
        for d in ds:
            slope = np.abs(d, out=d)
            ok = slope >= 1e-12
            db = np.divide(noise, slope, out=slope)
            ok &= db > 0.0
            out.append(np.where(ok, db, np.inf))
    return out


def _delta_b_kernel(scheme: str, probe: str, n: int, axis: str, gamma_t):
    """closed_form_delta_b for one (probe, N, axis, gamma T) as a function of
    three scalar phases, the one scalar path.

    It holds the parity, k, the S and dS_axis entries of _SEQUENTIAL_TERMS and
    1/scale, and takes math's sines and cosines of the k-scaled phases, so
    minimized_delta_b's polish builds it once per axis and calls it directly.
    An infinite phase, whose S is NaN, gives inf.
    """
    parity = _parity(scheme, probe, n, axis)
    scale = _precision_scale(probe, n, gamma_t)
    inverse = 1.0 / scale if scale > 0.0 else 0.0  # 0 makes every dB inf
    if scheme == "parallel":
        flat = inverse if inverse > 0.0 else math.inf
        return lambda *phases: flat
    s_of, ds_of = _SEQUENTIAL_TERMS[probe]["S"], _SEQUENTIAL_TERMS[probe][axis]
    k = n if probe == "ghz" else 1
    sin, cos, sqrt, inf = math.sin, math.cos, math.sqrt, math.inf

    def kernel(phase_x, phase_y, phase_z):
        a, b, c = k * phase_x, k * phase_y, k * phase_z
        try:
            trig = sin(a), cos(a), sin(b), cos(b), sin(c), cos(c), parity
        except ValueError:
            return inf
        s, slope = s_of(*trig), abs(ds_of(*trig))
        noise = 1.0 - s**2
        if slope >= 1e-12 and noise > 0.0:
            db = inverse * sqrt(noise) / slope
            if db > 0.0:
                return db
        return inf

    return kernel


def analytic_jz(config: SchemeConfig, axis: str | None = None) -> float:
    return float(closed_form_jz(config.scheme, config.probe, config.dims.N,
                                *config.phases, axis))


def analytic_jz2(config: SchemeConfig, axis: str | None = None) -> float:
    return float(closed_form_jz2(config.scheme, config.probe, config.dims.N,
                                 *config.phases, axis))


def analytic_delta_b(config: SchemeConfig, axis: str) -> float:
    """Closed-form single-shot precision for B_axis (see closed_form_delta_b)."""
    gamma_t = config.field.gamma * config.duration(axis)
    return float(closed_form_delta_b(config.scheme, config.probe, config.dims.N,
                                     axis, gamma_t, *config.phases))


def qfi_analytic(config: SchemeConfig, axis: str) -> QFIVariants:
    """Closed-form quantum Fisher information for B_axis.

    Returns both candidate forms.  They differ only for the sequential
    cat probe on y and z; there the appendix forms (N-fold phases) are the
    ones the numeric QFI reproduces, so downstream consumers should prefer
    `.appendix`.
    """
    n = config.dims.N
    _parity(config.scheme, config.probe, n, axis)  # odd-N cat refuses
    px, py, _ = config.phases
    gamma_t_sq = _square(config.field.gamma * config.duration(axis))
    scale = (n if config.probe == "scs" else n * n) * gamma_t_sq
    if config.scheme == "parallel" or axis == "x":
        return QFIVariants(scale, scale)
    if axis == "y":
        main = scale * math.cos(px) ** 2
        appendix = scale * math.cos(n * px) ** 2
    else:
        main = scale * (1.0 - math.cos(px) ** 2 * math.cos(py) ** 2)
        appendix = scale * (1.0 - math.cos(n * px) ** 2 * math.sin(n * py) ** 2)
    return QFIVariants(main, main if config.probe == "scs" else appendix)


def _square(x: float) -> float:
    """x**2, saturating to inf where the float power would raise OverflowError."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** 2)


def _axis_figures(config: SchemeConfig, block: np.ndarray, axes):
    """(<Jz>, <Jz^2>, dJz, slope, QFI F, sqrt(F)) for B_a, for each axis a in `axes`,
    from a tangent block, its state (column 0) read once.

    Each is taken about the state so that none cancels as |<Jz>| nears J or
    the QFI nears 0: dJz^2 = <(Jz - <Jz>)^2>, the slope 2 Re<psi|(Jz - <Jz>)|d psi>
    (the raw 2 Re<psi|Jz|d psi>, as Re<psi|d psi> = 0) and the QFI
    4 |d psi - psi <psi|d psi>|^2 (= 4 (|d psi|^2 - |<psi|d psi>|^2), never < 0).
    Where F overflows it is inf, and sqrt(F) is taken from the rescaled norm.
    """
    psi = block[:, 0]
    jz, jz2 = jz_moments(DickeState(config.dims, psi))
    centred = config.dims.m_values - jz
    delta_jz = math.sqrt(np.vdot(psi, centred * centred * psi).real)
    for axis in axes:
        dpsi = block[:, 1 + AXES.index(axis)]
        slope = 2.0 * float(np.vdot(psi, centred * dpsi).real)
        perp = dpsi - psi * np.vdot(psi, dpsi)
        qfi = 4.0 * float(np.vdot(perp, perp).real)
        if math.isfinite(qfi):
            yield jz, jz2, delta_jz, slope, qfi, math.sqrt(qfi)
            continue
        big = float(np.max(np.abs(perp)))
        yield jz, jz2, delta_jz, slope, math.inf, 2.0 * big * float(np.linalg.norm(perp / big))


def _delta_b(config: SchemeConfig, axis: str, delta_jz: float, slope: float) -> float:
    """dJz / |slope|, or inf at a blind spot.

    The slope is (N/2) k gamma T_a dS_a (k = 1 product probe, N cat probe;
    see signal_terms), so the axis is blind where |slope| <= 1e-12 of that
    scale, the closed form's |dS| floor in the slope's own units.
    """
    k = 1 if config.probe == "scs" else config.dims.N
    scale = config.dims.N / 2.0 * k * abs(config.field.gamma * config.duration(axis))
    return math.inf if abs(slope) <= 1e-12 * scale else delta_jz / abs(slope)


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


def precision_report(config: SchemeConfig, eta: int = 1) -> PrecisionReport:
    """Assemble analytic and numeric precision figures for each axis.

    This is the one numeric per-axis path: one tangent pass for the
    sequential device, one per device for the parallel scheme.  eta is the
    number of independent trials entering the Cramer-Rao bound 1/sqrt(eta F),
    formed as 1/(sqrt(F) sqrt(eta)) so that no product overflows.
    On every axis that is not a blind spot the single-shot numeric precision
    must respect the single-trial bound to a relative 1e-9; a violation
    raises BoundViolationError.
    """
    if eta < 1:
        raise ValueError("eta must be a positive trial count")
    entries = []
    groups = [AXES] if config.scheme == "sequential" else [(axis,) for axis in AXES]
    figures = [row for axes in groups
               for row in _axis_figures(config, _tangent(config, axes[0]), axes)]
    for axis, (jz, jz2, delta_jz, slope, qfi_num, root_qfi) in zip(AXES, figures):
        db_num = _delta_b(config, axis, delta_jz, slope)
        variants = qfi_analytic(config, axis)
        db_ana = analytic_delta_b(config, axis)
        qcrb = math.inf if root_qfi <= 0 else 1.0 / (root_qfi * math.sqrt(eta))
        gamma_t = config.field.gamma * config.duration(axis)
        qfi_scale = _square(config.dims.N * max(gamma_t, 1e-300))
        blind = math.isinf(db_ana) or qfi_num < BLIND_SPOT_QFI_FLOOR * qfi_scale
        if not blind and root_qfi > 0:
            bound = 1.0 / root_qfi
            if db_num < bound * (1.0 - 1e-9):
                raise BoundViolationError(
                    f"precision beats the quantum bound on axis {axis}: "
                    f"{db_num} < {bound}"
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
