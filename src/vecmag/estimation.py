"""Field recovery from sampled readout signals, plus precision scaling fits.

The sequential scheme run with equal interrogation times Tx = Ty = Tz = T
produces a multisinusoid <Jz>(T) whose six angular frequencies are
scale*(Bx+By+Bz), scale*(Bx+By-Bz), scale*(Bx-By+Bz), scale*(Bx-By-Bz),
scale*(Bx+Bz) and scale*(Bx-Bz), where scale is 1 for the product probe
and N for the cat probe.  This module samples the trace, locates the six
peaks in its FFT magnitude spectrum, inverts them into field components,
and fixes signs by least-squares against the trace.

recover_field assumes the regime Bx > By + Bz >= 0, where all six
frequencies are positive; anything that folds a reconstructed frequency
through zero is reported as out-of-regime rather than unfolded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import AmbiguousSignError, OutOfRegimeError, UnderResolvedError
from .schemes import (
    SchemeConfig,
    _delta_b_arrays,
    _delta_b_kernel,
    closed_form_delta_b,
    closed_form_jz,
    simulated_jz,
)
from .spin import AXES, _frozen, _is_count

SIGN_CHOICES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))

# Local maxima below this fraction of the strongest one are treated as
# window sidelobes (first rectangular sidelobe is ~0.22), not signals.
PEAK_FLOOR = 0.25

# points in one slab of minimized_delta_b's grid (128 KiB of float)
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """<Jz> sampled on a uniform time grid, with the probe that made it."""

    times: np.ndarray
    values: np.ndarray
    probe: str
    n: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("trace needs matching 1-d times/values, M >= 2")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("trace times must be uniformly spaced")
        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "values", _frozen(values))

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def scale(self) -> float:
        """Frequency magnification of the probe: N for the cat, 1 otherwise."""
        return float(self.n) if self.probe == "ghz" else 1.0


@dataclass(frozen=True, eq=False)
class FFTSpectrum:
    """One-sided magnitude spectrum on an angular-frequency grid."""

    omegas: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", _frozen(np.asarray(self.omegas, float)))
        object.__setattr__(self, "magnitudes",
                           _frozen(np.asarray(self.magnitudes, float)))

    @property
    def bin_width(self) -> float:
        return float(self.omegas[1] - self.omegas[0])

    def __iter__(self):
        return iter(zip(self.omegas.tolist(), self.magnitudes.tolist()))


@dataclass(frozen=True)
class SpectrumPeak:
    """One refined spectral line: angular frequency and magnitude."""

    omega: float
    amplitude: float

    def __post_init__(self):
        if self.omega < 0 or self.amplitude < 0:
            raise ValueError("peak frequency and amplitude must be nonnegative")


@dataclass(frozen=True)
class RecoveredField:
    """Field estimate from one spectrum.

    by and bz are unsigned magnitudes until resolve_signs stamps them;
    residual is the least-squares misfit of that sign fit (NaN before).
    """

    bx: float
    by: float
    bz: float
    method: str
    residual: float
    scale: float


def sample_signal(config: SchemeConfig, t_max: float, m: int) -> SignalTrace:
    """Sample the sequential <Jz>(T) on the FFT grid T_k = k*t_max/m.

    Effective evolution takes the closed form, so an odd-N cat probe (inert
    twist readout) raises AnalyticBranchError; exact pulsed evolution
    simulates each grid point, which is slow and meant for spot checks.
    """
    if config.scheme != "sequential":
        raise ValueError("signal traces are defined for the sequential scheme")
    if not _is_count(m) or m < 2 or m & (m - 1):
        raise ValueError(f"sample count m must be a power of two, at least 2, got {m!r}")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max!r}")
    times = np.arange(m) * (t_max / m)
    if config.evolution == "exact":
        values = simulated_jz(config, times)
    else:
        couplings = [config.field.coupling(ax) for ax in AXES]
        values = closed_form_jz("sequential", config.probe, config.dims.N,
                                couplings[0] * times, couplings[1] * times,
                                couplings[2] * times)
    return SignalTrace(times, values, config.probe, config.dims.N)


def fft_spectrum(trace: SignalTrace) -> FFTSpectrum:
    """One-sided FFT magnitude |rfft|/M against angular frequency.

    A component A*sin(w T) appears as a line of magnitude A/2 at omega=w
    (up to leakage); the DC bin is kept in the output but never counts as
    a peak.
    """
    m = trace.times.size
    magnitudes = np.abs(np.fft.rfft(trace.values)) / m
    omegas = 2.0 * math.pi * np.fft.rfftfreq(m, d=trace.spacing)
    return FFTSpectrum(omegas, magnitudes)


def _refine_peak(spectrum: FFTSpectrum, i: int) -> SpectrumPeak:
    # Quadratic vertex through the log-magnitudes of the bin and its
    # neighbors; exact for a Gaussian line, good to ~0.2 bin here.
    mags = spectrum.magnitudes[i - 1:i + 2]
    if min(mags[0], mags[2]) <= 1e-9 * mags[1]:
        # A neighbor at round-off level means the line sits on the grid;
        # interpolating through noise would only shift it off.
        return SpectrumPeak(i * spectrum.bin_width, float(mags[1]))
    a, b, c = np.log(np.maximum(mags, 1e-300))
    denom = a - 2.0 * b + c
    shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
    shift = min(0.5, max(-0.5, shift))
    omega = (i + shift) * spectrum.bin_width
    amplitude = math.exp(b - 0.25 * (a - c) * shift)
    return SpectrumPeak(omega, amplitude)


def extract_peaks(spectrum: FFTSpectrum, count: int = 6) -> list[SpectrumPeak]:
    """The `count` strongest spectral lines, sub-bin refined.

    Local maxima closer than 2 bins to a stronger one are
    absorbed into it, and maxima below PEAK_FLOOR of the strongest are
    dropped as sidelobes.  Fewer survivors than requested raises
    UnderResolvedError carrying the found count.
    """
    if count < 1:
        raise ValueError("count must be positive")
    mags = spectrum.magnitudes
    if mags.size < 3:
        raise UnderResolvedError(count, 0)
    interior = np.arange(1, mags.size - 1)
    is_max = (mags[interior] > mags[interior - 1]) & (mags[interior] > mags[interior + 1])
    candidates = interior[is_max]
    if candidates.size == 0:
        raise UnderResolvedError(count, 0)
    floor = PEAK_FLOOR * float(mags[candidates].max())
    candidates = [int(i) for i in candidates[mags[candidates] >= floor]]
    candidates.sort(key=lambda i: -mags[i])
    kept: list[int] = []
    for i in candidates:
        if all(abs(i - j) >= 2 for j in kept):
            kept.append(i)
    if len(kept) < count:
        raise UnderResolvedError(count, len(kept))
    peaks = [_refine_peak(spectrum, i) for i in kept[:count]]
    peaks.sort(key=lambda p: -p.amplitude)
    return peaks


def _check_regime(bx: float, by: float, bz: float, scale: float) -> None:
    if by < 0 or bz < 0:
        raise OutOfRegimeError(
            f"recovered magnitudes went negative (|By|={by:.6g}, |Bz|={bz:.6g}); "
            "field outside the Bx > By + Bz >= 0 regime"
        )
    lines = (bx + by + bz, bx + by - bz, bx - by + bz,
             bx - by - bz, bx + bz, bx - bz)
    if any(scale * w <= 0 for w in lines):
        raise OutOfRegimeError(
            "reconstructed frequency set is not strictly positive; "
            "field outside the Bx > By + Bz >= 0 regime"
        )


def recover_field(peaks, scale: float = 1.0,
                  method: str = "amplitude-rule") -> RecoveredField:
    """Invert six spectral lines into (Bx, |By|, |Bz|).

    amplitude-rule (default): the two strongest lines are Bx +- Bz (their
    written amplitude is twice the others'), giving Bx and |Bz| directly;
    the two remaining lines farthest from Bx sit at Bx +- (By + Bz), so
    |By| is their mean distance minus |Bz|.

    pair-spread-rule: Bx is the mean of all six lines; the six distances
    to Bx pair up into three levels, the middle level is taken as |Bz|
    and half the spread between the outer levels as |By|.  Kept verbatim
    for comparison: its ordering assumption fails for |By| > |Bz|, where
    it returns the wrong components by design.
    """
    peaks = sorted(peaks, key=lambda p: -p.amplitude)
    if len(peaks) != 6:
        raise ValueError(f"recovery needs exactly 6 peaks, got {len(peaks)}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    if method == "amplitude-rule":
        w5, w6 = peaks[0].omega, peaks[1].omega
        bx = (w5 + w6) / (2.0 * scale)
        bz = abs(w5 - w6) / (2.0 * scale)
        deviations = sorted(abs(p.omega / scale - bx) for p in peaks[2:])
        by = (deviations[2] + deviations[3]) / 2.0 - bz
    elif method == "pair-spread-rule":
        bx = sum(p.omega for p in peaks) / (6.0 * scale)
        deviations = sorted(abs(p.omega / scale - bx) for p in peaks)
        levels = [(deviations[0] + deviations[1]) / 2.0,
                  (deviations[2] + deviations[3]) / 2.0,
                  (deviations[4] + deviations[5]) / 2.0]
        bz = levels[1]
        by = (levels[2] - levels[0]) / 2.0
    else:
        raise ValueError(f"unknown recovery method {method!r}")
    _check_regime(bx, by, bz, scale)
    return RecoveredField(bx, by, bz, method, math.nan, scale)


def resolve_signs(candidate: RecoveredField, trace: SignalTrace,
                  on_tie: str = "error") -> RecoveredField:
    """Pick signs for By and Bz by least squares against the trace.

    All four assignments are scored; an exact symmetry of the readout
    (the cat-probe signal is even in By, any probe's near-zero trace)
    makes several tie.  on_tie="error" (default) raises in that case;
    on_tie="positive" keeps the first tied assignment in the order
    (+,+), (+,-), (-,+), (-,-), i.e. prefers non-negative components.
    """
    if on_tie not in ("error", "positive"):
        raise ValueError(f"unknown tie policy {on_tie!r}")
    by, bz = abs(candidate.by), abs(candidate.bz)
    residuals = []
    for sy, sz in SIGN_CHOICES:
        model = closed_form_jz(
            "sequential", trace.probe, trace.n,
            candidate.bx * trace.times, sy * by * trace.times,
            sz * bz * trace.times)
        residuals.append(float(np.sum((model - trace.values) ** 2)))
    best = min(residuals)
    tied = [signs for signs, r in zip(SIGN_CHOICES, residuals) if r - best <= 1e-9]
    if len(tied) > 1 and on_tie == "error":
        raise AmbiguousSignError(tied)
    sy, sz = tied[0]
    return RecoveredField(candidate.bx, sy * by, sz * bz,
                          candidate.method, best, candidate.scale)


def recover_from_trace(trace: SignalTrace, method: str = "amplitude-rule",
                       on_tie: str = "error"):
    """Full pipeline: FFT, peak extraction, inversion, sign fit.

    Returns (recovered, spectrum, peaks) so callers can persist the
    intermediate products.
    """
    spectrum = fft_spectrum(trace)
    peaks = extract_peaks(spectrum)
    candidate = recover_field(peaks, trace.scale, method)
    return resolve_signs(candidate, trace, on_tie), spectrum, peaks


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln N, ln dB)."""

    slope: float
    intercept: float
    r_squared: float


def scaling_fit(points) -> ScalingFit:
    """Fit ln(dB) = slope*ln(N) + intercept over (N, dB) pairs, at least
    three distinct N: fewer leave the line undetermined."""
    points = list(points)
    if len({n for n, _ in points}) < 3:
        raise ValueError("scaling fit needs at least 3 distinct N")
    if any(n <= 0 or db <= 0 for n, db in points):
        raise ValueError("scaling fit needs positive N and dB")
    x = np.log([n for n, _ in points])
    y = np.log([db for _, db in points])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2)


_XATOL, _FATOL, _MAXITER, _MAXFEV = 1e-10, 1e-14, 4000, 8000  # Nelder-Mead polish


class _BudgetSpent(Exception):
    """The polish has made its _MAXFEV objective calls."""


def _nelder_mead(objective, start) -> float:
    """Lowest value of `objective` (3 floats -> float, never NaN) the Nelder-Mead
    simplex (Comput. J. 7, 308 (1965)) reaches from `start`: scipy's steps with
    the constants above, so its value bit for bit (same first simplex, budget
    check, centroid order, and np.argsort ranking, unlike a stable sort's).
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= _MAXFEV:
            raise _BudgetSpent
        calls += 1
        return objective(x)

    def ranked(sim, fsim):  # sorted orders distinct values as np.argsort does
        order = np.argsort(fsim) if len(set(fsim)) < 4 else sorted(range(4), key=fsim.__getitem__)
        return [sim[i] for i in order], [fsim[i] for i in order]

    def toward(a, b):  # a xbar - b worst, read at call time
        return [a * p - b * q for p, q in zip(xbar, worst)]

    sim = [list(start) for _ in range(4)]
    for k in range(3):
        sim[k + 1][k] = 1.05 * start[k] if start[k] != 0 else 0.00025
    sim, fsim = ranked(sim, [f(x) for x in sim])
    iterations = 1
    while calls < _MAXFEV and iterations < _MAXITER:
        try:
            best, worst = sim[0], sim[-1]
            if (all(abs(v - w) <= _XATOL for x in sim[1:] for v, w in zip(x, best))
                    and all(abs(fsim[0] - fx) <= _FATOL for fx in fsim[1:])):
                break
            xbar = [(p + q + r) / 3 for p, q, r in zip(*sim[:-1])]
            fxr = f(xr := toward(2, 1))
            if fxr < fsim[0]:
                fxe = f(xe := toward(3, 2))
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                fxc = f(xc := toward(1.5, 0.5) if outside else toward(0.5, -0.5))
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, 4):
                        sim[j] = [p + 0.5 * (q - p) for p, q in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = ranked(sim, fsim)
    return min(fsim)


def minimized_delta_b(scheme: str, probe: str, n: int,
                      duration: float = 1.0) -> tuple[float, float, float]:
    """Best achievable closed-form (dB_x, dB_y, dB_z), each over B in (0, pi/T)^3,
    T finite > 0 with pi/T finite.

    Parallel devices have field-independent precision, read at one point.
    Sequential readouts are minimized on a coarse grid (max(24, 2N) points per
    axis, for the cat probe's N-fold fringes), all three axes in one pass of
    _delta_b_arrays per slab, then each axis is polished by _nelder_mead from
    its own best grid point on the scalar _delta_b_kernel.
    """
    if not (math.isfinite(duration) and duration > 0.0 and math.isfinite(math.pi / duration)):
        raise ValueError(f"duration must be finite and > 0, with pi/duration finite, got {duration!r}")
    if scheme == "parallel":
        return tuple(closed_form_delta_b(scheme, probe, n, axis, duration, 0.0, 0.0, 0.0)
                     for axis in AXES)
    pts = max(24, 2 * n)
    upper = math.pi / duration
    grid = np.linspace(0.0, upper, pts + 2)[1:-1]
    phases = grid * duration
    rows, low, best = max(1, _CHUNK // (pts * pts)), [math.inf] * 3, [(0, 0, 0)] * 3
    for lo in range(0, pts, rows):  # strictly lower slab minima: the cube's first argmin
        slab = (phases[lo:lo + rows, None, None], phases[:, None], phases)
        for a, values in enumerate(_delta_b_arrays(scheme, probe, n, duration, slab, AXES)):
            i = int(np.argmin(values))
            if values.flat[i] < low[a]:
                low[a] = float(values.flat[i])
                best[a] = np.unravel_index(lo * pts * pts + i, (pts,) * 3)
    minima = []
    for a, axis in enumerate(AXES):
        kernel = _delta_b_kernel(scheme, probe, n, axis, duration)

        def objective(b, kernel=kernel):
            bx, by, bz = b
            if 0.0 < bx < upper and 0.0 < by < upper and 0.0 < bz < upper:
                return kernel(bx * duration, by * duration, bz * duration)
            return math.inf

        minima.append(min(low[a], _nelder_mead(objective, grid[list(best[a])].tolist())))
    return tuple(minima)
