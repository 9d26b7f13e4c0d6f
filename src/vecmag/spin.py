"""Dicke-basis representation of a collective spin.

N two-level particles in the fully symmetric subspace form a single spin
J = N/2.  Everything in this package lives in the (N+1)-dimensional Dicke
basis |J, m>, ordered by descending m (m = J first).  Every rotation, free
step and pulse block is an SU(2) element (`_su2`, `_free_su2`,
`_pulse_block`), and its image on a probe is a closed-form product state,
O(N) (`probe_image`); the probe states are the identity's images.  A +-pi/2
twist is a sum of two such elements (`_twist_terms`), so every chain is a sum
of probe images, and the half turn in it is a reversal with phases
(`_diagonals`).  `apply_collective` applies a rotated generator n.J.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EnsembleDims",
    "DickeState",
    "FieldVector",
    "apply_collective",
    "probe_image",
    "scs_state",
    "ghz_state",
]

AXES = ("x", "y", "z")
_HALF_TURNS = {"x": (0j, -1j), "y": (0j, -1 + 0j), "z": (-1j, 0j)}  # -i sigma_a, exact


def _is_count(value) -> bool:
    """An integer that is not a bool: True would pass for 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class EnsembleDims:
    """Particle count N with derived total spin J = N/2 and dimension N + 1."""

    N: int

    def __post_init__(self):
        if not _is_count(self.N) or self.N < 1:
            raise ValueError(f"particle count must be a positive integer, got {self.N!r}")

    @property
    def J(self) -> float:
        return self.N / 2.0

    @property
    def dim(self) -> int:
        return self.N + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order: J, J-1, ..., -J."""
        return _diagonals(self.N)[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DickeState:
    """Normalized amplitude vector over |J, m> in descending-m order."""

    dims: EnsembleDims
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dims.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.dims.dim},)")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise ValueError(f"state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FieldVector:
    """Static field (Bx, By, Bz) in angular-frequency units.

    The effective coupling used everywhere is gamma * B_alpha, so with the
    default gamma = 1 the phase accumulated along axis alpha over time
    T_alpha is phi_alpha = B_alpha * T_alpha.
    """

    Bx: float
    By: float
    Bz: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("Bx", "By", "Bz", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"field {name} must be finite, got {getattr(self, name)!r}")

    def component(self, axis: str) -> float:
        return {"x": self.Bx, "y": self.By, "z": self.Bz}[axis]

    def coupling(self, axis: str) -> float:
        """gamma * B_alpha, the angular frequency actually driving axis alpha."""
        return self.gamma * self.component(axis)

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.Bx, self.By, self.Bz)


@lru_cache(maxsize=None)
def _diagonals(N: int):
    """(m, turns) in basis order, once per N: the half turn H_a = e^{-i pi J_a} maps
    the amplitude psi_k to turns[a][k] psi_k at index N - k (x, y) or k (z), with
    (-i)^N (x), (-1)^k (y) and (-i)^N (-1)^k (z); real at even N."""
    m, alt = N / 2.0 - np.arange(N + 1), 1.0 - 2.0 * (np.arange(N + 1) % 2)
    phase = (1.0, -1j, -1.0, 1j)[N % 4]
    turns = {"x": np.full(N + 1, phase), "y": alt, "z": phase * alt}
    return _frozen(m), {a: _frozen(x) for a, x in turns.items()}


@lru_cache(maxsize=None)
def _ladder(N: int) -> np.ndarray:
    # J+ |J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>; in descending-m order these
    # are the first-superdiagonal elements, one per m = J-1, ..., -J.
    dims = EnsembleDims(N)
    m = dims.m_values[1:]
    return _frozen(np.sqrt(dims.J * (dims.J + 1) - m * (m + 1)))


def apply_collective(dims: EnsembleDims, axis: str, psi: np.ndarray,
                     turn: tuple[complex, complex] = (1 + 0j, 0j)) -> np.ndarray:
    """(n.J) psi = D(v) J_axis D(v)^dagger psi for v = `turn` and a complex (dim,) psi, from
    the ladder alone; v (-i sigma_axis) v^dagger = -i n.sigma is (-i n_z, -i (n_x - i n_y))."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    a, b = _compose(_compose(turn, _HALF_TURNS[axis]), (turn[0].conjugate(), -turn[1]))
    out = -a.imag * _diagonals(dims.N)[0] * psi
    out[:-1] += 0.5j * b * _ladder(dims.N) * psi[1:]  # J+ psi
    out[1:] -= 0.5j * b.conjugate() * _ladder(dims.N) * psi[:-1]  # J- psi
    return out


def _su2(axis: str, theta) -> tuple[complex, complex]:
    """The pair (a, b) of e^{-i theta sigma_axis / 2} = [[a, b], [-b*, a*]];
    an ndarray theta gives the pairs of its entries as two arrays."""
    if isinstance(theta, np.ndarray):
        c, s = np.cos(theta / 2.0) + 0j, np.sin(theta / 2.0) + 0j
        return (c - 1j * s, 0 * c) if axis == "z" else (c, -1j * s if axis == "x" else -s)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if axis == "z":
        return complex(c, -s), 0j
    return complex(c), (complex(0.0, -s) if axis == "x" else complex(-s))


def _compose(u: tuple[complex, complex], v: tuple[complex, complex]) -> tuple[complex, complex]:
    """The pair of the SU(2) product u v (v acts first)."""
    (a, b), (c, d) = u, v
    return a * c - b * d.conjugate(), a * d + b * c.conjugate()


@lru_cache(maxsize=None)
def _twist_terms(N: int, axis: str, theta: float):
    """((c, v), (c', v h)) with e^{-i theta J_a^2} = c D(v) + c' D(v h) at theta = sigma pi/2,
    h = -i sigma_a the half turn H_a's pair, from m^2 mod 4 (docs/conventions.md):
    v = 1 and (c, c') = (1 -+ i sigma)/2 at integer J; v = e^{-i pi sigma_a/4} and
    c = -c' = e^{-i sigma pi/8}/sqrt(2) at half-integer J."""
    if abs(theta) != math.pi / 2.0:
        raise ValueError(f"a twist splits into rotations only at +-pi/2, got {theta!r}")
    sigma = math.copysign(1.0, theta)
    if N % 2 == 0:
        v, c, c_turn = (1 + 0j, 0j), complex(0.5, -0.5 * sigma), complex(0.5, 0.5 * sigma)
    else:
        c = complex(math.cos(math.pi / 8.0), -sigma * math.sin(math.pi / 8.0)) / math.sqrt(2.0)
        v, c_turn = _su2(axis, math.pi / 2.0), -c
    return (c, v), (c_turn, _compose(v, _HALF_TURNS[axis]))


def _power(u: tuple[complex, complex], k):
    """u^k for an integer or an integer ndarray k >= 0, in closed form.

    u = s (cos phi - i sin phi n.sigma) with s = sign(Re a) and phi =
    atan2(sqrt(Im a^2 + |b|^2), |Re a|) in [0, pi/2], so u^k = s^k (cos k phi
    - i sin k phi n.sigma); atan2 and the sign keep k phi accurate near
    u = +-1.  sin phi = 0 is u = +-1, whose powers are exact.
    """
    a, b = u
    s = math.copysign(1.0, a.real)
    sin_phi = math.hypot(a.imag, abs(b))
    if sin_phi == 0.0:
        return s ** k + 0j, 0j * k
    phi = math.atan2(sin_phi, abs(a.real))
    sign, scale = s ** k, s * np.sin(k * phi) / sin_phi
    return sign * (np.cos(k * phi) + 1j * a.imag * scale), sign * scale * b


def _free_su2(field: FieldVector, tau: float) -> tuple[complex, complex]:
    """(a, b) of the free step e^{-i tau gamma B.sigma/2}: with b = gamma B,
    a = cos(|b| tau/2) - i (b_z/|b|) sin(|b| tau/2) and b = -(i b_x + b_y)/|b|
    sin(|b| tau/2); |b| = 0 is the identity."""
    bx, by, bz = (field.coupling(ax) for ax in AXES)
    norm = math.hypot(bx, by, bz)
    if norm == 0.0:
        return 1 + 0j, 0j
    c, s = math.cos(norm * tau / 2.0), math.sin(norm * tau / 2.0) / norm
    return complex(c, -bz * s), complex(-by * s, -bx * s)


def _pulse_pair(field: FieldVector, tau: float, first, second):
    """(a, b) of one pulse pair S F P F (F acts first): F is the free step for
    tau (`_free_su2`) and P, S the pulses' pairs; array pairs give one (a, b) per entry."""
    free = _free_su2(field, tau)
    return _compose(second, _compose(free, _compose(first, free)))


def _pulse_block(field: FieldVector, axis: str, pairs, tau: float, mode: str):
    """(a, b) of P^pairs, a block of exact pi-pulse pairs (pairs an integer or an
    integer ndarray): each pulse is the exact half turn H_a, the first -H_a
    (e^{+i pi J_a}) alternating, so no pulse's cos(pi/2) swamps a small tau."""
    turn = _HALF_TURNS[axis]
    first = (-turn[0], -turn[1]) if mode == "alternating" else turn
    return _power(_pulse_pair(field, tau, first, turn), pairs)


@lru_cache(maxsize=None)
def _log_binomial_steps(N: int):
    """The log-binomial row as its rising steps log sqrt(C(N, k) / C(N, k+1)), k < N,
    an array and a list (for `bisect`)."""
    rising = _frozen(-0.5 * np.log((N - np.arange(N)) / np.arange(1.0, N + 1)))
    return rising, rising.tolist()


_ZERO = _frozen(np.zeros(1))


def _product(N: int, elements) -> np.ndarray:
    """One row (up |up> + down |down>)^{(x)N} normalized, sqrt(C(N, k)) up^{N-k} down^k
    on |J, J-k>, for the first column (up, down) = (a, -b*) of each element
    U = [[a, b], [-b*, a*]], u = (a, b), of `elements`.

    Log magnitudes run outward from each row's largest, so none over- or underflows
    and those that carry the state stay a few roundings from exact; a zero up or
    down makes every step +-inf, leaving one basis vector.  A factor z is
    s |z| e^{i phi}, s = sign Re z, |phi| <= pi/2, phi = hi + lo with hi a multiple
    of 2^-38, so k hi is exact for k < 10^4 (+ 0.0 clears a -0.0).  Past that, k hi
    rounds to about k ulps, which bounds the phases' error (docs/conventions.md).
    """
    (rising, rising_list), k = _log_binomial_steps(N), np.arange(N + 1)
    out = np.empty((len(elements), N + 1), dtype=complex)
    for row, (up, b) in zip(out, elements):
        up, down = complex(up), -complex(b).conjugate()
        tilt = math.log(abs(down) / abs(up)) if up and down else (math.inf if down else -math.inf)
        steps = tilt - rising  # log |c_{k+1} / c_k|, falling in k
        top = bisect.bisect_left(rising_list, tilt)  # the count of steps > 0
        mag = np.concatenate((steps[:top], _ZERO, steps[top:]))
        np.add.accumulate(mag[top:], out=mag[top:])
        np.subtract.accumulate(mag[top::-1], out=mag[top::-1])
        mag = np.exp(mag)
        signs = math.copysign(1.0, up.real + 0.0), math.copysign(1.0, down.real + 0.0)
        phi = (math.atan2(signs[0] * up.imag + 0.0, signs[0] * up.real + 0.0),
               math.atan2(signs[1] * down.imag + 0.0, signs[1] * down.real + 0.0))
        hi = round(phi[0] * 2.0**38) * 2.0**-38, round(phi[1] * 2.0**38) * 2.0**-38
        if signs[0] != signs[1]:  # a multiplication by 1 changes no bit
            mag[1::2] *= -1.0
        mag *= signs[0] ** N / math.sqrt(mag @ mag)
        lo = k * complex(0.0, phi[1] - hi[1] - phi[0] + hi[0]) + complex(1.0, N * (phi[0] - hi[0]))
        np.multiply(mag * lo, np.exp(k * complex(0.0, hi[1] - hi[0]) + complex(0.0, N * hi[0])), out=row)
    return out


def probe_image(dims: EnsembleDims, probe: str, elements) -> np.ndarray:
    """D(u) probe for each pair u = (a, b) of `elements`, U = [[a, b], [-b*, a*]], as
    the rows of a (len(elements), dim) array, in closed form and O(N) (Arecchi et
    al., PRA 6, 2211 (1972)): U^{(x)N} takes |J, J> to the product state of U's
    first column (a, -b*), and |J, -J> to that of its second, (b, a*), which is
    the first's reversed, conjugated and signed (-1)^{N-k}."""
    amps = _product(dims.N, elements)
    if probe == "scs":
        return amps
    if probe != "ghz":
        raise ValueError(f"unknown probe {probe!r}")
    flip = amps.conj()
    flip[:, 1::2] *= -1.0
    return (amps + flip[:, ::-1]) * (1.0 / math.sqrt(2.0))


def scs_state(dims: EnsembleDims) -> DickeState:
    """Spin coherent state |J, J>: every particle up, the unentangled probe."""
    return DickeState(dims, probe_image(dims, "scs", [(1 + 0j, 0j)])[0])


def ghz_state(dims: EnsembleDims) -> DickeState:
    """GHZ state (|J, J> + |J, -J>)/sqrt(2), the maximally entangled probe."""
    return DickeState(dims, probe_image(dims, "ghz", [(1 + 0j, 0j)])[0])
