"""Dicke-basis representation of a collective spin.

N two-level particles in the fully symmetric subspace form a single spin
J = N/2.  Everything in this package lives in the (N+1)-dimensional Dicke
basis |J, m>, ordered by descending m (m = J first).  This module builds
the probe states and the propagator kernel for rotations and twists
about x, y and z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EnsembleDims",
    "DickeState",
    "FieldVector",
    "apply_collective",
    "propagate",
    "rotation",
    "twist",
    "scs_state",
    "ghz_state",
]

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class EnsembleDims:
    """Particle count N with derived total spin J = N/2 and dimension N + 1."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
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
        return self.J - np.arange(self.dim)


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

    def component(self, axis: str) -> float:
        return {"x": self.Bx, "y": self.By, "z": self.Bz}[axis]

    def coupling(self, axis: str) -> float:
        """gamma * B_alpha, the angular frequency actually driving axis alpha."""
        return self.gamma * self.component(axis)

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.Bx, self.By, self.Bz)


@lru_cache(maxsize=None)
def _ladder(N: int) -> np.ndarray:
    # J+ |J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>; in descending-m order these
    # are the first-superdiagonal elements, one per m = J-1, ..., -J.
    dims = EnsembleDims(N)
    m = dims.m_values[1:]
    return _frozen(np.sqrt(dims.J * (dims.J + 1) - m * (m + 1)))


def apply_collective(dims: EnsembleDims, axis: str, psi: np.ndarray) -> np.ndarray:
    """J_axis psi for a (dim,) vector, from the ladder coefficients alone."""
    if axis == "z":
        return dims.m_values * psi
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    raised = np.append(_ladder(dims.N) * psi[1:], 0.0)  # J+ psi
    lowered = np.insert(_ladder(dims.N) * psi[:-1], 0, 0.0)  # J- psi
    return (raised + lowered) / 2.0 if axis == "x" else (raised - lowered) / 2.0j


@lru_cache(maxsize=None)
def _jx_basis(N: int):
    """(V, ev, m, r, r*) for the propagator kernel, built once per N.

    V holds the real orthogonal eigenvectors of the real symmetric J_x,
    column k for the exact eigenvalue ev[k] = k - J; the eigenvalues eigh
    returns are discarded.  m is the descending Dicke ladder J, ..., -J
    (the diagonal of J_z) and r = e^{-i pi m / 2} the diagonal of
    R_z(pi/2), which maps J_x onto J_y = R_z(pi/2) J_x R_z(pi/2)^dagger.
    """
    half = _ladder(N) / 2.0
    _, v = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
    m = EnsembleDims(N).m_values
    r = np.exp(-0.5j * np.pi * m)
    return tuple(_frozen(a) for a in (v, m[::-1], m, r, r.conj()))


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z.

    numpy promotes a to a complex copy first, which is the cheapest route
    only for a single short vector.  Otherwise the real and imaginary
    parts of z enter one real product as the columns of a float view of
    z, and a is never copied.
    """
    if z.ndim == 1 and a.shape[0] <= 32:
        return np.dot(a, z)
    z = np.ascontiguousarray(z)
    out = a @ z.view(np.float64).reshape(z.shape[0], -1)
    return out.view(complex).reshape(z.shape)


def propagate(dims: EnsembleDims, axis: str, theta: float | np.ndarray,
              psi: np.ndarray, squared: bool = False) -> np.ndarray:
    """e^{-i theta J_axis} psi, or e^{-i theta J_axis^2} psi when squared.

    psi is a (dim,) amplitude vector or a (dim, k) block of columns; theta
    is one angle, or for a block a (k,) array of one angle per column.  J_z
    is diagonal.  J_x acts through its cached real eigenbasis with the
    exact eigenvalues -J, ..., J (squared for a twist), and J_y reuses that
    basis between the two diagonal factors of R_z(pi/2), so every axis
    costs at most two real matrix products.
    """
    v, ev, m, r, r_conj = _jx_basis(dims.N)
    psi = np.asarray(psi, dtype=complex)
    if isinstance(theta, np.ndarray) and theta.ndim and (
            psi.ndim != 2 or theta.shape != psi.shape[1:]):
        raise ValueError(f"per-column angles of shape {theta.shape} "
                         f"do not match a block of shape {psi.shape}")
    if psi.ndim == 2:
        ev, m, r, r_conj = ev[:, None], m[:, None], r[:, None], r_conj[:, None]
    if axis == "z":
        return np.exp(-1j * theta * (m * m if squared else m)) * psi
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if axis == "y":
        psi = r_conj * psi
    coeff = _real_matmul(v.T, psi)
    coeff *= np.exp(-1j * theta * (ev * ev if squared else ev))
    psi = _real_matmul(v, coeff)
    return r * psi if axis == "y" else psi


def rotation(dims: EnsembleDims, axis: str, theta: float) -> np.ndarray:
    """R_axis(theta) = e^{-i theta J_axis}."""
    return propagate(dims, axis, theta, np.eye(dims.dim))


def twist(dims: EnsembleDims, axis: str, theta: float) -> np.ndarray:
    """e^{-i theta J_axis^2}."""
    return propagate(dims, axis, theta, np.eye(dims.dim), squared=True)


def scs_state(dims: EnsembleDims) -> DickeState:
    """Spin coherent state |J, J>: every particle up, the unentangled probe."""
    amps = np.zeros(dims.dim, dtype=complex)
    amps[0] = 1.0
    return DickeState(dims, amps)


def ghz_state(dims: EnsembleDims) -> DickeState:
    """GHZ state (|J, J> + |J, -J>)/sqrt(2), the maximally entangled probe."""
    amps = np.zeros(dims.dim, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return DickeState(dims, amps)
