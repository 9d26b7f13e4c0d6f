"""The tests' dense reference: every unitary is the spectral decomposition
(`validation._unitary_from_generator`) of a dense generator, and a chain is
applied one dense step at a time (`validation._dense_chain`)."""

import functools
import math

import numpy as np

from vecmag import spin
from vecmag.spin import EnsembleDims
from vecmag.validation import _collective_operator, _dense_chain, _dense_step


def op(N, axis):
    """The dense J_axis at N."""
    return _collective_operator(EnsembleDims(N), axis)


@functools.lru_cache(maxsize=None)
def _cached_step(N, kind, axis, theta):
    return _dense_step.__wrapped__(N, kind, axis, theta)


def dense_step(N, kind, axis, theta):
    """e^{-i theta J_a} ("rot") or e^{-i theta J_a^2} ("twist"), dense; cached up to
    N = 64, so that no large matrix of an arbitrary angle stays in memory."""
    return (_cached_step if N <= 64 else _dense_step.__wrapped__)(N, kind, axis, theta)


def dense_element(N, u, psi=None):
    """The dense image of U = [[a, b], [-b*, a*]], u = (a, b), or that image times psi,
    as R_z(alpha) R_x(beta) R_z(gamma) with alpha = -arg a - arg(ib), beta =
    2 atan2(|b|, |a|) and gamma = -arg a + arg(ib): from the half-angle phases this
    product is U itself, not -U, so the image is U's, global phase included."""
    a, b = complex(u[0]), complex(u[1])
    arg_a = math.atan2(a.imag, a.real)
    if b == 0:
        factors = [dense_step(N, "rot", "z", -2.0 * arg_a)]
    else:
        arg_ib = math.atan2(b.real, -b.imag)
        factors = [dense_step(N, "rot", "z", -arg_a - arg_ib),
                   dense_step(N, "rot", "x", 2.0 * math.atan2(abs(b), abs(a))),
                   dense_step(N, "rot", "z", -arg_a + arg_ib)]
    out = factors.pop() if psi is None else factors.pop() @ psi
    for factor in reversed(factors):
        out = factor @ out
    return out


def free_unitary(dims, fv, t):
    """e^{-i t H_B} as the runtime builds it, one SU(2) pair (`spin._free_su2`), imaged densely."""
    return dense_element(dims.N, spin._free_su2(fv, t))


def probe_vector(dims, probe):
    """The bare probe, e_0 or (e_0 + e_N)/sqrt(2), built entry by entry."""
    psi = np.zeros(dims.dim, dtype=complex)
    if probe == "scs":
        psi[0] = 1.0
    else:
        psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def dense_chain(cfg, axis, literal, tangent):
    """The chain applied step by step from the probe vector with dense unitaries,
    normalized as final_state and _tangent normalize: the (dim, 4) tangent block,
    or its state column."""
    block = _dense_chain(cfg, axis, literal)
    block /= np.linalg.norm(block[:, 0])
    return block if tangent else block[:, 0]
