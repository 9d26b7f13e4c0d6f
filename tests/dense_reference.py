"""The tests' dense reference, criterion 10's: J_a as a frozen matrix (`op`), every
dense step applied from its generator's cached spectral basis (`dense_step`,
`validation._dense_step`), the dense probe (`probe_vector`) and a chain applied
one dense step at a time from it (`validation._dense_chain`)."""

import math

import numpy as np

from vecmag import spin
from vecmag.validation import (_axis_matrix as op, _dense_chain, _dense_probe as probe_vector,
                               _dense_step as dense_step)


def dense_element(N, u, psi=None):
    """The dense image of U = [[a, b], [-b*, a*]], u = (a, b), or that image times psi,
    as R_z(alpha) R_x(beta) R_z(gamma) with alpha = -arg a - arg(ib), beta =
    2 atan2(|b|, |a|) and gamma = -arg a + arg(ib): from the half-angle phases this
    product is U itself, not -U, so the image is U's, global phase included."""
    a, b = complex(u[0]), complex(u[1])
    arg_a = math.atan2(a.imag, a.real)
    if b == 0:
        steps = [("z", -2.0 * arg_a)]
    else:
        arg_ib = math.atan2(b.real, -b.imag)
        steps = [("z", -arg_a - arg_ib), ("x", 2.0 * math.atan2(abs(b), abs(a))),
                 ("z", -arg_a + arg_ib)]
    for axis, theta in reversed(steps):
        psi = dense_step(N, "rot", axis, theta, psi)
    return psi


def free_unitary(dims, fv, t):
    """e^{-i t H_B} as the runtime builds it, one SU(2) pair (`spin._free_su2`), imaged densely."""
    return dense_element(dims.N, spin._free_su2(fv, t))


def dense_chain(cfg, axis, literal, tangent):
    """The chain applied step by step from the probe vector with dense unitaries,
    normalized as final_state and _tangent normalize: the (dim, 4) tangent block,
    or its state column."""
    block = _dense_chain(cfg, axis, literal)
    block /= np.linalg.norm(block[:, 0])
    return block if tangent else block[:, 0]
