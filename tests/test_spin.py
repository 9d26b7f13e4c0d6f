"""Operator algebra, probe states, unitary construction and probe images."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import dense_chain, dense_element, dense_step, free_unitary, op, probe_vector
from vecmag import schemes, spin, validation
from vecmag.schemes import SchemeConfig, analytic_jz, analytic_jz2, final_state
from vecmag.spin import (
    AXES,
    DickeState,
    EnsembleDims,
    FieldVector,
    apply_collective,
    ghz_state,
    probe_image,
    scs_state,
)
from vecmag.validation import _hermitian

PROPERTY_NS = list(range(1, 13)) + [20, 30]


def expectation(state, operator):
    """<psi| operator |psi> of a Hermitian matrix."""
    return np.vdot(state.amplitudes, operator @ state.amplitudes).real


def fidelity(a, b):
    """|<a|b>|^2."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def test_dims_derived_quantities():
    d = EnsembleDims(10)
    assert d.J == 5.0
    assert d.dim == 11
    assert np.array_equal(d.m_values, np.arange(5, -6, -1))


def test_dims_rejects_bad_counts():
    for bad in (0, -3, 2.5, True):
        with pytest.raises((ValueError, TypeError)):
            EnsembleDims(bad)


def test_jz_is_diagonal_m():
    assert np.allclose(op(2, "z"), np.diag([1.0, 0.0, -1.0]))


def test_single_particle_jx_is_half_pauli():
    assert np.allclose(op(1, "x"), [[0, 0.5], [0.5, 0]])


def test_jx_jy_tridiagonal_structure():
    for N in (2, 5, 8):
        for axis in ("x", "y"):
            m = op(N, axis)
            assert np.allclose(np.diag(m), 0)
            off = np.abs(np.triu(m, 2)) + np.abs(np.tril(m, -2))
            assert np.max(off) == 0


def test_commutator_n4():
    jx, jy, jz = (op(4, a) for a in AXES)
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12


@pytest.mark.parametrize("N", PROPERTY_NS)
def test_su2_commutators(N):
    mats = {a: op(N, a) for a in AXES}
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        comm = mats[a] @ mats[b] - mats[b] @ mats[a]
        assert np.linalg.norm(comm - 1j * mats[c]) < 1e-10


@pytest.mark.parametrize("N", PROPERTY_NS)
def test_casimir(N):
    dims = EnsembleDims(N)
    total = sum(op(N, a) @ op(N, a) for a in AXES)
    expected = dims.J * (dims.J + 1) * np.eye(dims.dim)
    assert np.linalg.norm(total - expected) < 1e-10


@pytest.mark.parametrize("N", PROPERTY_NS)
def test_unitarity_and_norm_preservation(N):
    dims = EnsembleDims(N)
    rng = np.random.default_rng(N)
    fv = FieldVector(*rng.uniform(-3, 3, 3), gamma=(1.0, 2.5)[N % 2])
    U = free_unitary(dims, fv, 0.7)
    assert np.linalg.norm(U.conj().T @ U - np.eye(dims.dim)) < 1e-10
    # the Euler-angle free step against the dense eigendecomposition
    reference = dense_step(N, "rot", fv, 0.7)
    assert np.max(np.abs(U - reference)) < 1e-12
    amps = rng.normal(size=dims.dim) + 1j * rng.normal(size=dims.dim)
    amps /= np.linalg.norm(amps)
    assert abs(np.linalg.norm(U @ amps) - 1.0) < 1e-12


@pytest.mark.parametrize("N", PROPERTY_NS)
def test_apply_collective_matches_operator_matrix(N):
    dims = EnsembleDims(N)
    rng = np.random.default_rng(N)
    amps = rng.normal(size=dims.dim) + 1j * rng.normal(size=dims.dim)
    for axis in AXES:
        expected = op(N, axis) @ amps
        assert np.max(np.abs(apply_collective(dims, axis, amps) - expected)) < 1e-12
    with pytest.raises(ValueError):
        apply_collective(dims, "w", amps)


def test_field_hamiltonian_reduces_to_jz():
    # a field along +z or -z generates e^{-+i t Jz}: the polar angle is 0 or pi
    m = EnsembleDims(2).m_values
    for bz in (1.0, -1.0):
        U = free_unitary(EnsembleDims(2), FieldVector(0, 0, bz), 0.3)
        assert np.max(np.abs(U - np.diag(np.exp(-1j * 0.3 * bz * m)))) < 1e-14


def test_field_hamiltonian_zero_field():
    U = free_unitary(EnsembleDims(4), FieldVector(0, 0, 0), 0.9)
    assert np.max(np.abs(U - np.eye(5))) < 1e-14


def test_field_hamiltonian_traceless_hermitian():
    # a Hermitian generator gives a unitary step, a traceless one det U = 1
    U = free_unitary(EnsembleDims(10), FieldVector(4, 5, 6), 0.37)
    assert abs(np.linalg.det(U) - 1.0) < 1e-12
    assert np.max(np.abs(U.conj().T @ U - np.eye(11))) < 1e-12


def test_gamma_scales_coupling():
    dims = EnsembleDims(4)
    a = free_unitary(dims, FieldVector(1, 2, 3, gamma=2.0), 0.4)
    b = free_unitary(dims, FieldVector(2, 4, 6), 0.4)
    assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_unitary_t0_is_identity():
    dims = EnsembleDims(6)
    U = dense_step(dims.N, "rot", "y", 0.0)
    assert np.allclose(U, np.eye(dims.dim))


def test_unitary_diagonal_generator():
    U = dense_step(2, "rot", "z", np.pi)
    assert np.allclose(U, np.diag([np.exp(-1j * np.pi), 1.0, np.exp(1j * np.pi)]))


@pytest.mark.parametrize("N", [*PROPERTY_NS, 400, 401])
def test_cached_basis_steps_match_a_per_call_eigh(N):
    # rotations, +-pi/2 twists and H_B steps from the cached spectral basis, on a
    # vector, a block and the identity, against a fresh eigh of each generator
    dims = EnsembleDims(N)
    rng = np.random.default_rng(900 + N)
    psi = rng.normal(size=(dims.dim, 2)) + 1j * rng.normal(size=(dims.dim, 2))
    psi /= np.linalg.norm(psi, axis=0)
    field = FieldVector(*rng.uniform(-3, 3, 3), gamma=(1.0, 2.5)[N % 2])
    cases = [("rot", a, op(N, a), theta) for a in AXES for theta in (1.3, -2.9)]
    cases += [("twist", a, op(N, a) @ op(N, a), theta) for a in AXES for theta in (np.pi / 2, -np.pi / 2)]
    cases += [("rot", field, sum(field.coupling(a) * op(N, a) for a in AXES), t) for t in (0.37, -1.1)]
    tol = 1e-12 * max(1.0, dims.J)
    for kind, generator, matrix, theta in cases:
        w, v = np.linalg.eigh(matrix)
        want = (v * np.exp(-1j * theta * w)) @ v.conj().T
        for block in (psi, psi[:, 0]):
            assert np.max(np.abs(dense_step(N, kind, generator, theta, block) - want @ block)) <= tol
        if N <= 30:
            assert np.max(np.abs(dense_step(N, kind, generator, theta) - want)) <= tol


def test_dense_reference_diagonalizes_each_generator_once(monkeypatch):
    # repeated dense steps, twists, pulse blocks and chains at one N take one
    # eigendecomposition per generator: J_x, J_y and the one field's H_B; J_z is
    # diagonal and the squares take their axis's basis
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.asarray(a).tobytes())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    validation._spectral_basis.cache_clear()
    dims, field = EnsembleDims(9), FieldVector(0.31, -0.47, 0.23)
    for _ in range(2):
        for axis, theta in product(AXES, (0.4, -1.7, np.pi / 2)):
            dense_step(dims.N, "rot", axis, theta)
            dense_step(dims.N, "twist", axis, theta)
        for scheme, probe, evolution in product(("sequential", "parallel"), ("scs", "ghz"),
                                                ("effective", "exact")):
            cfg = SchemeConfig(scheme, probe, dims, field, (1.3, 0.8, 1.1), evolution, tau=0.05)
            for axis in (AXES if scheme == "parallel" else (None,)):
                dense_chain(cfg, axis, True, False)
                dense_chain(cfg, axis, False, True)
    assert len(calls) == len(set(calls)) == 3


def test_field_vector_refuses_non_finite_components():
    for name in ("Bx", "By", "Bz", "gamma"):
        for value in (math.inf, -math.inf, math.nan):
            components = {"Bx": 0.3, "By": 0.4, "Bz": 0.5, "gamma": 1.0, name: value}
            with pytest.raises(ValueError, match=name):
                FieldVector(**components)


def test_full_turn_parity():
    # integer J: 2 pi rotation is the identity; half-integer J: minus identity
    for N in (2, 3):
        dims = EnsembleDims(N)
        for probe in ("scs", "ghz"):
            got = probe_image(dims, probe, [spin._su2("x", 2 * np.pi)])[0]
            assert np.linalg.norm(got - (-1) ** N * probe_vector(dims, probe)) < 1e-10


def test_exponential_matches_taylor_series():
    dims, fv, t = EnsembleDims(6), FieldVector(0.3, -0.2, 0.45), 0.2
    g = sum(fv.coupling(a) * op(dims.N, a) for a in AXES)
    U = free_unitary(dims, fv, t)
    term = np.eye(dims.dim, dtype=complex)
    series = term.copy()
    for k in range(1, 21):
        term = term @ (-1j * t * g) / k
        series += term
    assert np.max(np.abs(U - series)) < 1e-8


def test_scs_state():
    s = scs_state(EnsembleDims(2))
    assert np.allclose(s.amplitudes, [1, 0, 0])
    s10 = scs_state(EnsembleDims(10))
    assert s10.amplitudes.shape == (11,)
    assert abs(s10.norm - 1) < 1e-12
    assert expectation(s10, op(10, "z")) == pytest.approx(5.0)


def test_ghz_state():
    g = ghz_state(EnsembleDims(2))
    assert np.allclose(g.amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    g10 = ghz_state(EnsembleDims(10))
    assert expectation(g10, op(10, "z")) == pytest.approx(0.0, abs=1e-12)
    assert expectation(g10, op(10, "z") @ op(10, "z")) == pytest.approx(25.0)


def test_variance_nonnegative_and_correct():
    def variance(state, axis):
        m = op(state.dims.N, axis)
        return expectation(state, m @ m) - expectation(state, m) ** 2

    g = ghz_state(EnsembleDims(8))
    assert variance(g, "z") == pytest.approx(16.0)
    s = scs_state(EnsembleDims(8))
    assert variance(s, "z") == pytest.approx(0.0, abs=1e-12)
    # transverse variance of the coherent state is N/4
    assert variance(s, "x") == pytest.approx(2.0)


def test_state_and_operator_reject_dimension_mismatch():
    with pytest.raises(ValueError):
        DickeState(EnsembleDims(6), scs_state(EnsembleDims(4)).amplitudes)
    with pytest.raises(ValueError):
        _hermitian(6, op(4, "z"), "Jz")


def test_fidelity_basics():
    dims = EnsembleDims(10)
    s, g = scs_state(dims), ghz_state(dims)
    assert fidelity(s, s) == pytest.approx(1.0)
    assert fidelity(s, g) == pytest.approx(0.5)
    assert fidelity(g, s) == pytest.approx(0.5)
    e0 = np.zeros(dims.dim, dtype=complex)
    e0[3] = 1.0
    assert fidelity(DickeState(dims, e0), s) == 0.0


def test_state_norm_enforced():
    dims = EnsembleDims(3)
    with pytest.raises(ValueError):
        DickeState(dims, np.ones(dims.dim))
    # an overflowed phase gives NaN amplitudes, whose NaN norm must fail too
    with pytest.raises(ValueError):
        DickeState(dims, np.full(dims.dim, np.nan))


def test_operator_hermiticity_enforced():
    dims = EnsembleDims(2)
    bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        _hermitian(dims.N, bad, "bad")


def test_values_are_immutable():
    m = op(6, "x")
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    s = scs_state(EnsembleDims(6))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


@pytest.mark.parametrize("N", [1, 2, 5, 10, 31])
def test_kernel_matches_spectral_unitaries(N):
    # the kernel is the probe image: rows of one call match the spectral
    # unitaries, and each row is the element's image on its own, bit for bit
    dims = EnsembleDims(N)
    us = [(axis, theta) for axis in AXES for theta in (0.0, -np.pi / 2, 1.3)]
    for probe in ("scs", "ghz"):
        rows = probe_image(dims, probe, [spin._su2(*u) for u in us])
        for (axis, theta), row in zip(us, rows):
            ref = dense_step(N, "rot", axis, theta, probe_vector(dims, probe))
            assert np.max(np.abs(row - ref)) < 1e-12
            assert np.array_equal(row, probe_image(dims, probe, [spin._su2(axis, theta)])[0])


@pytest.mark.parametrize("N", [*range(1, 13), 31, 100, 250, 400])
def test_every_chain_matches_the_spectral_reference(N):
    dims = EnsembleDims(N)
    field = FieldVector(0.31, -0.47, 0.23)
    durations = (1.0, 0.8, 1.2)
    worst = 0.0
    for probe in ("scs", "ghz"):
        for literal in (False, True):
            runs = [("sequential", None)] + [("parallel", axis) for axis in AXES]
            for scheme, axis in runs:
                cfg = SchemeConfig(scheme, probe, dims, field, durations)
                got = final_state(cfg, axis, literal).amplitudes
                want = dense_chain(cfg, axis, literal, False)
                worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-11


def test_chains_at_one_n_share_one_eigendecomposition(monkeypatch):
    # a chain at any N shares the one closed-form image path: no chain, of
    # either probe or parity, takes an eigendecomposition
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for N in (13, 14):
        for cache in (spin._ladder, spin._log_binomial_steps, spin._diagonals, spin._twist_terms):
            cache.cache_clear()
        calls.clear()
        dims = EnsembleDims(N)
        for field in (FieldVector(0.3, 0.4, 0.5), FieldVector(1.1, -0.2, 0.7)):
            for probe in ("scs", "ghz"):
                cfg = SchemeConfig("sequential", probe, dims, field, (1.0, 1.0, 1.0))
                final_state(cfg)
        assert calls == []


@pytest.mark.parametrize("N", range(1, 42))
def test_flip_sector_kernel_matches_spectral_unitaries(N):
    # the flip |J, m> -> |J, -m> (reversal, conjugation, signs (-1)^(N-k)) takes
    # the image of |J, J> to that of |J, -J>, the cat image's second half
    dims = EnsembleDims(N)
    bottom = np.zeros(dims.dim)
    bottom[-1] = 1.0
    tol = 1e-12 * max(1.0, dims.J)
    for axis in AXES:
        for theta in (0.7, -np.pi, 2.9):
            ref = dense_step(N, "rot", axis, theta)
            scs, ghz = (probe_image(dims, probe, [spin._su2(axis, theta)])[0] for probe in ("scs", "ghz"))
            assert np.max(np.abs(np.sqrt(2.0) * ghz - scs - ref @ bottom)) < tol
            assert np.max(np.abs(scs - ref[:, 0])) < tol


@pytest.mark.parametrize("N", [*range(1, 42), 400, 401])
def test_rotate_equals_its_rotations_one_by_one(N):
    # the probe image of a composed element against the probe rotated step by
    # step; a sign slip in the composition (U against -U) shows at half-integer J
    dims = EnsembleDims(N)
    rng = np.random.default_rng(300 + N)
    tol = 1e-12 * max(1.0, dims.J)
    cases = [[(str(rng.choice(list(AXES))), rng.uniform(-4 * np.pi, 4 * np.pi))
              for _ in range(rng.integers(1, 7))] for _ in range(4)]
    cases += [[("z", 0.7), ("z", -2.9)],  # b = 0
              [("x", np.pi / 2), ("x", -np.pi / 2)],  # identity
              [("y", np.pi)], [("x", -np.pi), ("z", 1.1)]]  # beta = pi
    probes = ("scs", "ghz")
    start, checks = np.column_stack([probe_vector(dims, probe) for probe in probes]), []
    for steps in cases:
        u, want = (1 + 0j, 0j), start
        for axis, theta in steps:
            u = spin._compose(spin._su2(axis, theta), u)
            want = dense_step(N, "rot", axis, theta, want)
        checks.append((u, want))
    # |a| = 0 exactly: R_y(pi) = [[0, -1], [1, 0]]
    checks.append(((0j, -1 + 0j), dense_step(N, "rot", "y", np.pi, start)))
    for u, want in checks:
        for column, probe in enumerate(probes):
            assert np.max(np.abs(probe_image(dims, probe, [u])[0] - want[:, column])) <= tol


def quarter_twist_phases(N, sigma):
    """e^{-i sigma pi m^2 / 2} on |J, m>, descending m, from integer arithmetic:
    4 m^2 = (N - 2k)^2, so the phase is e^{-i sigma pi q / 8}, q = (N - 2k)^2 mod 16."""
    q = (N - 2 * np.arange(N + 1)) ** 2 % 16
    return np.exp(-1j * sigma * (np.pi / 8) * q)


# SU(2) pairs that turn z onto each axis: D(w) J_z D(w)^dagger = J_a
TO_AXIS = {"x": spin._su2("y", np.pi / 2), "y": spin._su2("x", -np.pi / 2), "z": (1 + 0j, 0j)}


def twist_split(dims, probe, axis, theta, u):
    """The image of D(u) probe after the twist, as the sum of the two images it splits into."""
    halves = spin._twist_terms(dims.N, axis, theta)
    images = probe_image(dims, probe, [spin._compose(w, u) for _, w in halves])
    return np.array([c for c, _ in halves]) @ images


@pytest.mark.parametrize("N", [*range(1, 42), 400, 401])
def test_quarter_twists_match_the_spectral_unitary(N):
    # e^{-i theta J_a^2} at theta = +-pi/2 on an image, as the two images it splits
    # into; past the dense reference's size, the exact z phases turned onto the axis
    dims = EnsembleDims(N)
    v = np.random.default_rng(500 + N).normal(size=4)
    u = (complex(v[0], v[1]) / np.linalg.norm(v), complex(v[2], v[3]) / np.linalg.norm(v))
    tol = 1e-12 * max(1.0, dims.J)
    images = {probe: probe_image(dims, probe, [u])[0] for probe in ("scs", "ghz")}
    for axis in AXES:
        w = TO_AXIS[axis]
        turn, back = dense_element(N, w), dense_element(N, (w[0].conjugate(), -w[1]))
        for theta in (np.pi / 2, -np.pi / 2):
            for probe, image in images.items():
                if N <= 41:
                    want = dense_step(N, "twist", axis, theta, image)
                else:
                    want = turn @ (quarter_twist_phases(N, np.sign(theta)) * (back @ image))
                assert np.max(np.abs(twist_split(dims, probe, axis, theta, u) - want)) <= tol
    with pytest.raises(ValueError, match="pi/2"):
        spin._twist_terms(4, "x", 0.3)


@pytest.mark.parametrize("sigma", [1, -1])
def test_odd_n_quarter_twist_matches_exact_phases_at_large_n(sigma):
    # the twist's phases e^{-i sigma pi m^2 / 2} at half-integer J = 1001/2, taken
    # from integer arithmetic; theta m^2 phases in floating point are off by 4e-11
    dims, u = EnsembleDims(1001), (complex(0.6, 0.48), complex(0.0, 0.64))
    for probe in ("scs", "ghz"):
        want = quarter_twist_phases(1001, sigma) * probe_image(dims, probe, [u])[0]
        got = twist_split(dims, probe, "z", sigma * np.pi / 2, u)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("N", range(1, 42))
def test_half_turn_phases_match_the_rotation(N):
    # H_a = e^{-i pi J_a} takes amplitude k to turns[a][k] at N - k (x, y) or k (z)
    dims = EnsembleDims(N)
    turns, k = spin._diagonals(N)[1], np.arange(dims.dim)
    for axis in AXES:
        want = np.zeros((dims.dim, dims.dim), dtype=complex)
        want[k if axis == "z" else N - k, k] = turns[axis]
        assert np.max(np.abs(dense_step(N, "rot", axis, np.pi) - want)) <= 1e-13 * dims.dim
        assert np.max(np.abs(dense_element(N, spin._HALF_TURNS[axis]) - want)) <= 1e-13 * dims.dim


@pytest.mark.parametrize("N", PROPERTY_NS)
def test_turned_generator_matches_its_dense_conjugate(N):
    # apply_collective(dims, a, psi, v) = D(v) J_a D(v)^dagger psi, the tap
    # carried past the steps v that follow its free step
    dims = EnsembleDims(N)
    rng = np.random.default_rng(700 + N)
    psi = rng.normal(size=dims.dim) + 1j * rng.normal(size=dims.dim)
    for _ in range(4):
        v = rng.normal(size=4)
        v = (complex(v[0], v[1]) / np.linalg.norm(v), complex(v[2], v[3]) / np.linalg.norm(v))
        turn = dense_element(N, v)
        for axis in AXES:
            want = turn @ op(N, axis) @ turn.conj().T @ psi
            assert np.max(np.abs(apply_collective(dims, axis, psi, v) - want)) < 1e-12 * dims.dim


def test_chains_make_one_x_pass_per_run_of_rotations(monkeypatch):
    # a run of rotations and free steps is one SU(2) element, and a chain forms
    # its terms' images in one probe_image call: one row per term
    passes = []
    image = schemes.probe_image

    def counting(dims, probe, elements):
        passes.append(len(elements))
        return image(dims, probe, elements)

    monkeypatch.setattr(schemes, "probe_image", counting)

    def image_rows(run, *args, **kwargs):
        passes.clear()
        run(*args, **kwargs)
        assert len(passes) == 1
        return passes[0]

    field = FieldVector(0.31, -0.47, 0.23)
    for n in (10, 11):
        dims = EnsembleDims(n)
        cfg = {(scheme, probe): SchemeConfig(scheme, probe, dims, field, (1.0, 0.8, 1.2))
               for scheme in ("parallel", "sequential") for probe in ("scs", "ghz")}
        # the product probe's chain is one run; a cat twist splits the terms in
        # two where a turning run follows it, and at odd N an x or y twist always
        for literal in (False, True):
            assert image_rows(final_state, cfg["sequential", "scs"], literal=literal) == 1
            assert image_rows(final_state, cfg["sequential", "ghz"], literal=literal) == (8 if n % 2 else 2)
            for axis in AXES:
                assert image_rows(final_state, cfg["parallel", "scs"], axis, literal) == 1
                odd = n % 2 and (axis == "z" or not literal)
                assert image_rows(final_state, cfg["parallel", "ghz"], axis, literal) == (2 if odd else 1)
        # a pulse block is one SU(2) element in its run
        for probe, rows in (("scs", 1), ("ghz", 8 if n % 2 else 4)):
            exact = replace(cfg["sequential", probe], evolution="exact", tau=0.01)
            assert image_rows(final_state, exact) == rows
        # a tangent block's taps ride on the terms' images
        assert image_rows(schemes._tangent, cfg["sequential", "scs"], "x") == 1
        assert image_rows(schemes._tangent, cfg["parallel", "scs"], "z") == 1
        assert image_rows(schemes._tangent, cfg["sequential", "ghz"], "x") == (8 if n % 2 else 2)
        for axis in AXES:
            assert image_rows(schemes._tangent, cfg["parallel", "ghz"], axis) == 1 + n % 2


def _full_eigh_kernel(dims, axis, theta, psi):
    """The one-basis reference: eigh of the whole J_x, exact eigenvalues k - J, and
    J_y = R_z(pi/2) J_x R_z(pi/2)^dagger between the diagonals r of R_z(pi/2)."""
    half = spin._ladder(dims.N) / 2.0
    v = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))[1]
    ev = dims.m_values[::-1][:, None]
    r = np.exp(-0.5j * np.pi * dims.m_values)[:, None]
    if axis == "y":
        psi = r.conj() * psi
    psi = v @ (np.exp(-1j * theta * ev) * (v.T @ psi))
    return r * psi if axis == "y" else psi


@pytest.mark.parametrize("N", [400, 401])
def test_flip_sector_kernel_matches_the_full_eigenbasis_at_large_n(N):
    # the x and y rotations' images on both probes, and so the flip between
    # their halves, against the whole J_x eigenbasis with exact eigenvalues
    dims = EnsembleDims(N)
    probes = np.column_stack([probe_vector(dims, probe) for probe in ("scs", "ghz")])
    for axis in ("x", "y"):
        for theta in (1.3, -2.9):
            want = _full_eigh_kernel(dims, axis, theta, probes)
            for column, probe in enumerate(("scs", "ghz")):
                got = probe_image(dims, probe, [spin._su2(axis, theta)])[0]
                assert np.max(np.abs(got - want[:, column])) < 1e-10


def assembled_eigenbasis(N):
    """(V, ev): J_x's eigenbasis assembled as the dense image of the quarter turn
    that takes J_z to J_x (`TO_AXIS`), column k for the eigenvalue ev[k] = m_k."""
    return dense_element(N, TO_AXIS["x"]), EnsembleDims(N).m_values


@pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 10, 40, 41, 400, 401])
def test_assembled_eigenbasis_diagonalizes_jx(N):
    # the dense reference's image of an element and TO_AXIS's convention, directly
    dims = EnsembleDims(N)
    v, ev = assembled_eigenbasis(N)
    assert np.array_equal(ev, dims.J - np.arange(dims.dim))
    assert np.max(np.abs(v.conj().T @ v - np.eye(dims.dim))) < 1e-12
    assert np.max(np.abs(op(N, "x") @ v - v * ev)) < 1e-12 * max(1.0, dims.J)


def test_probe_states_are_the_identity_image_bit_for_bit():
    for n in (1, 2, 3, 10, 11, 1000):
        dims = EnsembleDims(n)
        for probe, state in (("scs", scs_state(dims)), ("ghz", ghz_state(dims))):
            want = probe_vector(dims, probe)
            assert np.array_equal(state.amplitudes, want)
            assert not np.signbit(state.amplitudes.view(float)).any()
    with pytest.raises(ValueError, match="probe"):
        probe_image(EnsembleDims(4), "cat", [(1 + 0j, 0j)])


def su2_pair(kind, theta, phase_a, phase_b):
    """(a, b) of a unit SU(2) element; a = 0, b = 0 and |b| = 1e-300 exactly
    by kind."""
    a, b = np.exp(1j * phase_a), np.exp(1j * phase_b)
    if kind == "a=0":
        return 0j, complex(b)
    if kind == "b=0":
        return complex(a), 0j
    if kind == "tiny b":
        return complex(a), complex(1e-300 * b)
    return complex(math.cos(theta) * a), complex(math.sin(theta) * b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(1, 40), probe=st.sampled_from(("scs", "ghz")),
       kind=st.sampled_from(("random", "random", "a=0", "b=0", "tiny b")),
       theta=st.floats(0.0, math.pi / 2), phase_a=st.floats(-math.pi, math.pi),
       phase_b=st.floats(-math.pi, math.pi))
def test_probe_image_matches_rotating_the_probe_vector(n, probe, kind, theta, phase_a, phase_b):
    dims = EnsembleDims(n)
    u = su2_pair(kind, theta, phase_a, phase_b)
    want = dense_element(n, u, probe_vector(dims, probe))
    assert np.max(np.abs(probe_image(dims, probe, [u])[0] - want)) <= 1e-12


@pytest.mark.parametrize("kind,theta,phase_a,phase_b", [
    ("random", 0.9, 2.1, -0.4), ("random", 1.5, -3.0, 1.2), ("random", 1e-3, 0.3, 3.1),
    ("a=0", 0.0, 0.0, math.pi), ("b=0", 0.0, -1.7, 0.0), ("tiny b", 0.0, 0.5, -2.5)])
def test_probe_image_matches_rotating_the_probe_vector_at_n_1000(kind, theta, phase_a, phase_b):
    dims = EnsembleDims(1000)
    u = su2_pair(kind, theta, phase_a, phase_b)
    want = dense_element(1000, u, np.column_stack([probe_vector(dims, p) for p in ("scs", "ghz")]))
    for column, probe in enumerate(("scs", "ghz")):
        assert np.max(np.abs(probe_image(dims, probe, [u])[0] - want[:, column])) <= 1e-12


@pytest.mark.parametrize("n", [500, 1000])
def test_large_n_chains_match_the_closed_forms(n):
    dims, tol = EnsembleDims(n), 1e-9 * n / 2
    for field in (FieldVector(0.0031, 0.0047, -0.0023), FieldVector(1.1, 0.2, 0.7)):
        for scheme, axes in (("sequential", (None,)), ("parallel", AXES)):
            for probe in ("scs", "ghz"):
                cfg = SchemeConfig(scheme, probe, dims, field, (1.3, 0.8, 1.1))
                for axis in axes:
                    jz, jz2 = schemes.jz_moments(final_state(cfg, axis))
                    assert abs(jz - analytic_jz(cfg, axis)) <= tol, (cfg, axis)
                    assert abs(jz2 - analytic_jz2(cfg, axis)) <= tol, (cfg, axis)


def test_chains_at_n_20000_keep_the_stated_accuracy():
    # past N = 10^4 the products k hi of `spin._product` round: measured at
    # N = 2 10^4, <Jz> is within 3.6e-16 J of the closed form for the product
    # probe and 4.8e-12 J for the cat probe, whose readout takes N-fold phases;
    # the bounds are ten times those (docs/conventions.md)
    n = 20000
    bounds = {"scs": 3.6e-15 * n / 2, "ghz": 4.8e-11 * n / 2}
    for field in (FieldVector(0.31e-4, -0.47e-4, 0.23e-4), FieldVector(1.1, 0.2, 0.7)):
        for scheme, axes in (("sequential", (None,)), ("parallel", AXES)):
            for probe, bound in bounds.items():
                cfg = SchemeConfig(scheme, probe, EnsembleDims(n), field, (1.3, 0.8, 1.1))
                for axis in axes:
                    jz, _ = schemes.jz_moments(final_state(cfg, axis))
                    assert abs(jz - analytic_jz(cfg, axis)) <= bound, (cfg, axis)


def first_chain_peak(monkeypatch, probe, n=1000):
    """tracemalloc peak of a first sequential chain at N from cleared caches,
    with numpy.linalg.eigh refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for cache in (spin._ladder, spin._log_binomial_steps, spin._diagonals, spin._twist_terms):
        cache.cache_clear()
    cfg = SchemeConfig("sequential", probe, EnsembleDims(n),
                       FieldVector(0.3, 0.4, 0.5), (1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        final_state(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_large_chain_stays_within_half_the_dense_basis_memory(monkeypatch):
    # the dense J_x eigenbasis at N = 1001 alone is 7.7 MiB; the odd-N cat
    # probe's chain is eight images of 1002 amplitudes, O(N) memory
    assert first_chain_peak(monkeypatch, "ghz", 1001) < 2**20


def test_first_large_product_probe_chain_builds_no_basis(monkeypatch):
    # the product probe's chain is one run, the probe's image: O(N) memory
    assert first_chain_peak(monkeypatch, "scs") < 2**20


def test_product_probe_chains_build_no_sectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    dims, field = EnsembleDims(300), FieldVector(0.31, -0.47, 0.23)
    for scheme, axes in (("sequential", (None,)), ("parallel", AXES)):
        cfg = SchemeConfig(scheme, "scs", dims, field, (1.0, 0.8, 1.2))
        for axis in axes:
            assert abs(np.linalg.norm(final_state(cfg, axis).amplitudes) - 1.0) < 1e-12
        exact = final_state(replace(cfg, evolution="exact", tau=0.01), axes[0]).amplitudes
        assert abs(np.linalg.norm(exact) - 1.0) < 1e-12
