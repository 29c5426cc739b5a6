"""Exterior calculus: analytic oracles and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab.forms import (TOL_SCALE, CohomologyClass1, NonClosedFormError,
                           OneForm, ScalarField, TwoForm, exterior_derivative,
                           harmonic_periods, harmonic_representative,
                           hodge_decompose, l2_norm, oscillation, sup_norm,
                           wedge_integral)
from fluxlab.mesh import GridMesh

from builders import plus_constant

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=64)


def random_scalar(mesh, seed, max_mode=3, amp=1.0):
    """Band-limited random field (trig polynomial below Nyquist)."""
    rng = np.random.default_rng(seed)
    X, Y = mesh.points
    f = np.zeros(mesh.shape)
    for k1 in range(-max_mode, max_mode + 1):
        for k2 in range(-max_mode, max_mode + 1):
            if k1 == 0 and k2 == 0:
                continue
            w = amp * rng.normal() / (1 + k1 * k1 + k2 * k2)
            phase = rng.uniform(0, TWO_PI)
            f += w * np.cos(TWO_PI * (k1 * X + k2 * Y) + phase)
    return ScalarField(mesh, f)


def random_oneform(mesh, seed):
    a = random_scalar(mesh, seed)
    b = random_scalar(mesh, seed + 1)
    return OneForm(mesh, a.values, b.values)


def closed_periods(alpha):
    """The periods of alpha, which must be closed."""
    alpha.require_closed(what="periods")
    return harmonic_periods(alpha)


def l2_inner(a, b):
    return a.mesh.integrate(a.ax * b.ax + a.ay * b.ay)


def hodge_tol(alpha):
    return TOL_SCALE * (1.0 + l2_norm(alpha))


# -- exterior derivative ------------------------------------------------------

def test_d_constant_is_zero(mesh):
    df = exterior_derivative(ScalarField(mesh, np.full(mesh.shape, 3.7)))
    assert sup_norm(df) == 0.0


def test_d_sin_analytic(mesh):
    X, _ = mesh.points
    f = ScalarField(mesh, np.sin(TWO_PI * X))
    df = exterior_derivative(f)
    assert np.abs(df.ax - TWO_PI * np.cos(TWO_PI * X)).max() < 1e-11
    assert np.abs(df.ay).max() < 1e-12


def test_d_constant_oneform_is_zero(mesh):
    assert sup_norm(exterior_derivative(OneForm.constant(mesh, 2.0, -1.0))) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dd_is_zero(seed):
    mesh = GridMesh(N=32)
    f = random_scalar(mesh, seed)
    dd = exterior_derivative(exterior_derivative(f))
    assert sup_norm(dd) <= 1e-12 * (1.0 + sup_norm(f))


# -- norms --------------------------------------------------------------------

def test_sup_norm_scaling(mesh):
    assert sup_norm(OneForm.constant(mesh, 3.0, 0.0)) == 3.0


def test_sup_norm_diagonal(mesh):
    assert abs(sup_norm(OneForm.constant(mesh, 1.0, 1.0)) - math.sqrt(2)) < 1e-15


def test_sup_norm_cosine(mesh):
    _, Y = mesh.points
    alpha = OneForm(mesh, np.cos(TWO_PI * Y), np.zeros(mesh.shape))
    assert abs(sup_norm(alpha) - 1.0) < 1e-15  # grid contains y = 0


def test_l2_zero(mesh):
    assert l2_norm(OneForm.constant(mesh, 0.0, 0.0)) == 0.0


def test_l2_dx_unit_torus(mesh):
    assert abs(l2_norm(OneForm.constant(mesh, 1.0, 0.0)) - 1.0) < 1e-14


def test_l2_cosine(mesh):
    _, Y = mesh.points
    alpha = OneForm(mesh, np.cos(TWO_PI * Y), np.zeros(mesh.shape))
    assert abs(l2_norm(alpha) - math.sqrt(0.5)) < 1e-14


@pytest.mark.parametrize("op, arg, message", [
    (exterior_derivative, lambda mesh: TwoForm(mesh, np.zeros(mesh.shape)),
     "cannot apply d to TwoForm"),
    (sup_norm, lambda mesh: 1.0, "no sup norm for float"),
    (l2_norm, lambda mesh: TwoForm(mesh, np.zeros(mesh.shape)), "no L2 norm for TwoForm"),
])
def test_operations_reject_unsupported_types(mesh, op, arg, message):
    with pytest.raises(TypeError, match=message):
        op(arg(mesh))


# -- Hodge decomposition ------------------------------------------------------

def test_hodge_harmonic_passthrough(mesh):
    alpha = OneForm.constant(mesh, 0.4, -0.9)
    split = hodge_decompose(alpha)
    assert sup_norm(split.exact) < 1e-14
    assert sup_norm(split.coexact) < 1e-14
    assert np.allclose(split.harmonic.ax, 0.4)


def test_hodge_analytic_potential(mesh):
    _, Y = mesh.points
    alpha = OneForm(mesh, np.ones(mesh.shape), np.cos(TWO_PI * Y))
    split = hodge_decompose(alpha)
    assert np.allclose(split.harmonic.ax, 1.0)
    assert np.abs(split.harmonic.ay).max() < 1e-14
    expected_F = np.sin(TWO_PI * Y) / TWO_PI
    assert np.abs(split.potential.values - expected_F).max() < 1e-13
    assert sup_norm(split.coexact) < 1e-13


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hodge_reconstruction_and_orthogonality(seed):
    mesh = GridMesh(N=32)
    alpha = random_oneform(mesh, seed)
    split = hodge_decompose(alpha)
    parts = (split.exact, split.coexact, split.harmonic)
    rec = OneForm(mesh, sum(p.ax for p in parts), sum(p.ay for p in parts))
    assert sup_norm(alpha - rec) <= hodge_tol(alpha)
    ip = abs(l2_inner(split.exact, split.harmonic))
    bound = 1e-10 * max(l2_norm(split.exact) * l2_norm(split.harmonic), 1e-30)
    assert ip <= max(bound, 1e-16)
    ip2 = abs(l2_inner(split.exact, split.coexact))
    assert ip2 <= 1e-10 * max(l2_norm(split.exact) * l2_norm(split.coexact), 1e-16)
    assert abs(split.potential.mean()) < 1e-13


def test_closed_form_has_no_coexact_part(mesh):
    f = random_scalar(mesh, 5)
    alpha = plus_constant(exterior_derivative(f), 0.3, 0.2)
    split = hodge_decompose(alpha)
    assert sup_norm(split.coexact) <= hodge_tol(alpha)


def test_norm_equivalence_on_harmonic_forms():
    # on the unit torus the sup and L2 norms agree exactly on harmonic forms
    mesh = GridMesh(N=32)
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = OneForm.constant(mesh, rng.normal(), rng.normal())
        a, b = sup_norm(h), l2_norm(h)
        assert abs(a - b) <= 1e-12 * max(a, 1e-30)


# -- periods ------------------------------------------------------------------

def test_periods_dx(mesh):
    assert closed_periods(OneForm.constant(mesh, 1.0, 0.0)).periods == (1.0, 0.0)


def test_periods_exact_form(mesh):
    f = random_scalar(mesh, 11)
    p = closed_periods(exterior_derivative(f))
    assert p.max_abs() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_periods_linearity_and_exact_invariance(seed):
    mesh = GridMesh(N=32)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(), rng.normal()
    G = random_scalar(mesh, seed + 7)
    alpha = plus_constant(exterior_derivative(G), a, b)
    p = closed_periods(alpha)
    assert abs(p[0] - a) < 1e-8 and abs(p[1] - b) < 1e-8


def test_periods_rejects_nonclosed(mesh):
    _, Y = mesh.points
    alpha = OneForm(mesh, np.cos(TWO_PI * Y), np.zeros(mesh.shape))
    with pytest.raises(NonClosedFormError, match="periods requires a closed 1-form"):
        closed_periods(alpha)


def test_harmonic_representative_roundtrip(mesh):
    cls = CohomologyClass1((0.7, -1.2))
    h = harmonic_representative(mesh, cls)
    q = closed_periods(h)
    assert abs(q[0] - 0.7) < 1e-14 and abs(q[1] + 1.2) < 1e-14


# -- oscillation and wedge ----------------------------------------------------

def test_oscillation_constant(mesh):
    assert oscillation(ScalarField(mesh, np.full(mesh.shape, 4.2))) == 0.0


def test_oscillation_sine(mesh):
    X, _ = mesh.points
    assert abs(oscillation(ScalarField(mesh, np.sin(TWO_PI * X))) - 2.0) < 1e-14


def test_oscillation_shift_invariance(mesh):
    f = random_scalar(mesh, 21)
    assert abs(oscillation(f) - oscillation(ScalarField(mesh, f.values + 13.5))) < 1e-12


def test_wedge_integral_harmonic(mesh):
    a = OneForm.constant(mesh, 2.0, 3.0)
    b = OneForm.constant(mesh, -1.0, 4.0)
    assert abs(wedge_integral(a, b) - (2.0 * 4.0 - 3.0 * (-1.0))) < 1e-12


def test_rectangular_torus_quadrature():
    mesh = GridMesh(N=32, L=(2.0, 0.5))
    assert abs(mesh.volume - 1.0) < 1e-15
    assert abs(l2_norm(OneForm.constant(mesh, 1.0, 0.0)) - 1.0) < 1e-14
    p = closed_periods(OneForm.constant(mesh, 1.0, 2.0))
    assert abs(p[0] - 2.0) < 1e-14 and abs(p[1] - 1.0) < 1e-14


def test_nonfinite_rejected(mesh):
    bad = np.zeros(mesh.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(mesh, bad)


def test_mesh_rejects_upsample_below_two():
    # at factor 1 the Nyquist split of the fused spline prefilter would not
    # give the raw-grid spline
    for factor in (0, 1):
        with pytest.raises(ValueError, match=f"upsample must be at least 2, got {factor}"):
            GridMesh(N=32, upsample=factor)
    assert GridMesh(N=32, upsample=2).upsample == 2


def test_forms_own_read_only_arrays(mesh):
    src = np.ones(mesh.shape)
    forms = [(ScalarField(mesh, src), "values"), (OneForm(mesh, src, src), "ax"),
             (OneForm(mesh, src, src), "ay"), (TwoForm(mesh, src), "density")]
    for form, name in forms:
        with pytest.raises(ValueError, match="read-only"):
            getattr(form, name)[0, 0] = 2.0
    src[...] = 3.0  # the caller's array is not shared
    assert all(np.all(getattr(form, name) == 1.0) for form, name in forms)


def test_mesh_rejects_bad_sizes_and_periods():
    for N in (8, 48, 0):
        with pytest.raises(ValueError, match="power of two"):
            GridMesh(N=N)
    for L in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="periods must be positive"):
            GridMesh(N=16, L=L)


def test_constant_forms_are_stored_once(mesh):
    X, _ = mesh.points
    dF = exterior_derivative(ScalarField(mesh, np.sin(TWO_PI * X)))
    forms = [(OneForm.constant(mesh, 0.7, -0.2), ("ax", "ay"), (0.7, -0.2)),
             (ScalarField(mesh, np.broadcast_to(3.7, mesh.shape)), ("values",), (3.7,)),
             (hodge_decompose(plus_constant(dF, 0.4, 0.1)).harmonic, ("ax", "ay"), None)]
    for form, names, values in forms:
        for i, name in enumerate(names):
            a = getattr(form, name)
            assert a.shape == mesh.shape and a.strides == (0, 0)
            assert not a.flags.writeable
            if values is not None:
                assert np.array_equal(a, np.full(mesh.shape, values[i]))
    # a constant form is a value like any other
    assert np.array_equal(plus_constant(forms[0][0], 0.7, 0.0).ax, np.full(mesh.shape, 1.4))
    full = OneForm(mesh, np.full(mesh.shape, 0.7), np.full(mesh.shape, -0.2))
    assert closed_periods(forms[0][0]).periods == closed_periods(full).periods


def test_forms_reject_single_value_arrays(mesh):
    one = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        OneForm(mesh, one, one)
    with pytest.raises(ValueError, match="shape"):
        OneForm(mesh, np.zeros(mesh.shape), one)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(mesh, one)
    with pytest.raises(ValueError, match="shape"):
        TwoForm(mesh, one)


def test_stride0_input_does_not_alias_its_base(mesh):
    base = np.array(0.5)
    f = ScalarField(mesh, np.broadcast_to(base, mesh.shape))
    base[()] = 2.0
    assert f.values.strides == (0, 0) and np.all(f.values == 0.5)
