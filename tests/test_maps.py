"""Torus maps: evaluation, composition, inversion, pull-backs, distances."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxlab import catalog
from fluxlab.forms import OneForm, exterior_derivative, l2_norm, sup_norm, tol_closed
from fluxlab.interpolate import PeriodicInterpolator, VectorInterpolator, wrap_pad
from fluxlab import maps
from fluxlab.maps import (DiffeomorphismError, InversionError, Region, TorusMap, c0_distance,
                          compose, evaluate_lift, interior_product,
                          max_singular_value, pullback_bound_constant,
                          pullback_oneform, pullback_vector, volume_defect,
                          _newton_inverse)
from fluxlab.mesh import GridMesh

from builders import closed_form, count_newton, grid_scalar, plus_constant, sup_displacement

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=64)


# -- evaluation ---------------------------------------------------------------

def test_identity_evaluate(mesh):
    ident = TorusMap.identity(mesh)
    pts = np.array([[0.12, 0.7], [0.33, 0.9]]).T
    assert np.abs(evaluate_lift(ident, pts) - pts).max() == 0.0


def test_shear_evaluate_quarter(mesh):
    S = catalog.shear(mesh, 0.1)
    out = evaluate_lift(S, np.array([0.0, 0.25]))
    assert abs(out[0] - 0.1) < 1e-12 and abs(out[1] - 0.25) < 1e-15


# -- constant fields ----------------------------------------------------------

def _old_translation_fields(mesh, c, d):
    """The full grid arrays translation and identity were built from."""
    disp = np.empty((2, mesh.N, mesh.N))
    disp[0] = c
    disp[1] = d
    jac = np.zeros((2, 2, mesh.N, mesh.N))
    jac[0, 0] = jac[1, 1] = 1.0
    return disp, jac


def test_constant_fields_are_stored_once(mesh):
    disp = np.array([1.3, -0.7]).reshape(2, 1, 1)
    jac = np.array([[1.0, 0.25], [0.0, 1.0]]).reshape(2, 2, 1, 1)
    # a displacement normalized as `compose` does is stored once as well
    for normalize in (False, True):
        stored = maps._lattice_normalize(disp, mesh.L) if normalize else disp
        m = TorusMap(mesh, stored, jac=jac)
        full = np.broadcast_to(disp, (2, mesh.N, mesh.N))
        if normalize:
            full = np.stack([full[0] - 1.0, full[1] + 1.0])
        for got, want in ((m.disp, full),
                          (m.jac, np.broadcast_to(jac, (2, 2, mesh.N, mesh.N)))):
            assert got.shape == want.shape and not got.flags.writeable
            assert got.strides[-2:] == (0, 0)
            assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            m.disp[0, 0, 0] = 0.0


def test_constant_fields_are_copied(mesh):
    disp = np.array([0.3, 0.4]).reshape(2, 1, 1)
    jac = np.eye(2).reshape(2, 2, 1, 1).copy()
    m = TorusMap(mesh, disp, jac=jac)
    disp[:] = 0.9
    jac[:] = 2.0
    assert np.all(m.disp[0] == 0.3) and np.all(m.disp[1] == 0.4)
    assert np.array_equal(m.jac, _old_translation_fields(mesh, 0.3, 0.4)[1])


@pytest.mark.parametrize("disp_shape, jac_shape", [
    ((2, 1), None), ((1, 1, 1), None), ((2, 32, 64), None), ((2, 64, 1, 1), None),
    ((2, 1, 1), (2, 2, 1)), ((2, 1, 1), (2, 1, 1, 1)), ((2, 1, 1), (2, 2, 64, 32))])
def test_constant_field_shapes_are_checked(mesh, disp_shape, jac_shape):
    # each grid axis is 1 or N; the components lead
    jac = None if jac_shape is None else np.ones(jac_shape)
    with pytest.raises(ValueError, match="shape"):
        TorusMap(mesh, np.zeros(disp_shape), jac=jac)


@pytest.mark.parametrize("disp_shape, jac_shape", [
    ((2, 1, 64), None), ((2, 64, 1), None), ((2, 1, 1), (2, 2, 64, 1)),
    ((2, 1, 64), (2, 2, 1, 64)), ((2, 64, 1), (2, 2, 1, 1))])
def test_line_fields_are_stored_once(mesh, disp_shape, jac_shape):
    rng = np.random.default_rng(7)
    s = np.indices(disp_shape[1:]).sum(axis=0) / mesh.N
    disp = rng.uniform(0.005, 0.02, (2, 1, 1)) * np.sin(TWO_PI * s + rng.uniform(0, 6, (2, 1, 1)))
    jac = None
    if jac_shape is not None:
        jac = np.eye(2).reshape(2, 2, 1, 1) + 0.05 * rng.standard_normal(jac_shape)
    m = TorusMap(mesh, disp, jac=jac)
    fields = [(m.disp, disp)] + ([] if jac is None else [(m.jac, jac)])
    for got, stored in fields:
        want = np.broadcast_to(stored, got.shape[:-2] + mesh.shape)
        assert got.shape == want.shape and not got.flags.writeable
        assert [st == 0 for st in got.strides[-2:]] == [n == 1 for n in stored.shape[-2:]]
        assert np.array_equal(got, want)
    J = np.ascontiguousarray(m.jac)
    assert np.array_equal(m.det, J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    with pytest.raises(ValueError):
        m.disp[0, 0, 0] = 0.0


def test_line_field_diffeomorphism_error_names_the_full_grid_point(mesh):
    # det J stored on one grid line reports the point the full array would
    jac = np.zeros((2, 2, 64, 1))
    jac[0, 0] = 1.0
    jac[1, 1] = 0.5 + np.cos(TWO_PI * mesh.axes[0]).reshape(64, 1)
    full = np.ascontiguousarray(np.broadcast_to(jac, (2, 2, 64, 64)))
    disp = np.zeros((2, 1, 1))
    messages = []
    for J in (jac, full):
        with pytest.raises(DiffeomorphismError) as err:
            TorusMap(mesh, disp, jac=J)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constant_displacement_raises(mesh, bad):
    with pytest.raises(ValueError, match="non-finite displacement"):
        TorusMap(mesh, np.array([0.1, bad]).reshape(2, 1, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_jacobian_raises(mesh, bad):
    jac = np.eye(2).reshape(2, 2, 1, 1) * np.ones((1, 1, 64, 1))
    jac[0, 1, 5, 0] = bad
    for check in (True, False):
        with pytest.raises(ValueError, match="non-finite jacobian"):
            TorusMap(mesh, np.zeros((2, 1, 1)), jac=jac, check=check)


def test_a_nan_det_is_not_positive(mesh):
    # NaN <= 0 is False: the check asks for det > 0 instead
    jac = np.eye(2).reshape(2, 2, 1, 1) * np.ones((1, 1, 1, 64))
    jac[1, 1, 0, 7] = np.nan
    with pytest.raises(DiffeomorphismError, match="det J = nan"):
        maps.require_positive_det(mesh, jac)


def test_translation_and_identity_equal_the_full_arrays(mesh):
    for c, d in ((0.3, 0.4), (-0.25, 0.15), (0.7, 0.6)):
        T = catalog.translation(mesh, c, d)
        disp, jac = _old_translation_fields(mesh, c, d)
        assert np.array_equal(T.disp, disp) and np.array_equal(T.jac, jac)
        Ti = T.inverse()
        disp, jac = _old_translation_fields(mesh, -c, -d)
        assert np.array_equal(Ti.disp, disp) and np.array_equal(Ti.jac, jac)
    ident = TorusMap.identity(mesh)
    disp, jac = _old_translation_fields(mesh, 0.0, 0.0)
    assert np.array_equal(ident.disp, disp) and np.array_equal(ident.jac, jac)
    assert ident.disp.strides[-2:] == ident.jac.strides[-2:] == (0, 0)


def _old_shear_fields(mesh, eps, axis, mode, phase):
    """The full grid arrays shear was built from."""
    N = mesh.N
    X, Y = mesh.points
    w = TWO_PI * mode / mesh.L[1 - axis]
    coord = Y if axis == 0 else X
    disp = np.zeros((2, N, N))
    disp[axis] = eps * np.sin(w * coord + phase)
    jac = np.zeros((2, 2, N, N))
    jac[0, 0] = jac[1, 1] = 1.0
    jac[axis, 1 - axis] = eps * w * np.cos(w * coord + phase)
    return disp, jac


def _old_non_volume_preserving_fields(mesh, eps, mode):
    _, Y = mesh.points
    w = TWO_PI * mode / mesh.L[1]
    disp = np.zeros((2, mesh.N, mesh.N))
    disp[1] = eps * np.sin(w * Y)
    jac = np.zeros((2, 2, mesh.N, mesh.N))
    jac[0, 0] = 1.0
    jac[1, 1] = 1.0 + eps * w * np.cos(w * Y)
    return disp, jac


def _old_translation_shear_fields(mesh, c, d, eps, mode, t):
    """translation_shear_flow's time-t map and its inverse as full arrays."""
    _, Y = mesh.points
    w = TWO_PI * mode / mesh.L[1]
    disp = np.empty((2, mesh.N, mesh.N))
    disp[0] = t * c + t * eps * np.sin(w * Y)
    disp[1] = t * d
    jac = np.zeros((2, 2, mesh.N, mesh.N))
    jac[0, 0] = jac[1, 1] = 1.0
    jac[0, 1] = t * eps * w * np.cos(w * Y)
    dinv = np.empty((2, mesh.N, mesh.N))
    dinv[0] = -t * c - t * eps * np.sin(w * (Y - t * d))
    dinv[1] = -t * d
    jinv = np.zeros((2, 2, mesh.N, mesh.N))
    jinv[0, 0] = jinv[1, 1] = 1.0
    jinv[0, 1] = -t * eps * w * np.cos(w * (Y - t * d))
    return (disp, jac), (dinv, jinv)


def _assert_line_fields(m, old, const_axis):
    """m's fields equal the full arrays and are stored along one grid
    line: stride 0 on grid axis `const_axis` only."""
    for got, want in zip((m.disp, m.jac), old):
        assert np.array_equal(got, want)
        assert [st == 0 for st in got.strides[-2:]] == [k == const_axis for k in range(2)]


@pytest.mark.parametrize("L", [(1.0, 1.0), (1.0, 2.5)])
def test_shear_family_equals_the_full_arrays(L):
    mesh = GridMesh(N=64, L=L)
    for axis in (0, 1):
        for eps, mode, phase in ((0.1, 1, 0.0), (-0.13, 2, 0.7), (0.05, 3, -1.9)):
            S = catalog.shear(mesh, eps, axis, mode, phase)
            _assert_line_fields(S, _old_shear_fields(mesh, eps, axis, mode, phase), axis)
            _assert_line_fields(S.inverse(),
                                _old_shear_fields(mesh, -eps, axis, mode, phase), axis)
    for eps, mode in ((0.1, 1), (0.05, 2)):
        _assert_line_fields(catalog.non_volume_preserving(mesh, eps, mode),
                            _old_non_volume_preserving_fields(mesh, eps, mode), 0)
    for c, d, eps in ((0.25, 0.35, 0.12), (-0.2, 0.15, 0.08)):
        flow = catalog.translation_shear_flow(mesh, c, d, eps, mode=2, K=16)
        for t in (0.3, 0.5, 1.0):
            m = flow.at_time(t)
            old, old_inv = _old_translation_shear_fields(mesh, c, d, eps, 2, t)
            _assert_line_fields(m, old, 0)
            _assert_line_fields(m.inverse(), old_inv, 0)


# -- composition --------------------------------------------------------------

def test_compose_with_identity(mesh):
    S = catalog.shear(mesh, 0.1)
    assert compose(S, TorusMap.identity(mesh)) is S
    assert compose(TorusMap.identity(mesh), S) is S


def test_translation_group_law(mesh):
    a = catalog.translation(mesh, 0.2, 0.3)
    b = catalog.translation(mesh, 0.15, -0.1)
    ab = compose(a, b)
    c = catalog.translation(mesh, 0.35, 0.2)
    assert np.abs(ab.disp - c.disp).max() < 1e-12


def test_shear_cancellation(mesh):
    S = catalog.shear(mesh, 0.1)
    Sm = catalog.shear(mesh, -0.1)
    assert sup_displacement(compose(Sm, S)) < 1e-10


def test_nearest_lift_branch(mesh):
    half = catalog.translation(mesh, 0.5, 0.0)
    two = compose(half, half)
    assert sup_displacement(two) < 1e-12  # wraps to the identity branch


def _interpolated_compose(phi, psi, normalize):
    """compose's general route: interpolate phi's displacement at psi's
    image; the composite's Jacobian is spectral."""
    u = psi.disp + phi.interp_disp(psi.flat_position).reshape(2, *psi.mesh.shape)
    return TorusMap(phi.mesh, maps._lattice_normalize(u, phi.mesh.L) if normalize else u)


def test_compose_with_a_translation_equals_the_interpolated_chain(mesh):
    shear = catalog.shear(mesh, 0.1, axis=1, mode=2, phase=0.4)
    sample = catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=16).maps[7]
    # an integrated sample: full fields, its Jacobian spectral
    spectral = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K=16).maps[9]
    # a composite of translations is a translation with a spectral Jacobian
    tt = compose(catalog.translation(mesh, 0.2, -0.1), catalog.translation(mesh, 0.25, 0.4))
    for T in (catalog.translation(mesh, 0.2, -0.1), catalog.translation(mesh, 0.45, 0.3), tt):
        for psi, line in ((shear, True), (sample, True), (spectral, False)):
            for normalize in (True, False):
                got = compose(T, psi, normalize=normalize)
                want = _interpolated_compose(T, psi, normalize)
                assert np.array_equal(got.disp, want.disp)
                assert np.array_equal(got.jac, _spectral_oracle(got))
                assert (0 in got.disp.strides) == line


def test_composition_functoriality(mesh):
    phi = catalog.twist(mesh, 0.07, 0.05)
    psi = catalog.shear(mesh, 0.08)
    _, Y = mesh.points
    alpha = OneForm(mesh, 0.5 + np.cos(TWO_PI * Y), np.full(mesh.shape, 0.2))
    lhs = pullback_oneform(compose(phi, psi), alpha.at)
    rhs = pullback_oneform(psi, pullback_oneform(phi, alpha.at).at)
    assert sup_norm(lhs - rhs) <= 1e-6 * (1.0 + sup_norm(alpha))


def test_compose_diffeo_check():
    mesh = GridMesh(N=32)
    # a y-shear strong enough that the composite with itself folds
    with pytest.raises(DiffeomorphismError):
        m = catalog.non_volume_preserving(mesh, eps=0.17)
        compose(m, m)


# -- inversion ----------------------------------------------------------------

def test_inverse_identity(mesh):
    # a map whose stored displacement is exactly 0 is its own inverse
    for m in (TorusMap.identity(mesh), catalog.translation(mesh, 0, 0),
              catalog.shear(mesh, 0.0)):
        assert m.inverse() is m


@pytest.mark.parametrize("build", [
    lambda mesh: catalog.shear(mesh, 0.1),
    # a factor given no inverse builder sends the composite to Newton
    lambda mesh: compose(catalog.shear(mesh, 0.05),
                         TorusMap(mesh, catalog.twist(mesh, 0.07, 0.05).disp)),
    lambda mesh: compose(catalog.shear(mesh, 0.05), catalog.twist(mesh, 0.07, 0.05)),
    TorusMap.identity,
], ids=["shear", "newton-composite", "factor-composite", "identity"])
def test_a_map_and_its_inverse_are_freed_without_the_collector(mesh, build):
    # the inverse keeps no reference to its map, so no cycle waits for gc
    m = build(mesh)
    gc.disable()
    try:
        inv = weakref.ref(m.inverse())
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert inv() is None
    finally:
        gc.enable()


def test_inverse_translation(mesh):
    T = catalog.translation(mesh, 0.3, 0.4)
    Ti = T.inverse()
    assert np.abs(Ti.disp[0] + 0.3).max() < 1e-14
    assert np.abs(Ti.disp[1] + 0.4).max() < 1e-14


def test_newton_inverse_matches_analytic(mesh):
    S = catalog.shear(mesh, 0.1)
    generic = TorusMap(mesh, S.disp)  # given no closed-form inverse
    gi = _newton_inverse(generic)
    assert np.abs(gi.disp - catalog.shear(mesh, -0.1).disp).max() < 1e-9


def test_inverse_roundtrip():
    # production resolution: the interpolated inverse displacement must be
    # accurate enough that the double inverse meets 10 x the Newton target
    fine = GridMesh(N=128)
    tw = catalog.twist(fine, 0.07, 0.05)
    generic = TorusMap(fine, tw.disp)
    gi = _newton_inverse(generic)
    gg = _newton_inverse(gi)
    assert np.abs(gg.disp - generic.disp).max() <= 10 * 1e-10


def _whole_grid_newton(phi):
    """Damped Newton with every backtracking try on the whole grid, and the
    number of step halvings it makes."""
    mesh = phi.mesh
    x = mesh.flat_points
    J = phi.jac
    padded = [wrap_pad(J[k, l]) for k in range(2) for l in range(2)]

    def residual(yy):
        r = yy + phi.interp_disp(yy) - x
        return r, np.abs(r).max(axis=0)

    y = x - phi.disp.reshape(2, -1)
    r, rn = residual(y)
    halvings = 0
    while rn.max() > maps.TOL_INV_SCALE * max(mesh.L):
        dy = maps._solve_2x2(phi.interp_jac_rough(y, padded), r)
        step = np.ones_like(rn)
        for _ in range(8):
            y_try = y - step * dy
            r_try, rn_try = residual(y_try)
            worse = rn_try > rn
            if not worse.any():
                break
            halvings += int(worse.sum())
            step = np.where(worse, step * 0.5, step)
        y, r, rn = y_try, r_try, rn_try
    return (y - x).reshape(2, *mesh.shape), halvings


def test_newton_retries_only_the_points_that_got_worse():
    # The residual is pointwise, so re-trying a halved step at the points
    # whose residual grew gives every point the value of a whole-grid
    # re-try: the inverse is the same to the last bit.
    mesh = GridMesh(N=32)
    phi = compose(catalog.shear(mesh, 0.1, axis=1), catalog.twist(mesh, 0.1, 0.08))
    ref, halvings = _whole_grid_newton(phi)
    assert halvings > 0  # the map makes Newton back-track
    assert np.array_equal(_newton_inverse(phi).disp, ref)


def _shear_twist_inverse_truth(mesh):
    """twist^-1 o shear^-1 for shear(0.1, mode 2, phase 0.3) and
    twist(0.07, -0.05, 1, 2), exact at the grid points: the closed-form
    shear^-1 moves them, and the twist^-1 formula is evaluated at the
    moved points."""
    Si = catalog.shear(mesh, -0.1, mode=2, phase=0.3)
    x, y = Si.position
    # twist(0.07, -0.05, 1, 2)^-1: the y-shear is undone first
    u2 = 0.05 * np.sin(TWO_PI * 2 * x / mesh.L[0])
    u1 = -0.07 * np.sin(TWO_PI * (y + u2) / mesh.L[1])
    return Si.disp + np.stack([u1, u2])


@pytest.mark.parametrize("N, bound", [(32, 3e-7), (64, 2e-8)])
def test_a_composite_of_closed_forms_is_inverted_through_its_factors(monkeypatch, N, bound):
    # Measured against the exact inverse: the factor route errs by 1.8e-7
    # (N = 32) and 1.0e-8 (N = 64), Newton through the composite's spline
    # by 2.1e-6 and 1.4e-7
    mesh = GridMesh(N=N)
    calls = count_newton(monkeypatch)
    C = compose(catalog.shear(mesh, 0.1, mode=2, phase=0.3),
                catalog.twist(mesh, 0.07, -0.05, 1, 2))
    inv = C.inverse()
    assert calls == []
    truth = _shear_twist_inverse_truth(mesh)
    factor_err = np.abs(inv.disp - truth).max()
    newton_err = np.abs(maps._newton_inverse(C).disp - truth).max()
    assert factor_err < bound and factor_err < newton_err / 5
    # the inverse is itself a composite of closed forms: (C^-1)^-1 is C
    assert np.array_equal(inv.inverse().disp, C.disp)
    assert len(calls) == 1  # the oracle's own call


def test_the_inverse_route_depends_on_how_the_factors_were_built(monkeypatch):
    mesh = GridMesh(N=32)
    calls = count_newton(monkeypatch)
    S, T = catalog.shear(mesh, 0.1, mode=2, phase=0.3), catalog.twist(mesh, 0.07, -0.05, 1, 2)
    fresh = compose(S, T).inverse().disp
    S.inverse(), T.inverse()  # a factor's inverse read first
    assert np.array_equal(compose(S, T).inverse().disp, fresh)
    # chains of closed forms, however nested, stay off Newton.  The bump
    # rotation is barely resolved at N = 32: the round trip measured
    # 9.3e-4, and 4.1e-3 with Newton through the chain's spline
    R = catalog.bump_rotation(mesh, (0.3, 0.6), 0.25, 0.5)
    chain = compose(compose(catalog.translation(mesh, 0.2, -0.1), R), compose(S, T))
    assert sup_displacement(compose(chain.inverse(), chain)) < 1.5e-3
    assert calls == []
    # a flow sample is not a closed form, whether or not its Newton
    # inverse is already cached
    sample = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 16).maps[8]
    sample.inverse()
    assert len(calls) == 1
    compose(S, sample).inverse()
    assert len(calls) == 2


def test_a_composite_inverse_builder_keeps_no_factor_alive():
    mesh = GridMesh(N=32)
    S, T = catalog.shear(mesh, 0.1), catalog.twist(mesh, 0.07, 0.05)
    C = compose(S, T)
    gc.disable()
    try:
        refs = [weakref.ref(S), weakref.ref(T)]
        del S, T
        assert [r() for r in refs] == [None, None]
        # the builder outlives the factors and still makes the inverse
        assert sup_displacement(compose(C.inverse(), C)) < 1e-6
    finally:
        gc.enable()


def test_inverse_composition_is_identity(mesh):
    tw = catalog.twist(mesh, 0.07, 0.05)
    rt = compose(tw.inverse(), tw)
    assert sup_displacement(rt) < 5e-9


# -- pull-backs ---------------------------------------------------------------

def test_pullback_identity(mesh):
    X, Y = mesh.points
    alpha = OneForm(mesh, np.sin(TWO_PI * Y), np.cos(TWO_PI * X))
    pb = pullback_oneform(TorusMap.identity(mesh), alpha.at)
    assert sup_norm(pb - alpha) < 1e-13


def test_pullback_translation_constant_form(mesh):
    T = catalog.translation(mesh, 0.21, 0.13)
    alpha = OneForm.constant(mesh, 1.5, -0.5)
    assert sup_norm(pullback_oneform(T, alpha.at) - alpha) < 1e-13


def test_pullback_shear_analytic(mesh):
    _, Y = mesh.points
    S = catalog.shear(mesh, 0.1)
    pb = pullback_oneform(S, OneForm.constant(mesh, 1.0, 0.0).at)
    assert np.abs(pb.ax - 1.0).max() < 1e-14
    assert np.abs(pb.ay - 0.1 * TWO_PI * np.cos(TWO_PI * Y)).max() < 1e-12
    target = 1.0 + 0.02 * math.pi ** 2
    assert abs(l2_norm(pb) ** 2 / target - 1.0) < 1e-10


def test_pullback_preserves_closedness():
    # the closedness of a sampled pull-back is limited by interpolation
    # noise amplified by the top wavenumber of the spectral derivative; an
    # eightfold-refined interpolant drives it below 10 x the closedness gate
    fine = GridMesh(N=64, upsample=8)
    tw = catalog.twist(fine, 0.06, 0.05)
    alpha = closed_form(fine, (0.5, 0.3), lambda x, y: 0.3 * np.sin(TWO_PI * (x + y)))
    pb = pullback_oneform(tw, alpha.at)
    assert pb.closedness_residual <= 10 * tol_closed(alpha)


def test_pullback_bound_constants(mesh):
    assert abs(pullback_bound_constant(TorusMap.identity(mesh)) - 1.0) < 1e-12
    assert abs(pullback_bound_constant(catalog.translation(mesh, 0.4, 0.1)) - 1.0) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pullback_bound_inequality(seed):
    mesh = GridMesh(N=32)
    rng = np.random.default_rng(seed)
    phi = catalog.twist(mesh, rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12))
    dG = exterior_derivative(grid_scalar(
        mesh, lambda x, y: rng.normal(0, 0.3) * np.sin(TWO_PI * x)
        + rng.normal(0, 0.3) * np.cos(TWO_PI * y)))
    alpha = plus_constant(dG, rng.normal(), rng.normal())
    lhs = l2_norm(pullback_oneform(phi, alpha.at))
    assert lhs <= pullback_bound_constant(phi) * l2_norm(alpha) * (1 + 1e-6)


# -- pushforward and the contraction identity --------------------------------

def test_pushforward_identity(mesh):
    X = np.stack([0.2 + 0.1 * np.sin(TWO_PI * mesh.points[1]),
                  np.cos(TWO_PI * mesh.points[0])])
    out = pullback_vector(TorusMap.identity(mesh).inverse(), VectorInterpolator(X, mesh))
    assert np.abs(out - X).max() < 1e-13


def test_pushforward_translation_constant(mesh):
    T = catalog.translation(mesh, 0.3, -0.2)
    X = np.stack([np.full(mesh.shape, 0.5), np.full(mesh.shape, 0.25)])
    out = pullback_vector(T.inverse(), VectorInterpolator(X, mesh))
    assert np.abs(out - X).max() < 1e-13


def test_contraction_pushforward_identity(mesh):
    # (phi^{-1})^*[i_X (phi^* omega)] = i_{phi_* X} omega for any smooth map;
    # phi_* X is the pull-back of X by phi^{-1}
    tw = catalog.twist(mesh, 0.08, 0.06)
    X, Y = mesh.points
    vf = np.stack([0.2 + 0.1 * np.sin(TWO_PI * Y), 0.1 * np.cos(TWO_PI * X)])
    lhs = interior_product(
        pullback_vector(tw.inverse(), VectorInterpolator(vf, mesh)), mesh)
    rhs = pullback_oneform(tw.inverse(), interior_product(vf, mesh).at)
    assert sup_norm(lhs - rhs) <= 1e-6


# -- uniform distance ---------------------------------------------------------

def test_c0_reflexive(mesh):
    S = catalog.shear(mesh, 0.1)
    assert c0_distance(S, S) == 0.0


def test_c0_translation(mesh):
    ident = TorusMap.identity(mesh)
    for c in (0.2, 0.5, 0.8):
        T = catalog.translation(mesh, c, 0.0)
        assert abs(c0_distance(ident, T) - min(c, 1 - c)) < 1e-12


def test_c0_symmetry(mesh):
    a = catalog.shear(mesh, 0.1)
    b = catalog.translation(mesh, 0.2, 0.1)
    assert abs(c0_distance(a, b) - c0_distance(b, a)) < 1e-12


# -- volume defect ------------------------------------------------------------

def test_volume_defect_identity(mesh):
    Y = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.5}).field(0.0)
    assert volume_defect(TorusMap.identity(mesh), Y) < 1e-12


def test_volume_defect_vp_maps(mesh):
    Y = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.5}).field(0.0)
    for m in (catalog.translation(mesh, 0.3, 0.1), catalog.shear(mesh, 0.1),
              catalog.twist(mesh, 0.06, 0.05)):
        assert volume_defect(m, Y) <= 1e-6


def test_volume_defect_detects_nonvp(mesh):
    nvp = catalog.non_volume_preserving(mesh, eps=0.1)
    chi, _ = catalog._bump_chi(
        (mesh.wrap_delta(mesh.points - np.array([0.5, 0.45]).reshape(2, 1, 1)) ** 2
         ).sum(axis=0) / 0.15 ** 2)
    Y = np.stack([mesh.derivative(chi, 1), -mesh.derivative(chi, 0)])
    assert volume_defect(nvp, Y) > 1e-2


def test_volume_defect_rejects_divergent_field(mesh):
    X, _ = mesh.points
    Y = np.stack([np.sin(TWO_PI * X), np.zeros(mesh.shape)])
    with pytest.raises(ValueError):
        volume_defect(TorusMap.identity(mesh), Y)


# -- regions ------------------------------------------------------------------

def test_region_rect_membership(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    inside = U.contains(np.array([[0.1], [0.5]]), mesh)
    outside = U.contains(np.array([[0.3], [0.5]]), mesh)
    assert bool(inside[0]) and not bool(outside[0])


def test_region_rect_wraps(mesh):
    U = Region.rectangle((0.9, 0.4), (1.1, 0.6))
    pts = np.array([[0.98, 0.05, 0.15, 0.5], [0.5, 0.5, 0.5, 0.5]])
    assert U.contains(pts, mesh).tolist() == [True, True, False, False]
    assert np.allclose(U.distance(pts, mesh), [0.0, 0.0, 0.05, 0.4])


def test_region_measure(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    assert abs(U.measure(mesh) - 0.25) < 0.02


def test_bump_rotation_support_and_det(mesh):
    B = catalog.bump_rotation(mesh, (0.5, 0.5), 0.2, 0.8)
    assert np.abs(B.det - 1.0).max() < 1e-12
    v = mesh.torus_distance(mesh.points, np.array([0.5, 0.5]).reshape(2, 1, 1))
    outside = v > 0.2
    assert np.abs(B.disp[:, outside]).max() < 1e-15


def test_max_singular_value_shear(mesh):
    S = catalog.shear(mesh, 0.1)
    a = 0.1 * TWO_PI
    expected = math.sqrt((2 + a * a + math.sqrt((2 + a * a) ** 2 - 4)) / 2)
    assert abs(max_singular_value(S) - expected) < 1e-12


def test_validation_does_not_cache_det():
    mesh = GridMesh(N=32)
    m = catalog.twist(mesh, 0.08, 0.06)
    n = compose(m, m)
    for phi in (m, n):
        assert phi._det is None
        det = phi.det
        assert phi._det is det
        J = phi.jac
        assert np.array_equal(det, J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])


def test_diffeomorphism_error_message():
    mesh = GridMesh(N=32)
    X, _ = mesh.points
    u = np.stack([0.3 * np.sin(2 * np.pi * X), np.zeros(mesh.shape)])
    (a, b), (c, d) = mesh.gradient(u[0]), mesh.gradient(u[1])
    det = (1.0 + a) * (1.0 + d) - b * c
    assert det.min() < 0.0
    i, j = np.unravel_index(np.argmin(det), det.shape)
    expected = (f"det J = {det.min():.3e} <= 0 at grid point "
                f"({mesh.axes[0][i]:.4f}, {mesh.axes[1][j]:.4f})")
    with pytest.raises(DiffeomorphismError) as err:
        TorusMap(mesh, u)
    assert str(err.value) == expected


# -- Jacobians: given ones are kept, spectral ones computed on read -----------

def _spectral_oracle(m: TorusMap) -> np.ndarray:
    """I + du from one spectral partial per component and axis."""
    return np.stack([np.stack([m.mesh.derivative(m.disp[k], l) + float(k == l)
                               for l in range(2)]) for k in range(2)])


def test_spectral_jacobian_is_computed_on_every_read():
    mesh = GridMesh(N=32)
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 16)
    sample = flow.maps[7]
    twist = catalog.twist(mesh, 0.08, 0.06)
    T = catalog.translation(mesh, 0.3, -0.2)
    cases = [sample, _newton_inverse(sample), compose(twist, sample), compose(twist, twist),
             # a translation after a map stored on a line or a point
             compose(T, catalog.shear(mesh, 0.1)), compose(T, catalog.shear(mesh, 0.1, axis=1)),
             compose(T, catalog.translation(mesh, 0.1, 0.4))]
    stored = [(32, 32)] * 4 + [(1, 32), (32, 1), (1, 1)]
    for m, axes in zip(cases, stored):
        assert m._stored_disp.shape[1:] == axes
        J = m.jac
        assert np.array_equal(J, _spectral_oracle(m))
        assert not J.flags.writeable
        # computed on the stored axes and viewed at the full shape
        assert J.shape == (2, 2, 32, 32) and m._jac_field().shape == (2, 2, *axes)
        # nothing is kept: the next read computes a fresh, equal array
        assert m._jac is None and m._stored_jac is None
        assert m.jac is not J and np.array_equal(m.jac, J)
    assert np.array_equal(cases[-1].jac, np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), J.shape))


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_line_jacobian_equals_the_full_grid_one(N):
    # the 1-D transforms of a line are those rfft2 and irfft2 apply to its
    # axis, so every entry equals the full-grid Jacobian of the broadcast view
    mesh = GridMesh(N=N, L=(1.0, 1.5))
    rng = np.random.default_rng(N)
    for axis in (0, 1):
        t = TWO_PI * np.arange(N) / N
        line = np.stack([0.04 * np.sin(t + 0.3) + 0.01 * np.cos(3 * t),
                         0.03 * np.cos(2 * t - 1.1)]) + rng.normal(0.0, 1e-3, (2, N))
        stored = line.reshape((2, N, 1) if axis == 0 else (2, 1, N))
        full = maps._spectral_jac(mesh, np.broadcast_to(stored, (2, N, N)))
        J = maps._spectral_jac(mesh, stored)
        assert J.shape == (2, 2, *stored.shape[1:]) and not J.flags.writeable
        assert np.array_equal(np.broadcast_to(J, full.shape), full)
        assert np.array_equal(TorusMap(mesh, stored).det, maps._det2(full))
    point = np.array([0.2, -0.1]).reshape(2, 1, 1)
    full = maps._spectral_jac(mesh, np.broadcast_to(point, (2, N, N)))
    assert np.array_equal(np.broadcast_to(maps._spectral_jac(mesh, point), full.shape), full)


def test_c0_distance_reads_the_inverse_half(mesh):
    # phi = A o B against psi = B for the shears A: x += a sin(2 pi y) and
    # B: y += b sin(2 pi x).  The forward half is sup |a sin(2 pi y)| = a;
    # the inverse half, phi^-1(q) - psi^-1(q) = (-f(y), g(x) - g(x - f(y)))
    # with f, g the two profiles, is larger
    a = b = 0.05
    A, B = catalog.shear(mesh, a), catalog.shear(mesh, b, axis=1)
    phi = compose(A, B)
    x, y = mesh.points
    f = a * np.sin(TWO_PI * y)
    dg = b * (np.sin(TWO_PI * x) - np.sin(TWO_PI * (x - f)))
    inverse_half = float(np.sqrt(f ** 2 + dg ** 2).max())
    forward_half = float(mesh.torus_distance(phi.position, B.position).max())
    assert abs(forward_half - a) < 1e-15 and inverse_half > a + 2e-3
    # phi is inverted through its factors, B^-1 o A^-1, with one spline
    # read of B^-1: 2.6e-11 at N = 64 (1.6e-9 by Newton through phi's spline)
    assert abs(c0_distance(phi, B) - inverse_half) < 1e-10


@pytest.mark.parametrize("other", [GridMesh(N=32, L=(2.0, 2.0)), GridMesh(N=64)])
def test_c0_distance_rejects_maps_on_different_meshes(other):
    # same N and another L read a meaningless 0.707; another N a broadcast
    # error
    phi = catalog.shear(GridMesh(N=32), 0.1)
    with pytest.raises(ValueError, match="maps live on different meshes"):
        c0_distance(phi, catalog.shear(other, 0.1))


def test_given_jacobian_is_returned_as_the_stored_view():
    mesh = GridMesh(N=32)
    twist = catalog.twist(mesh, 0.08, 0.06)
    cases = [twist, catalog.shear(mesh, 0.1), catalog.translation(mesh, 0.3, 0.4)]
    for m in cases:
        assert m.jac is m.jac and m.jac is m._jac
        assert np.shares_memory(m.jac, m._stored_jac)


def test_jacobians_computed_by_a_pulled_flux_and_a_newton_inversion(monkeypatch):
    from fluxlab.isotopy import symplectic_flux
    mesh = GridMesh(N=32)
    calls = []
    spectral = maps._spectral_jac
    monkeypatch.setattr(maps, "_spectral_jac",
                        lambda *a: calls.append(1) or spectral(*a))
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 16)
    symplectic_flux(flow)
    # one per integrated sample, read by its determinant check and its
    # pulled flux term together; the identity sample is not pulled
    assert len(calls) == 16
    calls.clear()
    _newton_inverse(flow.maps[8])
    assert len(calls) == 1


def _bump_jac_oracle(mesh, center, radius, angle):
    """The bump rotation's Jacobian, written out as its builder once
    computed and stored it."""
    v = mesh.wrap_delta(mesh.points - np.asarray(center, dtype=float).reshape(2, 1, 1))
    s = (v[0] ** 2 + v[1] ** 2) / radius ** 2
    inside = s < 1.0
    chi, dchi = np.zeros_like(s), np.zeros_like(s)
    with np.errstate(over="ignore", under="ignore"):
        c = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    chi[inside] = c
    dchi[inside] = -c / (1.0 - s[inside]) ** 2
    theta = angle * chi
    ct, st = np.cos(theta), np.sin(theta)
    g0 = angle * dchi * (2.0 / radius ** 2) * v[0]
    g1 = angle * dchi * (2.0 / radius ** 2) * v[1]
    rp0 = -st * v[0] - ct * v[1]
    rp1 = ct * v[0] - st * v[1]
    return np.stack([np.stack([ct + rp0 * g0, -st + rp0 * g1]),
                     np.stack([st + rp1 * g0, ct + rp1 * g1])])


def test_bump_jacobian_is_its_closed_form_computed_on_read():
    mesh = GridMesh(N=64)
    rot = catalog.bump_rotation(mesh, (0.3, 0.6), 0.25, 0.8)
    flow = catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, 16)
    # sample 7 of 16 is the bump rotation by t = 7/16 times the flow's angle,
    # and each inverse the bump rotation by minus its angle
    t = np.linspace(0.0, 1.0, 17)[7]
    for m, center, radius, angle in (
            (rot, (0.3, 0.6), 0.25, 0.8), (rot.inverse(), (0.3, 0.6), 0.25, -0.8),
            (flow.maps[7], (0.5, 0.5), 0.3, t * 0.6),
            (flow.maps[7].inverse(), (0.5, 0.5), 0.3, -(t * 0.6))):
        J = m.jac
        assert np.array_equal(J, _bump_jac_oracle(mesh, center, radius, angle))
        assert not J.flags.writeable
        # nothing is kept: the next read computes a fresh, equal array
        assert m._jac is None and m._stored_jac is None
        assert m.jac is not J and np.array_equal(m.jac, J)


def test_bump_rotation_computes_its_fields_once(monkeypatch):
    # the det check reads the fields that built the displacement
    mesh = GridMesh(N=32)
    calls = []
    fields = catalog._bump_fields
    monkeypatch.setattr(catalog, "_bump_fields",
                        lambda *a: calls.append(a) or fields(*a))
    catalog.bump_rotation(mesh, (0.5, 0.5), 0.2, 0.8)
    assert len(calls) == 1


def test_rotation_flow_keeps_displacements_only():
    # 65 samples of (2, N, N) displacements are 16.3 MiB at N = 128; with a
    # stored (2, 2, N, N) Jacobian per sample the flow kept 48.8 MiB
    mesh = GridMesh(N=128)
    mesh.points  # the mesh's own cached grid is not the flow's
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        flow = catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, 64)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flow.K == 64
    assert live - start < 20 * 2 ** 20


# -- error paths -------------------------------------------------------------

def test_newton_inversion_of_a_folded_map_raises():
    mesh = GridMesh(N=32)
    X, _ = mesh.points
    # det J = 1 + pi cos(2 pi x) changes sign: the map folds, and Newton
    # stalls on the fold
    folded = TorusMap(mesh, np.stack([0.5 * np.sin(TWO_PI * X), np.zeros(mesh.shape)]),
                      check=False)
    with pytest.raises(InversionError, match=r"Newton inversion stalled at x = \("):
        _newton_inverse(folded)


def test_compose_of_closed_forms_checks_the_composite_spectrally():
    # a twist's closed-form det is 1 at any amplitude; the composite's
    # spectral Jacobian shows that the grid cannot resolve this one
    mesh = GridMesh(N=32)
    with pytest.raises(DiffeomorphismError):
        compose(catalog.translation(mesh, 0.2, 0.1), catalog.perturbation_map(mesh, 40.0))


def _is_or_holds_a_spline(v) -> bool:
    if isinstance(v, (PeriodicInterpolator, VectorInterpolator)):
        return True
    if isinstance(v, dict):
        v = list(v.values())
    return isinstance(v, (list, tuple)) and any(map(_is_or_holds_a_spline, v))


def test_a_map_keeps_no_interpolator():
    # every off-grid read fits the splines it reads and drops them
    mesh = GridMesh(N=32)
    twist, shear = catalog.twist(mesh, 0.08, 0.06), catalog.shear(mesh, 0.1)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (2, 5))
    twist.interp_disp(pts)
    twist.interp_jac(pts)
    composite = compose(twist, shear)
    built = twist.inverse()
    newton = TorusMap(mesh, composite.disp)
    solved = newton.inverse()
    maps.pushforward_at(newton, lambda p: np.ones_like(p), pts)
    involved = [twist, shear, composite, built, composite.inverse(), newton, solved]
    assert not any(_is_or_holds_a_spline(list(vars(m).values())) for m in involved)


def test_newton_inverses_of_a_flow_keep_their_displacements_alone():
    # the 17 inverses of a K = 16 flow at N = 64 (16 by Newton, and the
    # identity its own) retain 1.06 MB, about their 1.05 MB of displacements;
    # with splines kept on the maps they retained 5.6 MB.  Costs about 0.5 s
    mesh = GridMesh(N=64)
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K=16)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        inverses = flow._inverses()
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    disp_bytes = sum(g._stored_disp.nbytes for g in inverses)
    assert len(inverses) == 17 and disp_bytes >= 16 * 2 * 64 * 64 * 8
    assert live - start <= 1.1 * disp_bytes


@pytest.mark.parametrize("chain_jac", [True, None])
def test_compose_accepts_only_chain_jac_false(chain_jac):
    mesh = GridMesh(N=32)
    a, b = catalog.twist(mesh, 0.08, 0.06), catalog.shear(mesh, 0.1)
    with pytest.raises(ValueError, match="chain_jac must be False"):
        compose(a, b, chain_jac=chain_jac)
    assert np.array_equal(compose(a, b, chain_jac=False).disp, compose(a, b).disp)


@pytest.mark.parametrize("radius", [0.5, 0.7])
def test_bump_rotation_support_must_lie_below_the_injectivity_radius(radius):
    mesh = GridMesh(N=32)
    assert radius >= mesh.injectivity_radius
    with pytest.raises(ValueError, match="below the injectivity radius"):
        catalog.bump_rotation(mesh, (0.5, 0.5), radius, 0.8)


def test_compose_rejects_maps_on_different_meshes():
    a = catalog.twist(GridMesh(N=32), 0.08, 0.06)
    for b in (catalog.twist(GridMesh(N=64), 0.08, 0.06),
              catalog.twist(GridMesh(N=32, L=(1.0, 2.0)), 0.08, 0.06)):
        with pytest.raises(ValueError, match="maps live on different meshes"):
            compose(a, b)


def test_region_rejects_empty_rectangles():
    with pytest.raises(ValueError, match="empty rectangle"):
        Region.rectangle((0.2, 0.0), (0.2, 1.0))
    with pytest.raises(ValueError, match="empty rectangle"):
        Region.rectangle((0.0, 0.5), (1.0, 0.25))
