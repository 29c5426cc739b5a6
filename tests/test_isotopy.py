"""Flows, fluxes, mass flow, path functionals, concatenation."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from fluxlab import catalog, isotopy
from fluxlab.forms import (OneForm, exterior_derivative, hodge_decompose,
                           oscillation, sup_norm)
from fluxlab.isotopy import (BumpProfile, Isotopy, LiftError,
                             NonSymplecticError, TimeField,
                             commutator_generator, concat_reparam,
                             f_functional, fathi_mass_flow,
                             generator_hodge_split, generator_length,
                             geodesic_functional,
                             hofer_like_length, integrate_flow,
                             orbit_integral, orbit_length_bound,
                             simpson_weights, symplectic_flux, volume_flux)
from fluxlab.interpolate import PeriodicInterpolator, VectorInterpolator
from fluxlab.maps import (DiffeomorphismError, TorusMap, compose,
                          interior_components, interior_product,
                          pullback_oneform)
from fluxlab.mesh import GridMesh

from builders import closed_form, grid_scalar, stacked_samples, sup_displacement

TWO_PI = 2 * np.pi
K = 32


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=64)


# -- flow integration ---------------------------------------------------------

def test_zero_field_flows_to_identity(mesh):
    iso = integrate_flow(np.zeros((2, mesh.N, mesh.N)), K, mesh)
    assert all(sup_displacement(m) < 1e-14 for m in iso.maps)


def test_constant_field_flows_to_translations(mesh):
    X = np.stack([np.full(mesh.shape, 0.3), np.full(mesh.shape, 0.4)])
    iso = integrate_flow(X, K, mesh)
    for j, m in enumerate(iso.maps):
        t = j / K
        assert np.abs(m.disp[0] - 0.3 * t).max() < 1e-13
        assert np.abs(m.disp[1] - 0.4 * t).max() < 1e-13


def test_shear_profile_flow_orbits_horizontal(mesh):
    # generator (-sin 2 pi y, 0): orbits keep y fixed, x advances linearly
    _, Y = mesh.points
    X = np.stack([-np.sin(TWO_PI * Y), np.zeros(mesh.shape)])
    iso = integrate_flow(X, K, mesh)
    end = iso.end_map
    assert np.abs(end.disp[1]).max() < 1e-12
    assert np.abs(end.disp[0] + np.sin(TWO_PI * Y)).max() < 1e-10


def test_integrate_flow_requires_min_steps(mesh):
    with pytest.raises(ValueError):
        integrate_flow(np.zeros((2, mesh.N, mesh.N)), 8, mesh)


def test_generator_inputs_are_checked():
    # a time-dependent field brings point values; integrate_flow takes a
    # TimeField on its grid or a steady (2, N, N) array, nothing else
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    with pytest.raises(ValueError, match=r"constant field must have shape \(2, N, N\), "
                                         r"got function of shape \(\)"):
        integrate_flow(lambda t: t * F.field(0.0), 16, mesh)
    with pytest.raises(ValueError, match="mesh required unless X is a TimeField"):
        integrate_flow(F.field(0.0), 16)
    for bad in (np.zeros((2, 64, 64)), np.zeros((2, 32)), np.zeros((3, 32, 32))):
        with pytest.raises(ValueError, match=r"constant field must have shape \(2, N, N\)"):
            TimeField.wrap(bad, mesh)
    # what is accepted: a steady field array, read off one spline
    tf = TimeField.wrap(F.field(0.0), mesh)
    assert tf.autonomous and tf.at is None
    assert TimeField.wrap(tf, mesh) is tf


def test_a_field_on_another_grid_is_rejected():
    # a TimeField of N = 64 neither wraps nor generates a path at N = 32,
    # where a flow or a length of it would fail on a reshape
    mesh, fine = GridMesh(N=32), GridMesh(N=64)
    for X in (catalog.hamiltonian_field(fine, {"cos_x_cos_y": 0.08}),
              TimeField.from_samples(np.zeros((2, *fine.shape)), fine)):
        for read in (lambda: TimeField.wrap(X, mesh),
                     lambda: integrate_flow(X, 16, mesh),
                     lambda: generator_length(X, 16, mesh)):
            with pytest.raises(ValueError, match="^field lives on a different mesh$"):
                read()
    maps = catalog.shear_flow(mesh, 0.1, K=16).maps
    with pytest.raises(ValueError, match="^field lives on a different mesh$"):
        Isotopy(mesh, maps, catalog.shear_flow(fine, 0.1, K=16).generator)


def test_a_flow_that_folds_asks_for_more_steps():
    # cos_x_cos_y at amplitude 2 folds at the fifth RK4 step of K = 16
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 2.0})
    with pytest.raises(DiffeomorphismError,
                       match=r"flow sample 5/16 failed .*; increase K") as info:
        integrate_flow(F, 16, mesh)
    assert isinstance(info.value.__cause__, DiffeomorphismError)


def test_isotopy_and_sample_path_inputs_are_checked():
    mesh = GridMesh(N=32)
    ident = TorusMap.identity(mesh)
    still = TimeField.wrap(np.zeros((2, 32, 32)), mesh)
    with pytest.raises(ValueError, match="at least two time samples"):
        Isotopy(mesh, [ident], still)
    with pytest.raises(ValueError, match="sample 0 of an isotopy must be the identity"):
        Isotopy(mesh, [catalog.translation(mesh, 0.1, 0.0), ident], still)
    # a stack of one sample is no time-dependent field; one (2, N, N)
    # sample is a steady one
    for shape in ((17, 2, 32), (17, 3, 32, 32), (17, 2, 64, 64), (1, 2, 32, 32),
                  (0, 2, 32, 32), (2, 64, 64)):
        with pytest.raises(ValueError, match=r"samples must have shape \(K\+1, 2, N, N\)"):
            TimeField.from_samples(np.zeros(shape), mesh)
    samples = np.zeros((17, 2, 32, 32))
    for bad in (np.nan, np.inf):
        samples[5, 1, 3, 4] = bad
        with pytest.raises(ValueError, match="non-finite vector field samples"):
            TimeField.from_samples(samples, mesh)


def test_a_sampled_field_is_read_at_its_sample_times_only():
    # sample j at t_j, on the grid and through a transient spline of it at
    # points; any other time raises, on the grid and at points alike
    mesh = GridMesh(N=32)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)
    samples = stacked_samples(flow)
    tf = TimeField.from_samples(samples, mesh)
    assert tf.sampled and not tf.autonomous and tf.at is None
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (2, 7))
    for j, t in enumerate(flow.times):
        # the stack is kept, not copied
        assert np.array_equal(tf.field(t), samples[j])
        assert np.shares_memory(tf.field(t), samples)
        assert np.array_equal(tf(t, pts), VectorInterpolator(samples[j], mesh)(pts))
    for t in (0.5 / 16, 0.5 + 1e-6, -1 / 16, 1 + 1 / 16):
        with pytest.raises(ValueError, match=f"t = {t} is not a sample time"):
            tf.field(t)
        with pytest.raises(ValueError, match=f"t = {t} is not a sample time"):
            tf(t, pts)


def test_integrate_flow_and_concat_reparam_reject_a_sampled_field(monkeypatch):
    # a sampled field has no values between its samples: neither a flow
    # nor a concatenation reads it, or builds anything, before raising
    mesh = GridMesh(N=32)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)
    tf = TimeField.from_samples(stacked_samples(flow), mesh)
    reads = []
    monkeypatch.setattr(tf, "field", lambda t: reads.append(t))
    composed = []
    monkeypatch.setattr(isotopy, "compose", lambda *a, **k: composed.append(a))
    with pytest.raises(ValueError, match="time-dependent TimeField needs point values"):
        integrate_flow(tf, 16)
    sampled = Isotopy(mesh, flow.maps, tf)
    for a, b in ((sampled, flow), (flow, sampled)):
        with pytest.raises(ValueError, match="two generators with point values"):
            concat_reparam(a, b)
    assert reads == [] and composed == []


def test_the_closedness_gate_of_a_sampled_field_is_looser():
    # an assembled generator carries interpolation noise: its samples are
    # gated at 1e-4 (1 + max |X|), any other time-dependent field's at 1e-8
    mesh = GridMesh(N=32)
    X, _ = mesh.points
    div = np.stack([np.sin(TWO_PI * X), np.zeros(mesh.shape)])  # sup |div| = 2 pi
    maps = [TorusMap.identity(mesh)] * 17
    for eps, sampled_passes in ((1e-6, True), (1e-4, False)):
        bad = eps * div
        sampled = TimeField.from_samples(np.broadcast_to(bad, (17, *bad.shape)), mesh)
        closed = TimeField(lambda t, p: eps * np.stack(
            [np.sin(TWO_PI * p[0]), 0.0 * p[1]]), mesh)
        assert sampled.closedness_tol(eps) == 1e-4 * (1.0 + eps)
        assert closed.closedness_tol(eps) == 1e-8 * (1.0 + eps)
        with pytest.raises(NonSymplecticError, match=r"> 1\.000e-08$"):
            symplectic_flux(Isotopy(mesh, maps, closed))
        path = Isotopy(mesh, maps, sampled)
        if sampled_passes:
            assert symplectic_flux(path).max_abs() < 1e-12
        else:
            with pytest.raises(NonSymplecticError, match=r"> 1\.000e-04$"):
                symplectic_flux(path)


def test_path_pairs_are_checked():
    mesh = GridMesh(N=32)
    a = catalog.translation_flow(mesh, 0.2, 0.1, 16)
    with pytest.raises(ValueError, match="paths live on different meshes"):
        concat_reparam(a, catalog.translation_flow(GridMesh(N=64), 0.2, 0.1, 16))
    with pytest.raises(ValueError, match="paths must share the same time sampling"):
        commutator_generator(a, catalog.translation_flow(mesh, 0.2, 0.1, 32))


# -- fluxes -------------------------------------------------------------------

def test_flux_identity_path(mesh):
    iso = catalog.translation_flow(mesh, 0.0, 0.0, K)
    assert symplectic_flux(iso).max_abs() < 1e-14


def test_flux_translation_analytic(mesh):
    p = symplectic_flux(catalog.translation_flow(mesh, 0.3, 0.4, K))
    assert abs(p[0] + 0.4) < 1e-12 and abs(p[1] - 0.3) < 1e-12


def test_flux_hamiltonian_vanishes(mesh):
    assert symplectic_flux(catalog.shear_flow(mesh, 0.1, K=K)).max_abs() < 1e-10
    assert symplectic_flux(
        catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.1, K)).max_abs() < 1e-10


def test_flux_rejects_nonsymplectic(mesh):
    X, Y = mesh.points
    bad = np.stack([0.2 * np.sin(TWO_PI * X), np.zeros(mesh.shape)])  # div != 0
    iso = integrate_flow(bad, K, mesh)  # an uncertified TimeField: gated at 1e-8
    with pytest.raises(NonSymplecticError):
        symplectic_flux(iso)


def test_volume_flux_matches_symplectic(mesh):
    for flow in (catalog.translation_flow(mesh, 0.3, 0.4, K),
                 catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=K)):
        p, q = volume_flux(flow), symplectic_flux(flow)
        assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) < 1e-10


def test_a_path_computes_each_flux_kind_once(monkeypatch):
    # the cache is keyed by the kind alone; every computed flux certifies
    # its generator once, and volume_flux computes the symplectic one too
    mesh = GridMesh(N=32)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)
    calls = []
    real = isotopy._certified_generator

    def counting(gen, K, what):
        calls.append(what)
        return real(gen, K, what)

    monkeypatch.setattr(isotopy, "_certified_generator", counting)
    q = volume_flux(flow)
    p = symplectic_flux(flow)
    assert volume_flux(flow) is q and symplectic_flux(flow) is p
    assert calls == ["volume_flux", "symplectic_flux"]


def _hex(values):
    return [v.hex() for v in np.ravel(values)]


def test_integrated_flux_equals_the_flux_of_the_same_maps():
    # integrate_flow sums the pulled flux integrand while it integrates; the
    # same maps and generator in a path of their own give the same bits
    mesh = GridMesh(N=32)
    A = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    B = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.05})
    fields = [A,                                   # closed form
              B.field(0.0),                        # raw array, one spline
              np.zeros((2, *mesh.shape)),          # every sample the identity
              TimeField(lambda t, p: np.cos(t) * A.at(t, p) + t * B.at(t, p),
                        mesh, certified_symplectic=True)]
    flows = [integrate_flow(F, 16, mesh) for F in fields]
    for flow in flows:
        by_maps = Isotopy(mesh, flow.maps, flow.generator)
        assert flow._pulled_flux is not None and by_maps._pulled_flux is None
        assert _hex(_pulled_flux(flow)) == _hex(_pulled_flux(by_maps))
        assert _hex(symplectic_flux(flow).periods) == _hex(symplectic_flux(by_maps).periods)
    assert all(m.is_identity() for m in flows[2].maps)
    assert symplectic_flux(flows[2]).max_abs() == 0.0


def test_integrated_flux_at_odd_K_and_of_an_uncertified_field():
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    # Simpson's rule has no weights at an odd K: the flow integrates, its
    # flux raises as before
    odd = integrate_flow(F, 17, mesh)
    assert odd.K == 17 and odd._pulled_flux is None
    with pytest.raises(ValueError, match="even number of steps, got K=17"):
        symplectic_flux(odd)
    # a divergent field, not certified: the summed route still gates it,
    # with the message of the route through the same maps
    X, _ = mesh.points
    bad = np.stack([0.2 * np.sin(TWO_PI * X), np.zeros(mesh.shape)])
    flow = integrate_flow(bad, 16, mesh)
    assert flow._pulled_flux is not None
    with pytest.raises(NonSymplecticError) as fused:
        symplectic_flux(flow)
    with pytest.raises(NonSymplecticError) as by_maps:
        symplectic_flux(Isotopy(mesh, flow.maps, flow.generator))
    assert str(fused.value) == str(by_maps.value)


def test_flux_reparametrization_invariance(mesh):
    base = catalog.translation_flow(mesh, 0.3, 0.4, K)

    def tau(t):
        return t - math.sin(TWO_PI * t) / TWO_PI

    def gen_at(t, points):
        rate = 1 - math.cos(TWO_PI * t)
        return np.stack([np.full(points.shape[1:], rate * 0.3),
                         np.full(points.shape[1:], rate * 0.4)])

    rep = Isotopy.from_time_function(
        mesh, lambda t: catalog.translation(mesh, 0.3 * tau(t), 0.4 * tau(t)), K,
        generator=TimeField(gen_at, mesh, certified_symplectic=True))
    p, q = symplectic_flux(base), symplectic_flux(rep)
    assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) < 1e-8


def _pulled_flux_by_form_spline(phi_path):
    """The pulled flux integrand read off a spline of the grid form i_X omega
    at phi_t(x): the reference for the generator's own point values."""
    vel = stacked_samples(phi_path)
    w = simpson_weights(phi_path.K, 1.0 / phi_path.K)
    acc = np.zeros((2, *phi_path.mesh.shape))
    for j, m in enumerate(phi_path.maps):
        beta = interior_product(vel[j], phi_path.mesh)
        if not m.is_identity():
            beta = pullback_oneform(m, beta.at)
        acc += w[j] * beta.components
    return acc


def _pulled_flux(phi_path):
    return isotopy._flux_form(phi_path, "test", pull=True).components


def _spline_route(flow):
    """The flow's own maps under its grid samples alone, with no point
    values, so that X is read off splines of the samples."""
    return Isotopy(flow.mesh, flow.maps,
                   generator=TimeField.from_samples(stacked_samples(flow), flow.mesh))


def test_pulled_flux_spline_route_is_bit_identical():
    # at the standard form, -(spline of X_y) is the spline of -X_y bit for bit
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.08})
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)
    for path in (integrate_flow(F.field(0.0), 16, mesh), _spline_route(flow)):
        assert path.generator.at is None
        got, ref = _pulled_flux(path), _pulled_flux_by_form_spline(path)
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in ref.ravel()]


def test_pulled_flux_closed_form_matches_spline_route():
    # the difference is the spline's interpolation error of the sampled form,
    # bounded here by twice the gap measured at N = 128, K = 16
    mesh = GridMesh(N=128)
    cases = [
        (catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K=16), 9.4e-11),
        (catalog.hamiltonian_flow(mesh, "mix_mode2", 0.08, K=16), 9.7e-10),
        (catalog.shear_flow(mesh, 0.1, K=16), 1.1e-16),
        (catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=16), 5.9e-11),
        (concat_reparam(catalog.translation_flow(mesh, 0.25, -0.15, 16),
                        catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=16)),
         4.5e-11),
        (catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, 16), 6.0e-7),
        # the spline's error on the narrower bump
        (catalog.rotation_flow(mesh, (0.5, 0.5), 0.2, 0.8, 16), 5.7e-6),
    ]
    for path, measured in cases:
        assert path.generator.at is not None
        diff = _pulled_flux(path) - _pulled_flux_by_form_spline(path)
        assert np.abs(diff).max() <= 2.0 * measured


def _flux_form_by_pullback(phi_path, pull):
    """The flux integrand summed as one `OneForm` per sample through
    `pullback_oneform`: the reference for the in-place sum."""
    mesh, gen = phi_path.mesh, phi_path.generator
    w = simpson_weights(phi_path.K, 1.0 / phi_path.K)
    acc = np.zeros((2, *mesh.shape))
    for j, (t, m) in enumerate(zip(phi_path.times, phi_path.maps)):
        if pull and not m.is_identity():
            beta = pullback_oneform(m, lambda pts: interior_components(gen(t, pts)))
        else:
            beta = interior_product(gen.field(t), mesh)
        acc += w[j] * beta.components
    return acc


def test_flux_sum_in_place_equals_the_pullback_route():
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.08})
    paths = [
        catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 16),
        integrate_flow(F.field(0.0), 16, mesh),
        catalog.rotation_flow(mesh, (0.5, 0.5), 0.2, 0.8, 16),
        # flux-duality's additivity path
        concat_reparam(catalog.translation_flow(mesh, 0.25, -0.15, 16),
                       catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=16),
                       oversample=2),
    ]
    for path in paths:
        for pull in (True, False):
            got = isotopy._flux_form(path, "test", pull=pull).components
            assert np.array_equal(got, _flux_form_by_pullback(path, pull))


def test_flux_sum_rejects_a_non_finite_sample():
    # a certified generator is not gated, so the NaN reaches the sum
    mesh = GridMesh(N=16)
    flow = catalog.shear_flow(mesh, 0.1, K=16)

    def at(t, points):
        out = np.zeros((2, *points.shape[1:]))
        out[0, ...] = np.nan
        return out

    gen = TimeField(at, mesh, autonomous=True, certified_symplectic=True)
    path = Isotopy(mesh, flow.maps, generator=gen)
    with pytest.raises(ValueError, match="non-finite"):
        symplectic_flux(path)


def test_flux_of_a_closed_form_flow_builds_no_spline(monkeypatch):
    # a raw-array flow splines its generator once, while integrating, and
    # its flux reads X through that spline; a closed-form flow reads X at
    # phi_t(x) from the field itself and splines neither X nor i_X omega
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    closed = integrate_flow(F, 16, mesh)
    splined = []
    real = PeriodicInterpolator.__init__

    def counting(self, values, mesh):
        if np.ptp(values) > 0:  # a constant field needs no spline
            splined.append(values)
        real(self, values, mesh)

    monkeypatch.setattr(PeriodicInterpolator, "__init__", counting)
    raw = integrate_flow(F.field(0.0), 16, mesh)
    assert len(splined) == 2
    assert all(np.array_equal(s, c) for s, c in zip(splined, F.field(0.0)))
    symplectic_flux(raw)
    volume_flux(closed)  # both routes
    assert len(splined) == 2


def test_flux_of_catalog_flows_builds_no_spline(monkeypatch):
    # translation-shear, rotation and their concatenation read X at
    # phi_t(x) from their point values; only the spline route of the same
    # samples builds splines (one per non-identity sample, X_y is constant)
    mesh = GridMesh(N=32)
    ts = catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=16)
    paths = [ts, catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, 16),
             concat_reparam(catalog.translation_flow(mesh, 0.25, -0.15, 16),
                            catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=16))]
    spline = _spline_route(ts)
    splined = []
    real = PeriodicInterpolator.__init__

    def counting(self, values, mesh):
        if np.ptp(values) > 0:  # a constant field needs no spline
            splined.append(values)
        real(self, values, mesh)

    monkeypatch.setattr(PeriodicInterpolator, "__init__", counting)
    for path in paths:
        volume_flux(path)  # both routes
    assert splined == []
    symplectic_flux(spline)
    assert len(splined) == 16


def test_flux_of_a_certified_path_stacks_no_samples(monkeypatch):
    # flux-duality's concatenated path: its certified generator is read on
    # the grid only at the identity samples, never stacked over all times
    mesh = GridMesh(N=32)
    path = concat_reparam(catalog.translation_flow(mesh, 0.25, -0.15, 16),
                          catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=16),
                          oversample=2)
    assert path.generator.certified_symplectic
    reads = []
    real = path.generator.field
    monkeypatch.setattr(path.generator, "field", lambda t: reads.append(t) or real(t))
    p = symplectic_flux(path)
    fathi_mass_flow(path)
    identity_times = [t for t, m in zip(path.times, path.maps) if m.is_identity()]
    assert 0 < len(reads) == len(identity_times) < path.K + 1
    assert reads == identity_times
    # the parts' translation fluxes add up, to twice the gap measured at
    # this N and K (1.2e-5)
    assert abs(p[0] - (0.15 - 0.2)) < 2.5e-5 and abs(p[1] - (0.25 - 0.1)) < 2.5e-5


def test_catalog_point_values_are_the_grid_samples():
    # each flow's samples are its point values at the mesh points, and both
    # equal the grid expressions the catalog used before it had point values
    mesh = GridMesh(N=32)
    X, Y = mesh.points
    flows, oracles = [], []

    def add(flow, oracle):
        flows.append(flow)
        oracles.append(oracle)

    def rotation(center, radius, angle):
        v = mesh.wrap_delta(mesh.points - np.asarray(center, dtype=float).reshape(2, 1, 1))
        chi, _ = catalog._bump_chi((v[0] ** 2 + v[1] ** 2) / radius ** 2)
        gen = np.stack([-angle * chi * v[1], angle * chi * v[0]])
        return lambda t: gen

    def shear(eps, axis, mode):
        gen = np.zeros((2, mesh.N, mesh.N))
        gen[axis] = eps * np.sin(TWO_PI * mode / mesh.L[1 - axis] * (Y if axis == 0 else X))
        return lambda t: gen

    def translation_shear(c, d, eps):
        def gen_at(t):
            out = np.empty((2, mesh.N, mesh.N))
            out[0] = c + eps * np.sin(TWO_PI / mesh.L[1] * (Y - t * d))
            out[1] = d
            return out
        return gen_at

    translation = np.empty((2, mesh.N, mesh.N))
    translation[0], translation[1] = 0.3, -0.4
    add(catalog.translation_flow(mesh, 0.3, -0.4, 16), lambda t: translation)
    for eps, axis, mode in ((0.1, 0, 1), (-0.15, 0, 2), (0.12, 1, 1)):
        add(catalog.shear_flow(mesh, eps, axis=axis, mode=mode, K=16),
            shear(eps, axis, mode))
    add(catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=16),
        translation_shear(0.25, 0.35, 0.12))
    add(catalog.rotation_flow(mesh, (0.3, 0.6), 0.25, 0.8, 16),
        rotation((0.3, 0.6), 0.25, 0.8))
    for flow, oracle in zip(flows, oracles):
        samples = stacked_samples(flow)
        for j, t in enumerate(flow.times):
            at = flow.generator.at(t, mesh.points)
            assert [v.hex() for v in at.ravel()] == [v.hex() for v in samples[j].ravel()]
            assert [v.hex() for v in at.ravel()] == [v.hex() for v in oracle(t).ravel()]


def test_off_sample_maps_and_raw_array_parts_raise():
    # a path given by its maps has them at its sample times only
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    flow = integrate_flow(F, 16, mesh)
    by_maps = Isotopy(mesh, flow.maps, flow.generator)
    assert by_maps.at_time(0.5) is flow.maps[8]
    with pytest.raises(ValueError, match="not a sample time and the path has no exact"):
        by_maps.at_time(0.5 / 16)
    # a raw-array flow has no point values; a closed-form one does
    raw = integrate_flow(F.field(0.0), 16, mesh)
    translation = catalog.translation_flow(mesh, 0.2, -0.1, 16)
    for a, b in ((raw, translation), (translation, raw)):
        with pytest.raises(ValueError, match="two generators with point values"):
            concat_reparam(a, b)


def test_volume_flux_catches_a_false_certificate():
    # a divergent field wrongly marked symplectic passes the generator gate;
    # its pulled and unpulled integrals then disagree (gap 1.12e-2)
    mesh = GridMesh(N=32)
    path = integrate_flow(TimeField(
        lambda t, p: np.stack([0.2 * np.sin(TWO_PI * p[0]) + 0.1, 0.0 * p[1]]),
        mesh, autonomous=True, certified_symplectic=True), 16, mesh)
    p = symplectic_flux(path)
    assert p[0] == 0.0 and abs(p[1] - 0.0888) < 1e-4
    with pytest.raises(AssertionError, match="disagrees with symplectic flux"):
        volume_flux(path)


# -- mass flow and duality ----------------------------------------------------

def test_mass_flow_identity(mesh):
    m = fathi_mass_flow(catalog.translation_flow(mesh, 0.0, 0.0, K))
    assert max(abs(m[0]), abs(m[1])) < 1e-14


def test_mass_flow_translation(mesh):
    m = fathi_mass_flow(catalog.translation_flow(mesh, 0.3, 0.4, K))
    assert abs(m[0] - 0.3) < 1e-12 and abs(m[1] - 0.4) < 1e-12


def test_mass_flow_large_translation_uses_lift(mesh):
    # winding beyond half a period must not wrap
    m = fathi_mass_flow(catalog.translation_flow(mesh, 0.75, 0.0, K))
    assert abs(m[0] - 0.75) < 1e-12


def test_poincare_duality(mesh):
    for flow in (catalog.translation_flow(mesh, 0.3, 0.4, K),
                 catalog.shear_flow(mesh, 0.1, K=K),
                 catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K)):
        m = fathi_mass_flow(flow)
        p = volume_flux(flow)
        assert max(abs(m[0] - p[1]), abs(m[1] + p[0])) < 1e-8


def test_mass_flow_rejects_coarse_lift(mesh):
    with pytest.raises(LiftError):
        Isotopy.from_time_function(
            mesh, lambda t: catalog.translation(mesh, 6.0 * t, 0.0), 16,
            TimeField.wrap(np.stack([np.full(mesh.shape, 6.0), np.zeros(mesh.shape)]),
                           mesh))


# -- generator split and length -----------------------------------------------

def test_split_translation(mesh):
    split = generator_hodge_split(catalog.translation_flow(mesh, 0.3, 0.4, K))
    assert all(sup_norm(u) < 1e-14 for u in split.potentials)
    h = split.harmonics[0]
    assert abs(h.ax[0, 0] + 0.4) < 1e-14 and abs(h.ay[0, 0] - 0.3) < 1e-14


def test_split_hamiltonian(mesh):
    amp = 0.1
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", amp, K)
    split = generator_hodge_split(flow)
    H = catalog.hamiltonian_potential(mesh, "cos_x_cos_y", amp)
    assert all(sup_norm(h) < 1e-12 for h in split.harmonics)
    assert sup_norm(split.potentials[0] - (H - H.mean())) < 1e-12


def test_split_rejects_a_divergent_generator(mesh):
    # a steady field with div X = 0.4 pi cos(2 pi x), uncertified, on a
    # path of identity maps: the split gates it as the fluxes do
    X, _ = mesh.points
    bad = np.stack([0.2 * np.sin(TWO_PI * X), np.zeros(mesh.shape)])
    path = Isotopy(mesh, [TorusMap.identity(mesh)] * (K + 1),
                   generator=TimeField.from_samples(bad, mesh))
    worst, tol = _stacked_gate(path)
    message = (f"generator_hodge_split: worst closedness residual of i_X omega "
               f"over the path is {worst:.3e} > {tol:.3e}")
    with pytest.raises(NonSymplecticError, match=f"^{re.escape(message)}$"):
        generator_hodge_split(path)


def test_split_gates_a_time_dependent_generator_at_its_first_bad_sample(mesh):
    # divergent only for t > 1/2; the gate scales with the largest sample
    # over the whole path, and the residual is the worst sample's
    path = Isotopy(mesh, [TorusMap.identity(mesh)] * (K + 1),
                   generator=TimeField(
                       lambda t, p: np.stack([0.2 * np.sin(TWO_PI * p[0]),
                                              0.0 * p[1]]) * (t > 0.5), mesh))
    worst, tol = _stacked_gate(path)
    assert f"{tol:.3e}" == "1.200e-08"
    message = (f"generator_hodge_split: worst closedness residual of i_X omega "
               f"over the path is {worst:.3e} > 1.200e-08")
    with pytest.raises(NonSymplecticError, match=f"^{re.escape(message)}$"):
        generator_hodge_split(path)


def test_every_reader_of_a_generator_passes_one_closedness_gate():
    # a steady field 5e-9 (sin 2 pi x, 0), uncertified: sup |div X| = 1e-8 pi
    # exceeds 1e-8 (1 + 5e-9), for the fluxes, the mass flow, the split and
    # the length alike
    mesh = GridMesh(N=32)
    X, _ = mesh.points
    bad = 5e-9 * np.stack([np.sin(TWO_PI * X), np.zeros(mesh.shape)])
    path = Isotopy(mesh, [TorusMap.identity(mesh)] * 17,
                   generator=TimeField.from_samples(bad, mesh))
    readers = (symplectic_flux, volume_flux, fathi_mass_flow, generator_hodge_split,
               lambda p: generator_length(p.generator, p.K, p.mesh))
    for read in readers:
        with pytest.raises(NonSymplecticError, match=r" is 3\.142e-08 > 1\.000e-08$"):
            read(path)


def test_steady_generator_samples_share_one_field(mesh):
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.1, K)
    gen = flow.generator
    assert gen.field(0.0).shape == (2, *mesh.shape)
    for j in (0, K // 2, K):
        assert gen.field(flow.times[j]) is gen.field(0.0)


def test_a_closed_form_field_samples_its_point_values(mesh):
    # a field with point values has no second grid function: its samples
    # are at(t, mesh.points) bit for bit, steady or time-dependent
    steady = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.08})
    moving = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=K).generator
    for gen in (steady, moving):
        for t in (0.0, 0.37, 1.0):
            assert np.array_equal(gen.field(t), gen.at(t, mesh.points))


def test_split_reconstruction(mesh):
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=K)
    split = generator_hodge_split(flow)
    vel = stacked_samples(flow)
    for j in (0, K // 2, K):
        beta = interior_product(vel[j], mesh)
        rec = beta - exterior_derivative(split.potentials[j]) - split.harmonics[j]
        assert sup_norm(rec) < 1e-10
        assert abs(split.potentials[j].mean()) < 1e-13


def test_hofer_length_values(mesh):
    assert hofer_like_length(catalog.translation_flow(mesh, 0.0, 0.0, K)) < 1e-14
    assert abs(hofer_like_length(catalog.translation_flow(mesh, 0.3, 0.4, K)) - 0.5) < 1e-12
    amp = 0.1
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", amp, K)
    H = catalog.hamiltonian_potential(mesh, "cos_x_cos_y", amp)
    assert abs(hofer_like_length(flow) - oscillation(H)) < 1e-10


def test_generator_length_is_the_length_of_the_integrated_flow():
    # the length reads the generator and K only: bit for bit the length of
    # the flow integrated from the same field, steady or time-dependent
    mesh = GridMesh(N=32)
    X, Y = mesh.points
    raw = np.stack([0.1 + 0.05 * np.sin(TWO_PI * Y), -0.2 + 0.05 * np.cos(TWO_PI * X)])
    moving = TimeField(
        lambda t, p: np.stack([0.05 * (1.0 + t) * np.sin(TWO_PI * p[1]),
                               0.03 * np.cos(TWO_PI * (p[0] + t))]), mesh)
    for field, k in ((catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08}), K),
                     (catalog.hamiltonian_field(
                         mesh, {"cos_x_cos_y": 0.1 * (2.0 ** -1 - 2.0 ** -2)}), 16),
                     (raw, K), (moving, K)):
        length = generator_length(field, k, mesh)
        assert length > 0.0
        assert length.hex() == hofer_like_length(integrate_flow(field, k, mesh)).hex()


# -- orbit integrals and functionals ------------------------------------------

def test_orbit_integral_identity(mesh):
    iso = catalog.translation_flow(mesh, 0.0, 0.0, K)
    assert abs(orbit_integral(iso, np.array([0.3, 0.3]),
                              OneForm.constant(mesh, 1.0, 2.0))) < 1e-14


def test_orbit_integral_translation(mesh):
    iso = catalog.translation_flow(mesh, 0.3, 0.4, K)
    val = orbit_integral(iso, np.array([0.1, 0.9]), OneForm.constant(mesh, 2.0, 1.0))
    assert abs(val - (2 * 0.3 + 1 * 0.4)) < 1e-12


def test_orbit_integral_exact_form(mesh):
    iso = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=64)
    G = grid_scalar(
        mesh, lambda x, y: 0.3 * np.sin(TWO_PI * x) + 0.2 * np.cos(TWO_PI * y))
    x = np.array([0.15, 0.65])
    val = orbit_integral(iso, x, exterior_derivative(G))
    end = iso.end_map
    lift = x + end.interp_disp(x.reshape(2, 1))[:, 0]
    expected = float(G.at(lift) - G.at(x))
    assert abs(val - expected) < 1e-8


def test_f_functional_translation(mesh):
    iso = catalog.translation_flow(mesh, 0.3, 0.4, K)
    alpha = OneForm.constant(mesh, 2.0, 1.0)
    for j in (0, K // 2, K):
        F = f_functional(iso, alpha, j / K)
        assert np.abs(F.values - (j / K) * (2 * 0.3 + 1 * 0.4)).max() < 1e-12


def test_f_functional_zero_form(mesh):
    iso = catalog.translation_flow(mesh, 0.3, 0.4, K)
    F = f_functional(iso, OneForm.constant(mesh, 0.0, 0.0), 1.0)
    assert sup_norm(F) == 0.0


@pytest.mark.parametrize("n", [3, 4, 17, 18, 65])
@pytest.mark.parametrize("tail", [(), (16, 16), (2, 16, 16)])
def test_cumulative_is_scipys_cumulative_simpson(n, tail):
    # scipy's rule is the oracle: same values to the last bit, and the same
    # signed zeros (-0.0 in the first two samples integrates to -0.0 before
    # scipy adds its initial +0.0)
    y = np.random.default_rng(1000 * n + len(tail)).standard_normal((n, *tail))
    zeros = np.zeros((n, *tail))
    zeros[:2] = -0.0
    for samples in (y, zeros):
        for dt in (1.0 / (n - 1), 1.0 / 64, 0.3):
            got = np.stack(list(isotopy._running_simpson(
                samples.__getitem__, n - 1, dt)))
            want = cumulative_simpson(samples, dx=dt, axis=0, initial=0.0)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("odd", [1, 3, 17])
def test_simpson_weights_need_an_even_step_count(odd):
    with pytest.raises(ValueError, match=f"even number of steps, got K={odd}"):
        simpson_weights(odd, 1.0 / odd)


@pytest.mark.parametrize("t", [0.5 / K, -1.0 / K, 1.0 + 1.0 / K])
def test_f_functional_rejects_a_non_sample_time(mesh, t):
    iso = catalog.translation_flow(mesh, 0.3, 0.4, K)
    with pytest.raises(ValueError, match="is not a sample time of this path"):
        f_functional(iso, OneForm.constant(mesh, 2.0, 1.0), t)


@pytest.mark.parametrize("delta", [0.0, 0.2, -0.1])
def test_bump_profile_rejects_delta_outside_its_range(delta):
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/8\]"):
        BumpProfile(delta=delta)


@pytest.mark.parametrize("n", [1, 2])
def test_cumulative_needs_three_samples(n):
    # scipy falls back to the trapezoid rule here; no caller needs that
    with pytest.raises(ValueError, match="at least 3 samples"):
        list(isotopy._running_simpson(np.ones((n, 4)).__getitem__, n - 1, 0.5))


@pytest.mark.parametrize("K", [2, 3, 16, 17])
def test_running_simpson_reads_each_sample_once_one_ahead(K):
    # F(t_j) needs the parabola through y_(j+1), and no sample beyond it
    calls = []

    def integrand(i):
        calls.append(i)
        return np.full(4, float(i))

    for j, _ in enumerate(isotopy._running_simpson(integrand, K, 1.0 / K)):
        assert calls == list(range(len(calls))) and len(calls) <= min(j + 2, K + 1)
    assert calls == list(range(K + 1))


def test_f_functional_matches_orbit_integral(mesh):
    iso = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=64)
    alpha = closed_form(mesh, (0.6, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * y))
    F1 = f_functional(iso, alpha, 1.0)
    for x in (np.array([0.1, 0.3]), np.array([0.7, 0.8])):
        direct = orbit_integral(iso, x, alpha)
        assert abs(float(F1.at(x)) - direct) < 1e-6


def test_geodesic_functional_identity(mesh):
    iso = catalog.translation_flow(mesh, 0.0, 0.0, K)
    assert sup_norm(geodesic_functional(iso, OneForm.constant(mesh, 1.0, 1.0))) < 1e-14


def test_geodesic_matches_f_functional_smooth(mesh):
    alpha = closed_form(mesh, (0.7, 0.4), lambda x, y: 0.2 * np.cos(TWO_PI * y))
    for flow in (catalog.shear_flow(mesh, 0.1, K=64),
                 catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 64)):
        gap = sup_norm(f_functional(flow, alpha, 1.0)
                       - geodesic_functional(flow, alpha))
        assert gap < 1e-6


def _chord_quadrature(h_path, alpha, n=256):
    """Composite Simpson rule with n intervals along the straight chord
    from x to x + u_1(x), interpolating alpha at every node."""
    mesh = h_path.mesh
    w = h_path.end_map.disp
    ws = simpson_weights(n, 1.0 / n)
    out = np.zeros(mesh.shape)
    for i, s in enumerate(np.linspace(0.0, 1.0, n + 1)):
        a = alpha.at((mesh.points + s * w).reshape(2, -1)).reshape(2, *mesh.shape)
        out += ws[i] * (a[0] * w[0] + a[1] * w[1])
    return out


def test_geodesic_functional_matches_chord_quadrature():
    # endpoint potentials against the quadrature oracle; measured gap at
    # most 1.9e-8 (cos_x_cos_y; 2.5e-16 on the shear) on values up to 0.07
    mesh = GridMesh(N=32)
    alpha = closed_form(mesh, (0.7, 0.4), lambda x, y: 0.5 * np.sin(TWO_PI * y) / TWO_PI)
    for flow in (catalog.shear_flow(mesh, 0.1, K=K),
                 catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K)):
        gap = np.abs(geodesic_functional(flow, alpha).values
                     - _chord_quadrature(flow, alpha)).max()
        assert gap < 1e-7


def test_geodesic_functional_constant_form_is_linear_in_lift():
    # a constant form has a zero potential, so only h.u_1 is left; the
    # harmonic part is the componentwise mean, which is not 0.7 to the
    # last bit on a 32 x 32 grid
    mesh = GridMesh(N=32)
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K)
    u = flow.end_map.disp
    for (bx, by) in ((1.0, 0.0), (0.7, -0.7)):
        beta = OneForm.constant(mesh, bx, by)
        expected = float(beta.ax.mean()) * u[0] + float(beta.ay.mean()) * u[1]
        assert np.array_equal(geodesic_functional(flow, beta).values, expected)


def test_steady_f_functional_builds_one_interpolator(monkeypatch):
    mesh = GridMesh(N=32)
    X = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08}).field(0.0)
    flow = integrate_flow(X, K, mesh)
    unsteady = Isotopy(mesh, flow.maps, generator=TimeField.from_samples(
        np.broadcast_to(X, (K + 1, *X.shape)), mesh))
    alpha = closed_form(mesh, (0.7, 0.4), lambda x, y: 0.2 * np.cos(TWO_PI * y))
    builds = []
    real = isotopy.PeriodicInterpolator

    def counting(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(isotopy, "PeriodicInterpolator", counting)
    steady_F = f_functional(flow, alpha, 1.0)
    assert len(builds) == 1
    ref_F = f_functional(unsteady, alpha, 1.0)
    assert len(builds) == 1 + K
    assert np.array_equal(steady_F.values, ref_F.values)


def _f_functional_family(phi_path, alpha):
    """F^t at every sample time from the stacked integrands and scipy's
    whole-path cumulative Simpson rule: the oracle of the streamed
    f_functional."""
    mesh, K = phi_path.mesh, phi_path.K
    vel = stacked_samples(phi_path)
    fields = np.empty((K + 1, *mesh.shape))
    for j, m in enumerate(phi_path.maps):
        g = alpha.ax * vel[j, 0] + alpha.ay * vel[j, 1]
        fields[j] = g if m.is_identity() else (
            PeriodicInterpolator(g, mesh)(m.flat_position).reshape(mesh.shape))
    return cumulative_simpson(fields, dx=1.0 / K, axis=0, initial=0.0)


def test_streamed_f_functional_equals_the_stacked_family():
    # a steady flow, a time-dependent catalog flow, and a time-dependent
    # closed-form field at odd K, whose last interval takes the backward
    # parabola
    mesh = GridMesh(N=32)
    alpha = closed_form(mesh, (0.7, 0.4), lambda x, y: 0.2 * np.cos(TWO_PI * (x - y)))
    A = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    B = catalog.hamiltonian_field(mesh, {"sin_x_plus_sin_y": 0.05})
    paths = [catalog.hamiltonian_flow(mesh, "mix_mode2", 0.08, 16),
             catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16),
             integrate_flow(TimeField(
                 lambda t, p: np.cos(t) * A.at(t, p) + t * B.at(t, p), mesh), 17)]
    for path in paths:
        family = _f_functional_family(path, alpha)
        for j in range(path.K + 1):
            F = f_functional(path, alpha, j / path.K)
            assert np.array_equal(F.values, family[j])
            assert np.array_equal(np.signbit(F.values), np.signbit(family[j]))


@pytest.fixture(scope="module")
def raw_flow_128():
    """A steady flow of a raw field array at N = 128, K = 64, and a closed
    form with an exact part."""
    mesh = GridMesh(N=128)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    alpha = closed_form(mesh, (0.6, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * (x + y)))
    return integrate_flow(F.field(0.0), 64, mesh), alpha


def test_delta_via_flux_of_a_raw_flow_leaves_no_interpolators(raw_flow_128):
    # the orbit runs through the flow's own step and the spline its field
    # cached while integrating; reading it off the 65 stored maps cached
    # 130 interpolators there, 68 MB
    from fluxlab.displacement import delta_via_flux
    flow, alpha = raw_flow_128
    tracemalloc.start()
    try:
        delta_via_flux(flow.end_map, alpha, np.array([0.3, 0.7]), flow)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 5 * 2 ** 20


def test_f_functional_streams_its_samples(raw_flow_128):
    # three integrands, a running sum and one interpolator; the stacked
    # integrands and the whole-path rule peaked 26 MB above the start
    flow, alpha = raw_flow_128
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        f_functional(flow, alpha, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 6 * 2 ** 20


def test_certified_split_reads_one_sample_at_a_time():
    # a certified time-dependent generator is read sample by sample; the
    # stack of its 65 samples (16 MiB at N = 128) made the split peak
    # 32.6 MiB above its start
    mesh = GridMesh(N=128)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=64)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        split = generator_hodge_split(flow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 16 * 2 ** 20
    # the same generator, uncertified, is gated but still never stacked;
    # its split equals the trusted one
    gen = flow.generator
    gated = Isotopy(mesh, flow.maps, generator=TimeField(gen.at, mesh))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        gated_split = generator_hodge_split(gated)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 16 * 2 ** 20
    assert len(split.potentials) == len(gated_split.potentials) == 65
    for a, b in zip(split.potentials, gated_split.potentials):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(split.harmonics, gated_split.harmonics):
        assert np.array_equal(a.components, b.components)
    # and both equal the split of the stacked samples
    stack = stacked_samples(flow)
    for j in (0, 33, 64):
        ref = hodge_decompose(interior_product(stack[j], mesh))
        assert np.array_equal(split.potentials[j].values, ref.potential.values)
        assert np.array_equal(split.harmonics[j].components, ref.harmonic.components)


def _stacked_gate(path):
    """The oracle of the flux gate on a TimeField that is not certified:
    the worst sup |d(i_X omega)| over all stacked samples and the default
    tolerance 1e-8 (1 + max |X|)."""
    vel = stacked_samples(path)
    worst = max(sup_norm(exterior_derivative(interior_product(X, path.mesh))) for X in vel)
    return worst, 1e-8 * (1.0 + float(np.abs(vel).max()))


def test_flux_gate_reads_an_uncertified_generator_one_sample_at_a_time():
    # a time-dependent TimeField that is not certified: the gate of
    # fathi_mass_flow and symplectic_flux reads it sample by sample.  The
    # 65 samples at N = 128 take 16.3 MiB; stacking them peaked 32.9 MiB
    # above the start, reading them one at a time peaks at 1.5 MiB
    mesh = GridMesh(N=128)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=64)
    gen = flow.generator
    gated = Isotopy(mesh, flow.maps, generator=TimeField(gen.at, mesh))
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        m = fathi_mass_flow(gated)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * 2 ** 20
    # it passes where the stacked oracle passes, with the trusted values
    worst, tol = _stacked_gate(gated)
    assert worst <= tol
    assert m == fathi_mass_flow(flow)


def test_flux_gate_rejects_as_the_stacked_oracle_does():
    # divergent with a strength growing in t: the largest |X| and the worst
    # residual are those of the last sample, and both enter the message
    mesh = GridMesh(N=32)
    path = Isotopy(mesh, [TorusMap.identity(mesh)] * 17, generator=TimeField(
        lambda t, p: t * np.stack([0.2 * np.sin(TWO_PI * p[0]), 0.0 * p[1]]), mesh))
    worst, tol = _stacked_gate(path)
    assert worst > tol
    for check in (symplectic_flux, fathi_mass_flow, volume_flux):
        message = (f"{check.__name__}: worst closedness residual of i_X omega over "
                   f"the path is {worst:.3e} > {tol:.3e}")
        with pytest.raises(NonSymplecticError, match=f"^{re.escape(message)}$"):
            check(path)
    # a symplectic time-dependent field, not certified, passes both, with
    # the values of its certified twin
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=16)
    gen = flow.generator
    gated = Isotopy(mesh, flow.maps, generator=TimeField(gen.at, mesh))
    worst, tol = _stacked_gate(gated)
    assert worst <= tol
    assert symplectic_flux(gated) == symplectic_flux(flow)
    assert fathi_mass_flow(gated) == fathi_mass_flow(flow)


def test_kappa_linear_bound(mesh):
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.1, K)
    kappa = orbit_length_bound(flow)
    for (bx, by) in ((1.0, 0.0), (0.5, 0.5)):
        beta = OneForm.constant(mesh, bx, by)
        assert sup_norm(geodesic_functional(flow, beta)) <= kappa * sup_norm(beta) + 1e-12


# -- concatenation ------------------------------------------------------------

def test_bump_profile_margins():
    u = BumpProfile(0.125)
    s = np.linspace(0, 0.125, 20)
    assert np.all(u.u(s) == 0.0) and np.all(u.du(s) == 0.0)
    s = np.linspace(0.875, 1.0, 20)
    assert np.all(u.u(s) == 1.0) and np.all(u.du(s) == 0.0)
    mid = np.linspace(0.13, 0.87, 100)
    assert np.all(np.diff(u.u(mid)) >= 0)


def test_concat_endpoints(mesh):
    A = catalog.translation_flow(mesh, 0.2, -0.1, K)
    B = catalog.shear_flow(mesh, 0.1, K=K)
    joined = concat_reparam(A, B)
    assert sup_displacement(joined.maps[0]) < 1e-12
    target = compose(A.end_map, B.end_map, normalize=False)
    assert np.abs(joined.end_map.disp - target.disp).max() < 1e-10


def test_concat_flat_margins_velocity(mesh):
    A = catalog.translation_flow(mesh, 0.2, -0.1, K)
    B = catalog.shear_flow(mesh, 0.1, K=K)
    joined = concat_reparam(A, B)
    # the velocity is zero exactly where the displacement stands still
    Kj = joined.K
    disps = [m.disp for m in joined.maps]
    mid = [j for j in range(Kj + 1) if abs(j / Kj - 0.5) <= 0.0625]
    worst = max(np.abs(isotopy._time_derivative(disps, j, Kj)).max() for j in mid)
    assert worst < 1e-8


def test_concat_inverse_returns_to_identity(mesh):
    # the steady shear flow of -0.1 is t -> phi_t^{-1} of the flow of 0.1
    A = catalog.shear_flow(mesh, 0.1, K=K)
    Ainv = catalog.shear_flow(mesh, -0.1, K=K)
    joined = concat_reparam(Ainv, A)
    assert sup_displacement(joined.end_map) < 1e-8


def test_flux_additivity_under_concat(mesh):
    A = catalog.translation_flow(mesh, 0.25, -0.15, K)
    B = catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=K)
    joined = concat_reparam(A, B, oversample=4)
    pj = symplectic_flux(joined)
    pa, pb = symplectic_flux(A), symplectic_flux(B)
    assert max(abs(pj[0] - pa[0] - pb[0]), abs(pj[1] - pa[1] - pb[1])) < 1e-8


# -- commutator generating function -------------------------------------------

def test_commutator_identity_second_factor(mesh):
    A = catalog.shear_flow(mesh, 0.1, K=K)
    ident = catalog.translation_flow(mesh, 0.0, 0.0, K)
    theta, pi = commutator_generator(A, ident)
    assert max(sup_displacement(m) for m in theta.maps) < 1e-12
    assert max(sup_norm(f) for f in pi) < 1e-12


def test_commutator_translations(mesh):
    A = catalog.translation_flow(mesh, 0.3, 0.0, K)
    B = catalog.translation_flow(mesh, 0.0, 0.4, K)
    theta, pi = commutator_generator(A, B)
    assert max(sup_displacement(m) for m in theta.maps) < 1e-12
    assert max(sup_norm(f) for f in pi) < 1e-12


def test_commutator_certification_and_flux(mesh):
    A = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.06, K)
    B = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=K)
    theta, pi = commutator_generator(A, B, tol=5e-3)
    assert theta.provenance["certified_residual"] < 5e-3
    assert symplectic_flux(theta).max_abs() < 1e-6
    # commutator paths are exact at every time: per-sample periods vanish
    for t in theta.times:
        beta = interior_product(theta.generator.field(t), mesh)
        p = max(abs(float(beta.ax.mean())), abs(float(beta.ay.mean())))
        assert p <= 1e-6


def test_commutator_certification_gate():
    # at K = 16 the finite-difference oracle leaves a residual of about
    # 2.3e-3, above the default gate of 1e-3
    coarse = GridMesh(N=32)
    A = catalog.hamiltonian_flow(coarse, "cos_x_cos_y", 0.06, 16)
    B = catalog.translation_shear_flow(coarse, 0.2, 0.15, 0.05, K=16)
    with pytest.raises(NonSymplecticError, match="failed certification"):
        commutator_generator(A, B)


def test_commutator_flux_at_the_coarse_mesh():
    # generator-g1's pair at N = 32, K = 64: theta^-1 is psi o h^-1, read
    # through one composition fewer, and its sampled generator passes the
    # flux gate
    coarse = GridMesh(N=32)
    A = catalog.hamiltonian_flow(coarse, "cos_x_cos_y", 0.06, 64)
    B = catalog.translation_shear_flow(coarse, 0.2, 0.15, 0.05, K=64)
    theta, _ = commutator_generator(A, B)
    assert symplectic_flux(theta).max_abs() < 1e-6


def test_commutator_streams_its_samples(mesh):
    # generator-g1's pair: the whole-path integrand stacks, their running
    # integrals, the composition stack and the stacked finite differences
    # peaked 46.7 MiB above the start, and the h <-> h^-1 links left 115
    # unreachable objects; streamed, the peak measures 19.9 MiB.  No inverse
    # refers back to its map, so dropping the result leaves nothing for gc.
    A = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.06, K)
    B = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=K)
    A._inverses(), B._inverses()
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = commutator_generator(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 24 * 2 ** 20
    assert gc.collect() == 0
    assert result[0].provenance["certified_residual"] < 1e-3
    del result
    assert gc.collect() == 0


# -- closed-form Hamiltonian fields ---------------------------------------------

# the per-potential gradients the catalog sampled before its Fourier tables,
# kept as the oracle of the grid samples: (dH/dx, dH/dy) at unit amplitude
_GRADIENT_ORACLE = {
    "cos_x_cos_y": (
        lambda X, Y: -np.sin(TWO_PI * X) * np.cos(TWO_PI * Y),
        lambda X, Y: -np.cos(TWO_PI * X) * np.sin(TWO_PI * Y)),
    "sin_x_plus_sin_y": (
        lambda X, Y: np.cos(TWO_PI * X),
        lambda X, Y: np.cos(TWO_PI * Y)),
    "mix_mode2": (
        lambda X, Y: (-np.sin(TWO_PI * X) * np.cos(TWO_PI * Y)
                      + np.cos(2 * TWO_PI * X) * np.cos(TWO_PI * Y)),
        lambda X, Y: (-np.cos(TWO_PI * X) * np.sin(TWO_PI * Y)
                      - 0.5 * np.sin(2 * TWO_PI * X) * np.sin(TWO_PI * Y))),
}


def test_hamiltonian_field_samples_match_sampled_gradients():
    mesh = GridMesh(N=32)
    X, Y = mesh.points
    assert set(_GRADIENT_ORACLE) == set(catalog.POTENTIALS)
    for name, (dHx, dHy) in _GRADIENT_ORACLE.items():
        F = catalog.hamiltonian_field(mesh, {name: 0.07})
        ref = np.stack([0.07 * dHy(X, Y), -0.07 * dHx(X, Y)])
        assert np.abs(F.field(0.0) - ref).max() <= 1e-15
        assert not F.field(0.0).flags.writeable
        assert not F.certified_symplectic
        # the potential comes from the same table: X_H = (dH/dy, -dH/dx)
        H = catalog.hamiltonian_potential(mesh, name, 0.07).values
        grad = mesh.gradient(H)
        assert np.abs(np.stack([grad[1], -grad[0]]) - F.field(0.0)).max() < 1e-13


def test_hamiltonian_field_algebra():
    mesh = GridMesh(N=32)
    G = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.3})
    for a in (2.5, -0.1, 0.0):
        F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": a})
        S = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": a, "mix_mode2": 0.3})
        assert np.abs(S.field(0.0) - (F.field(0.0) + G.field(0.0))).max() <= 1e-15
    # the mapping is read once: changing it later changes no field
    amps = {"cos_x_cos_y": 0.08}
    F = catalog.hamiltonian_field(mesh, amps)
    amps["cos_x_cos_y"] = 1.0
    assert np.array_equal(F.field(0.0),
                          catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08}).field(0.0))
    with pytest.raises(KeyError, match="unknown potential"):
        catalog.hamiltonian_field(mesh, {"cos_x": 1.0})
    with pytest.raises(KeyError, match="unknown potential"):
        catalog.hamiltonian_potential(mesh, "cos_x", 1.0)


def test_point_route_orbits_reproduce_the_stored_maps():
    # the orbit of each grid point, integrated by the flow's own step,
    # against the map samples integrate_flow stored (1.1e-16 measured, the
    # round-off of restarting each step from the stored sample):
    # closed-form fields, their raw grid samples read through the one
    # spline their TimeField keeps, and a time-dependent closed-form field
    mesh = GridMesh(N=32)
    fields = [catalog.hamiltonian_field(mesh, {name: 0.08}) for name in catalog.POTENTIALS]
    fields.append(catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08,
                                                   "sin_x_plus_sin_y": 0.004,
                                                   "mix_mode2": -0.04}))
    fields += [F.field(0.0) for F in fields[:2]]
    A, B = fields[0], fields[1]
    fields.append(TimeField(
        lambda t, p: np.cos(t) * A.at(t, p) + t * B.at(t, p), mesh))
    for F in fields:
        flow = integrate_flow(F, 16, mesh)
        assert flow._flow_step is not None
        orbit = isotopy._orbit_points(flow, mesh.flat_points)
        for j, m in enumerate(flow.maps):
            assert np.abs(orbit[j] - m.flat_position).max() <= 1e-15


def test_point_route_matches_spline_route():
    # the spline route carries the interpolation error of the sampled field:
    # 9.8e-11 (cos_x_cos_y) and 5.0e-11 (sin_x_plus_sin_y) at N = 128;
    # mix_mode2's mode 2 gives 1.1e-9 here, and N = 32 gives 2e-8
    mesh = GridMesh(N=128)
    for name in ("cos_x_cos_y", "sin_x_plus_sin_y"):
        F = catalog.hamiltonian_field(mesh, {name: 0.08})
        point, spline = integrate_flow(F, 16, mesh), integrate_flow(F.field(0.0), 16, mesh)
        assert np.abs(point.end_map.disp - spline.end_map.disp).max() <= 1e-9


def test_orbit_interpolators_by_route(monkeypatch):
    # integrated flows of both routes integrate the orbit with their own
    # step and read no stored displacement; a path given by its maps reads
    # each orbit off two spline interpolators of every stored displacement
    mesh = GridMesh(N=32)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    raw, closed = integrate_flow(F.field(0.0), 16, mesh), integrate_flow(F, 16, mesh)
    by_maps = Isotopy(mesh, raw.maps, generator=raw.generator)
    builds = []
    real = TorusMap._get_interp

    def counting(self, key, values):
        if key not in self._interp:
            builds.append(key)
        return real(self, key, values)

    monkeypatch.setattr(TorusMap, "_get_interp", counting)
    x = np.array([0.3, 0.7])
    isotopy._orbit_points(raw, x)
    isotopy._orbit_points(closed, x)
    assert builds == []
    isotopy._orbit_points(by_maps, x)
    assert len(builds) == 2 * (16 + 1)


def test_orbit_integral_of_a_closed_form_flow_builds_no_interpolator(monkeypatch):
    # a closed-form flow reads its generator at the orbit points; a steady
    # raw-array flow builds one spline of it, while integrating, and reads
    # the orbit integral through that one
    mesh = GridMesh(N=32)
    x, alpha = np.array([0.15, 0.65]), OneForm.constant(mesh, 0.6, -0.2)
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    builds = []
    real = VectorInterpolator.__init__

    def counting(self, components, mesh):
        builds.append(components)
        real(self, components, mesh)

    monkeypatch.setattr(VectorInterpolator, "__init__", counting)
    orbit_integral(flow, x, alpha)
    assert builds == []
    raw = integrate_flow(F.field(0.0), 16, mesh)
    assert len(builds) == 1 and np.array_equal(builds[0], F.field(0.0))
    orbit_integral(raw, x, alpha)
    assert len(builds) == 1


def _orbit_integral_per_sample(phi_path, x, alpha):
    """The orbit integral with one lookup of alpha and of the generator per
    time sample: the reference for the batched lookups."""
    orbit = isotopy._orbit_points(phi_path, x)
    K = phi_path.K
    tf = phi_path.generator
    vel = np.stack([tf(t, orbit[j]) for j, t in enumerate(phi_path.times)])
    a = np.stack([alpha.at(orbit[j]) for j in range(K + 1)])
    integrand = (a * vel).sum(axis=1)[:, 0]
    return float(np.sum(simpson_weights(K, 1.0 / K) * integrand))


def test_orbit_integral_batches_its_lookups():
    mesh = GridMesh(N=32)
    alpha = closed_form(mesh, (0.6, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * (x + y)))
    F = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.08})
    paths = [integrate_flow(F.field(0.0), 16, mesh),   # steady spline
             integrate_flow(F, 16, mesh),              # closed form
             catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16)]
    for path in paths:
        for x in (np.array([0.15, 0.65]), np.array([0.9, 0.05])):
            assert (orbit_integral(path, x, alpha).hex()
                    == _orbit_integral_per_sample(path, x, alpha).hex())


def test_orbit_integral_of_several_points_equals_one_point_calls():
    mesh = GridMesh(N=32)
    alpha = closed_form(mesh, (0.6, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * (x + y)))
    F = catalog.hamiltonian_field(mesh, {"mix_mode2": 0.08})
    paths = [integrate_flow(F.field(0.0), 16, mesh),
             integrate_flow(F, 16, mesh),
             catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=16),
             catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, 16)]
    x = np.random.default_rng(7).uniform(0.0, 1.0, (2, 5))
    for path in paths:
        values = orbit_integral(path, x, alpha)
        assert values.shape == (5,)
        assert [v.hex() for v in values.tolist()] == [
            orbit_integral(path, p, alpha).hex() for p in x.T]
    assert isinstance(orbit_integral(paths[0], x[:, 0], alpha), float)


def test_orbit_lift_guard_between_grid_points():
    # grid jumps of 0.2495 pass the constructor's L/4 check, while the
    # interpolated jump peaks between grid points at about 0.2505
    mesh = GridMesh(N=16)
    _, Y = mesh.points
    profile = np.cos(TWO_PI * 3 * Y - TWO_PI * 3 / 32)
    u = np.stack([0.2495 + 0.05 * (profile - profile.max()), np.zeros(mesh.shape)])
    path = Isotopy(mesh, [TorusMap.identity(mesh), TorusMap(mesh, u)],
                   TimeField.wrap(u, mesh))
    isotopy._orbit_points(path, np.array([0.3, 0.2]))
    with pytest.raises(LiftError, match="orbit lift increment"):
        isotopy._orbit_points(path, np.array([0.3, 1 / 32]))


# -- streamed whole-path reductions -------------------------------------------

def _stacked_jump(maps):
    """The constructor's jump check as a reduction over the stacked path."""
    disp = np.stack([m.disp for m in maps])
    return np.abs(np.diff(disp, axis=0)).max()


def _stacked_orbit_length(path):
    disp = np.stack([m.disp for m in path.maps])
    seg = np.sqrt(np.diff(disp, axis=0)[:, 0] ** 2 +
                  np.diff(disp, axis=0)[:, 1] ** 2)
    return float(seg.sum(axis=0).max())


def _streamed_paths():
    mesh = GridMesh(N=32)
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 16)
    A = catalog.translation_flow(mesh, 0.25, -0.15, 16)
    B = catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=16)
    return mesh, [flow, concat_reparam(A, B, oversample=2)]


def _lift_threshold(monkeypatch, threshold):
    """Make the constructor's jump bound r(g)/2 equal `threshold` exactly."""
    monkeypatch.setattr(GridMesh, "injectivity_radius",
                        property(lambda self: 2.0 * threshold))


def test_constructor_jump_equals_the_stacked_oracle(monkeypatch):
    # the jump passes a bound equal to the oracle and fails the next float
    # below it, so the two are the same float bit for bit
    mesh, paths = _streamed_paths()
    for path in paths:
        oracle = _stacked_jump(path.maps)
        assert oracle > 0.0
        _lift_threshold(monkeypatch, oracle)
        Isotopy(mesh, path.maps, path.generator)
        _lift_threshold(monkeypatch, np.nextafter(oracle, 0.0))
        with pytest.raises(LiftError, match="consecutive samples jump"):
            Isotopy(mesh, path.maps, path.generator)


def test_lift_error_fires_just_above_a_quarter_period():
    mesh = GridMesh(N=32)

    def step(s):
        """The translation by (s, 0) in one step, with its steady generator."""
        u = np.stack([np.full(mesh.shape, s), np.zeros(mesh.shape)])
        return Isotopy(mesh, [TorusMap.identity(mesh), TorusMap(mesh, u)],
                       TimeField.wrap(u, mesh))

    assert mesh.injectivity_radius / 2.0 == 0.25
    step(0.25)
    with pytest.raises(LiftError, match="consecutive samples jump"):
        step(np.nextafter(0.25, 1.0))


def test_lift_error_fires_for_constant_and_line_samples():
    # the jump check subtracts the stored fields with broadcasting, so
    # translations (stored as a point) and shears (stored as a line) keep
    # the bound of full samples: r(g)/2 passes and the next float fails
    mesh = GridMesh(N=32)
    builders = [lambda s: catalog.translation(mesh, s, 0.0),
                lambda s: catalog.shear(mesh, s),
                lambda s: catalog.shear(mesh, s, axis=1)]
    for build, stored in zip(builders, [(1, 1), (1, 32), (32, 1)]):
        def step(s):
            m = build(s)
            assert m._stored_disp.shape[1:] == stored
            return Isotopy(mesh, [TorusMap.identity(mesh), m],
                           TimeField.wrap(np.array(m.disp), mesh))

        step(0.25)
        with pytest.raises(LiftError, match="consecutive samples jump"):
            step(np.nextafter(0.25, 1.0))
    # a line sample next to a line sample along the other axis
    a, b = catalog.shear(mesh, 0.2), catalog.shear(mesh, 0.26, axis=1)
    with pytest.raises(LiftError, match="jump by 0.260"):
        Isotopy(mesh, [TorusMap.identity(mesh), a, b],
                TimeField.wrap(np.array(a.disp), mesh))


def test_constructor_holds_no_stack_of_samples():
    mesh = GridMesh(N=32)
    flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 64)
    maps = flow.maps
    tracemalloc.start()
    try:
        Isotopy(mesh, maps, flow.generator)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a pair difference and its absolute value; the stack was 65 samples
    assert peak <= 4 * maps[0].disp.nbytes


def test_translation_flow_holds_no_grid_arrays():
    mesh = GridMesh(N=128)
    tracemalloc.start()
    try:
        flow = catalog.translation_flow(mesh, 0.3, 0.4, 64)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 65 maps with constant fields; full arrays would hold 65 x 768 KB
    assert flow.K == 64 and live < 2 * 2 ** 20


def test_shear_family_flows_hold_one_grid_line_per_map():
    mesh = GridMesh(N=128)

    def live_mb(build):
        tracemalloc.start()
        try:
            out = build()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, live / 2 ** 20

    # 65 maps each; full arrays held 49 MB a flow, the concatenation 82 MB
    # more; one grid line per field measures 0.5, 0.5 and 0.9 MB
    _, shear_mb = live_mb(lambda: catalog.shear_flow(mesh, 0.1, K=64))
    A, _ = live_mb(lambda: catalog.translation_flow(mesh, 0.2, -0.1, 64))
    B, ts_mb = live_mb(lambda: catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=64))
    joined, concat_mb = live_mb(lambda: concat_reparam(A, B, oversample=2))
    assert joined.K == 256
    assert shear_mb < 1.0 and ts_mb < 1.0 and concat_mb < 2.0


def test_only_a_steady_field_keeps_its_sample(mesh):
    steady = catalog.shear_flow(mesh, 0.1, K=K).generator
    assert steady.field(0.0) is steady.field(0.5)
    moving = catalog.translation_shear_flow(mesh, 0.1, 0.2, 0.05, K=K).generator
    a, b = moving.field(0.25), moving.field(0.25)
    assert a is not b and np.array_equal(a, b)


def test_orbit_length_bound_equals_the_stacked_oracle():
    _, paths = _streamed_paths()
    for path in paths:
        assert orbit_length_bound(path).hex() == _stacked_orbit_length(path).hex()


def test_integrated_flow_keeps_only_its_displacements():
    mesh = GridMesh(N=128)
    tracemalloc.start()
    try:
        flow = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, 64)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 64 displacements of 256 KiB; keeping the spectral Jacobian that each
    # sample's validation computed held 48 MiB
    assert flow.K == 64 and live < 20 * 2 ** 20


def test_generator_split_keeps_no_constant_grid_forms():
    mesh = GridMesh(N=128)
    psi = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=64)
    tracemalloc.start()
    try:
        split = generator_hodge_split(psi)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 65 potentials of 128 KiB each, 8.2 MiB; the harmonic parts stored
    # as full (2, N, N) forms added 16 MiB
    assert len(split.harmonics) == 65 and live < 10 * 2 ** 20
    assert all(h.ax.strides == h.ay.strides == (0, 0) for h in split.harmonics)
