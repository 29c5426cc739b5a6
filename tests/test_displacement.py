"""Displacement potentials, the norm estimator, energies, rigidity."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fluxlab import catalog, displacement
from fluxlab.displacement import (UnitSphereSampler, _basis_potentials,
                                  _displacement_potential,
                                  commutator_collapse_check, conjugation_check,
                                  delta, delta_tilde, delta_via_flux,
                                  displaces, displacement_energy_upper,
                                  energy_chain_check, map_commutator,
                                  norm_axiom_report, nu_function, psi_norm,
                                  rigidity_limit_check,
                                  supported_commutator_pair)
from fluxlab.forms import (NonClosedFormError, OneForm, hodge_decompose,
                           l2_norm, sup_norm)
from fluxlab.isotopy import integrate_flow, orbit_integral
from fluxlab.maps import (Region, TorusMap, c0_distance, compose,
                          pullback_oneform)
from fluxlab.mesh import GridMesh

from builders import closed_form

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=64)


@pytest.fixture(scope="module")
def sampler(mesh):
    return UnitSphereSampler(mesh, max_mode=4, count=24, seed=5)


# -- displacement potential ---------------------------------------------------

def test_nu_identity(mesh):
    nu = nu_function(TorusMap.identity(mesh), OneForm.constant(mesh, 1.0, 0.0),
                     (0.2, 0.3))
    assert sup_norm(nu) < 1e-13


def test_nu_translation_harmonic(mesh):
    nu = nu_function(catalog.translation(mesh, 0.3, 0.1),
                     OneForm.constant(mesh, 1.0, 2.0), (0.2, 0.3))
    assert sup_norm(nu) < 1e-12


def test_nu_shear_analytic(mesh):
    _, Y = mesh.points
    nu = nu_function(catalog.shear(mesh, 0.1), OneForm.constant(mesh, 1.0, 0.0),
                     (0.0, 0.25))
    expected = 0.1 * np.sin(TWO_PI * Y) - 0.1
    assert np.abs(nu.values - expected).max() < 1e-12


def test_nu_matches_segment_quadrature(mesh):
    # independent oracle: integrate psi^*alpha - alpha along the straight
    # segment from the base point
    psi = catalog.twist(mesh, 0.08, 0.05)
    alpha = closed_form(mesh, (0.7, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * y))
    p = np.array([0.15, 0.35])
    nu = nu_function(psi, alpha, p)
    from fluxlab.maps import pullback_oneform
    diff = pullback_oneform(psi, alpha.at) - alpha
    rng = np.random.default_rng(0)
    S = 256
    w = np.ones(S + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= (3.0 * S)
    for _ in range(5):
        z = rng.uniform(0, 1, 2)
        seg = p[:, None] + np.linspace(0, 1, S + 1)[None, :] * (z - p)[:, None]
        vals = diff.at(seg)
        direct = float(np.sum(w * ((z - p)[:, None] * vals).sum(axis=0)))
        assert abs(direct - float(nu.at(z))) < 1e-8 * (1 + sup_norm(alpha))


def test_nu_rejects_nonclosed_form(mesh):
    _, Y = mesh.points
    bad = OneForm(mesh, np.cos(TWO_PI * Y), np.zeros(mesh.shape))
    with pytest.raises(NonClosedFormError):
        nu_function(catalog.shear(mesh, 0.1), bad, (0.0, 0.0))


# -- delta --------------------------------------------------------------------

def test_delta_zero_form(mesh):
    assert delta(catalog.shear(mesh, 0.1), OneForm.constant(mesh, 0.0, 0.0),
                 (0.1, 0.2)) == 0.0


def test_delta_shear_spot(mesh):
    val = delta(catalog.shear(mesh, 0.1), OneForm.constant(mesh, 1.0, 0.0),
                (0.0, 0.25))
    assert abs(val + 0.1) < 1e-12


def test_delta_translation_harmonic(mesh):
    assert abs(delta(catalog.translation(mesh, 0.25, 0.4),
                     OneForm.constant(mesh, 1.0, 2.0), (0.7, 0.1))) < 1e-12


def test_delta_base_point_relation(mesh):
    # the base-point dependence sits entirely in the orbit term
    flow = catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=64)
    psi = flow.end_map
    alpha = closed_form(mesh, (0.7, -0.2), lambda x, y: 0.2 * np.sin(TWO_PI * y))
    z1, z2 = np.array([0.2, 0.6]), np.array([0.8, 0.15])
    lhs = delta_tilde(psi, alpha, z1) - delta_tilde(psi, alpha, z2)
    rhs = -(orbit_integral(flow, z1, alpha) - orbit_integral(flow, z2, alpha))
    assert abs(lhs - rhs) < 1e-6


def test_delta_via_flux_agreement(mesh):
    flows = [catalog.translation_flow(mesh, 0.3, 0.4, 32),
             catalog.shear_flow(mesh, 0.1, K=32),
             catalog.translation_shear_flow(mesh, 0.2, 0.3, 0.1, K=32)]
    forms = [OneForm.constant(mesh, 1.0, 0.0),
             closed_form(mesh, (0.4, 0.8), lambda x, y: 0.2 * np.cos(TWO_PI * x))]
    for flow in flows:
        psi = flow.end_map
        for alpha in forms:
            for p in (np.array([0.1, 0.3]), np.array([0.8, 0.6])):
                d1 = delta(psi, alpha, p)
                d2 = delta_via_flux(psi, alpha, p, flow)
                assert abs(d1 - d2) <= 1e-4 * (1 + abs(d1))


def test_delta_via_flux_of_several_points_equals_one_point_calls():
    mesh = GridMesh(N=32)
    K = 16
    F = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.08})
    flows = [catalog.translation_flow(mesh, 0.3, 0.4, K),
             catalog.shear_flow(mesh, -0.15, axis=0, mode=2, K=K),
             catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K),
             catalog.rotation_flow(mesh, (0.3, 0.6), 0.25, 0.8, K),
             integrate_flow(F.field(0.0), K, mesh),
             catalog.hamiltonian_flow(mesh, "mix_mode2", 0.08, K)]
    forms = [OneForm.constant(mesh, 0.0, 1.0),
             closed_form(mesh, (0.4, 0.8), lambda x, y: 0.2 * np.cos(TWO_PI * x))]
    x = np.random.default_rng(11).uniform(0.0, 1.0, (2, 5))
    for flow in flows:
        for alpha in forms:
            values = delta_via_flux(flow.end_map, alpha, x, flow)
            assert [v.hex() for v in values.tolist()] == [
                delta_via_flux(flow.end_map, alpha, p, flow).hex() for p in x.T]
    zero = OneForm.constant(mesh, 0.0, 0.0)
    assert np.array_equal(delta_via_flux(flows[0].end_map, zero, x, flows[0]),
                          np.zeros(5))


def test_delta_via_flux_endpoint_gate(mesh):
    flow = catalog.translation_flow(mesh, 0.3, 0.4, 32)
    other = catalog.translation(mesh, 0.31, 0.4)
    with pytest.raises(ValueError):
        delta_via_flux(other, OneForm.constant(mesh, 1.0, 0.0),
                       (0.1, 0.1), flow)


def test_delta_translation_cancellation(mesh):
    # pairing and orbit term cancel exactly for translations
    flow = catalog.translation_flow(mesh, 0.3, 0.4, 32)
    alpha = OneForm.constant(mesh, 0.7, -0.5)
    val = delta_via_flux(flow.end_map, alpha, (0.25, 0.85), flow)
    assert abs(val) < 1e-10


# -- the norm -----------------------------------------------------------------

def _assembled_potentials(psi, sampler):
    """The (D, N*N) basis-potential matrix, assembled from the row blocks
    the streamed estimator builds one at a time."""
    means = displacement._potential_means(psi.disp, sampler)
    return np.hstack([_basis_potentials(psi.disp, sampler, rows, means)
                      for rows in displacement._row_blocks(psi.mesh)])


def test_basis_potentials_match_per_form_route():
    # The batched route evaluates each basis potential exactly at psi(x);
    # the per-form route interpolates the pulled-back form there, so rows
    # agree to spline accuracy.
    # Measured gap: 4.2e-7 at most (rows reach 0.18); bound 1e-6.
    mesh = GridMesh(N=32)
    sampler = UnitSphereSampler(mesh, max_mode=2)
    tw = catalog.twist(mesh, 0.08, 0.06)
    newton = compose(catalog.shear(mesh, 0.05), tw).inverse()
    for psi in (tw, newton):
        P = _assembled_potentials(psi, sampler)
        for i in (0, 1, 4, 16, sampler.dimension - 1):
            e = sampler.materialize(np.eye(sampler.dimension)[i])
            ref = hodge_decompose(pullback_oneform(psi, e.at) - e).potential.values
            assert np.abs(P[i].reshape(mesh.shape) - ref).max() < 1e-6


def test_displacement_potential_matches_basis_rows():
    # Both routes compose: the per-form one interpolates the Hodge potential
    # at psi(x), the batched one evaluates Fourier modes there exactly.
    # Measured gap: 7.2e-7 at most (potentials reach 0.21); bound 2e-6.
    mesh = GridMesh(N=32)
    sampler = UnitSphereSampler(mesh, max_mode=2)
    c = np.random.default_rng(1).standard_normal(sampler.dimension)
    c /= np.linalg.norm(c)
    tw = catalog.twist(mesh, 0.08, 0.06)
    newton = compose(catalog.shear(mesh, 0.05), tw).inverse()
    rot = catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.5, K=32).end_map
    for psi in (tw, newton, rot):
        ref = _displacement_potential(psi, sampler.materialize(c)).values
        gap = np.abs(c @ _assembled_potentials(psi, sampler) - ref.ravel()).max()
        assert gap < 2e-6


def _dense_modes(sampler, points):
    """exp(i w.p) at `points` (2, ...) for each wavevector, from power
    ladders of exp(2 pi i p_k / L_k) over the whole point arrays: the dense
    oracle of the estimator and of `materialize`."""
    ladders = []
    for k in range(2):
        base = np.exp(2j * np.pi * points[k] / sampler.mesh.L[k])
        rungs = [np.ones_like(base)]
        for _ in range(sampler.max_mode):
            rungs.append(rungs[-1] * base)
        ladders.append(rungs)
    lad1, lad2 = ladders
    return [lad1[k1] * (lad2[k2] if k2 >= 0 else np.conj(lad2[-k2]))
            for k1, k2 in sampler.wavevectors]


def _dense_table_values(psi, sampler):
    """The table values of the dense route: the whole (D, N*N) matrix P,
    the draws' max |C @ P| and the largest column norm."""
    mesh = psi.mesh
    P = np.empty((sampler.dimension, mesh.N * mesh.N))
    for k in range(2):
        u = psi.disp[k]
        P[k] = ((u - u.mean()) / math.sqrt(mesh.volume)).ravel()
    modes = zip(sampler.wavevectors, _dense_modes(sampler, psi.position),
                _dense_modes(sampler, mesh.points))
    for i, (k, W, Wg) in enumerate(modes):
        d = sampler._amp(k) * (W - Wg)
        P[2 + 2 * i] = d.real.ravel()
        P[3 + 2 * i] = d.imag.ravel()
    P[2:] -= P[2:].mean(axis=1, keepdims=True)
    rng = np.random.default_rng(sampler.seed)
    C = np.array([sampler.draw_coefficients(rng) for _ in range(sampler.count)])
    values = [mesh.volume * v for v in np.abs(C @ P).max(axis=1)] if len(C) else []
    if sampler.refine:
        values.append(mesh.volume * np.sqrt(np.einsum("dx,dx->x", P, P)).max())
    return values


def _norm_test_maps(mesh):
    tw = catalog.twist(mesh, 0.08, 0.06)
    return {"identity": TorusMap.identity(mesh),
            "translation": catalog.translation(mesh, 0.3, 0.1),
            "shear": catalog.shear(mesh, 0.1),
            "twist": tw,
            "bump": catalog.bump_rotation(mesh, (0.4, 0.6), 0.25, 0.6),
            "newton": compose(catalog.shear(mesh, 0.05), tw).inverse()}


@pytest.mark.parametrize("N", [32, 64])
@pytest.mark.parametrize("count, refine", [(64, 1), (0, 1), (64, 0)])
def test_streamed_norm_matches_dense_route(N, count, refine):
    # Streaming changes only the summation order of the row means (Gram
    # sums against np.mean): measured 4.4e-16 relative at most.
    mesh = GridMesh(N=N)
    sampler = UnitSphereSampler(mesh, max_mode=8, count=count, refine=refine,
                                seed=3)
    for name, psi in _norm_test_maps(mesh).items():
        rep = psi_norm(psi, sampler)
        dense = _dense_table_values(psi, sampler)
        got = [r["value"] for r in rep.table]
        assert len(got) == len(dense) == count + refine
        # with refine the last row is the maximum (Cauchy-Schwarz), so the
        # deferred draws never set the estimate
        assert max(got) == rep.norm_lower_bound
        if refine:
            assert rep.table[-1]["sample"] == "subspace-max"
        if name == "identity":
            assert rep.norm_lower_bound == 0.0 and got == [0.0] * len(got)
            continue
        for a, b in zip(got, dense):
            assert abs(a - b) <= 1e-15 * abs(b), (name, a, b)
        assert abs(rep.norm_lower_bound - max(dense)) <= 1e-15 * max(dense)


def test_psi_norm_peak_memory_is_per_block():
    # The production sampler at N = 128 (D = 290): the dense route held
    # P (38 MB) and the (count, N*N) values and peaked 54.9 MB above its
    # start; streamed over blocks of 4 grid rows the estimate peaks at
    # 2.1 MB, and the first read of the table, which streams the draws
    # through the same blocks, at 2.5-3.3 MB.
    mesh = GridMesh(N=128)
    sampler = UnitSphereSampler(mesh, max_mode=8, count=64, seed=3)
    psi = catalog.twist(mesh, 0.08, 0.06)
    mesh.points, mesh.flat_points  # the mesh's cached grids are not the estimator's
    tracemalloc.start()
    try:
        rep = psi_norm(psi, sampler)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep.table
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"psi_norm peaked {peak / 1e6:.1f} MB above its start"
    assert table_peak < 4e6, (
        f"the table read peaked {table_peak / 1e6:.1f} MB above its start")


@pytest.mark.parametrize("refine", [1, 0])
def test_draw_table_is_built_once_and_only_when_read(monkeypatch, refine):
    # With refine the estimate is one pass of basis potentials over the row
    # blocks and the table a second pass on its first read; without it the
    # draws are the estimate and the table comes from the one pass.
    mesh = GridMesh(N=32)
    sampler = UnitSphereSampler(mesh, max_mode=8, count=64, refine=refine,
                                seed=3)
    calls = []
    basis_potentials = displacement._basis_potentials

    def counted(*args, **kwargs):
        calls.append(args[2])
        return basis_potentials(*args, **kwargs)

    monkeypatch.setattr(displacement, "_basis_potentials", counted)
    blocks = displacement._row_blocks(mesh)
    rep = psi_norm(catalog.twist(mesh, 0.08, 0.06), sampler)
    assert calls == blocks
    rep.table
    assert calls == blocks * (2 if refine else 1)
    rep.table
    assert calls == blocks * (2 if refine else 1)


def test_deferred_table_holds_no_reference_to_the_map():
    # The map's norm cache holds the report, so a table that held the map
    # would put each normed map on a reference cycle.
    mesh = GridMesh(N=32)
    sampler = UnitSphereSampler(mesh, max_mode=8, count=64, seed=3)
    psi = catalog.shear(mesh, 0.1)
    dense = _dense_table_values(psi, sampler)
    gc.disable()
    try:
        rep = psi_norm(psi, sampler)
        alive = weakref.ref(psi)
        del psi
        assert alive() is None
    finally:
        gc.enable()
    got = [r["value"] for r in rep.table]
    assert len(got) == len(dense)
    for a, b in zip(got, dense):
        assert abs(a - b) <= 1e-15 * abs(b)


@pytest.mark.parametrize("other", [GridMesh(N=32, L=(2.0, 1.0)),
                                   GridMesh(N=64)],
                         ids=["same-N-other-period", "other-N"])
def test_psi_norm_rejects_a_sampler_on_another_grid(other):
    # On another period the estimator read the map's displacement at the
    # sampler's grid points and returned 0.619 for a 0.1 shear; on another
    # N it failed in a numpy reshape.
    psi = catalog.shear(GridMesh(N=32), 0.1)
    with pytest.raises(ValueError, match="different meshes"):
        psi_norm(psi, UnitSphereSampler(other, max_mode=8, count=64))


def test_materialize_matches_full_grid_modes():
    # The ladders of the grid axes give the same forms, bit for bit, as
    # ladders of the full (N, N) coordinate arrays.
    mesh = GridMesh(N=32)
    sampler = UnitSphereSampler(mesh, max_mode=8)
    rng = np.random.default_rng(4)
    root_vol = math.sqrt(mesh.volume)
    for _ in range(3):
        c = sampler.draw_coefficients(rng)
        ax = np.full(mesh.shape, c[0] / root_vol)
        ay = np.full(mesh.shape, c[1] / root_vol)
        for i, (k, W) in enumerate(zip(sampler.wavevectors,
                                       _dense_modes(sampler, mesh.points))):
            w = sampler._omega(k)
            a = sampler._amp(k)
            val = -c[2 + 2 * i] * a * W.imag + c[3 + 2 * i] * a * W.real
            ax += val * w[0]
            ay += val * w[1]
        form = sampler.materialize(c)
        assert np.array_equal(form.ax, ax) and np.array_equal(form.ay, ay)


def test_coefficient_index_outside_band():
    sampler = UnitSphereSampler(GridMesh(N=32), max_mode=2)
    assert sampler.coefficient_index(2, 2, trig="sin") == sampler.dimension - 1
    for k in [(3, 0), (0, -1), (0, 0)]:
        with pytest.raises(KeyError, match="outside the sampled band"):
            sampler.coefficient_index(*k)


def test_bump_rotation_potentials_need_no_isotopy_gate():
    # A Hamiltonian bump rotation on a coarse grid: the Jacobian route left
    # period residuals of 9.1e-6 (N = 64) and 5.3e-5 (N = 32) on it and
    # rejected the map as not isotopic to the identity.
    fine = GridMesh(N=64)
    rot = catalog.rotation_flow(fine, (0.5, 0.5), 0.3, 0.5, K=32).end_map
    rep = psi_norm(rot, UnitSphereSampler(fine, max_mode=4, count=24, seed=5))
    assert rep.norm_lower_bound > 0.0
    mesh = GridMesh(N=32)
    flow = catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.5, K=32)
    alpha = closed_form(mesh, (0.4, 0.8), lambda x, y: 0.2 * np.cos(TWO_PI * x))
    p = np.array([0.6, 0.5])  # inside the support, where delta is O(1e-2)
    d1 = delta(flow.end_map, alpha, p)
    d2 = delta_via_flux(flow.end_map, alpha, p, flow)
    assert abs(d1 - d2) <= 5e-3 * abs(d2)  # measured 1.3e-3


def test_psi_norm_identity(mesh, sampler):
    assert psi_norm(TorusMap.identity(mesh), sampler).norm_lower_bound == 0.0


def test_psi_norm_shear_witness(mesh, sampler):
    rep = psi_norm(catalog.shear(mesh, 0.1), sampler)
    assert rep.norm_lower_bound >= 0.1 - 1e-6


def test_psi_norm_monotone_in_budget(mesh):
    S = catalog.shear(mesh, 0.1)
    small = psi_norm(S, UnitSphereSampler(mesh, max_mode=4, count=8, seed=9))
    large = psi_norm(S, UnitSphereSampler(mesh, max_mode=4, count=32, seed=9))
    assert large.norm_lower_bound >= small.norm_lower_bound - 1e-15


def test_psi_norm_witness_is_unit_closed(mesh, sampler):
    rep = psi_norm(catalog.twist(mesh, 0.1, 0.08), sampler)
    w = sampler.materialize(rep.witness_coeffs)
    assert abs(l2_norm(w) - 1.0) < 1e-10
    assert w.closedness_residual < 1e-8
    assert max(r["value"] for r in rep.table) == rep.norm_lower_bound


def test_psi_norm_report_table(mesh, sampler, tmp_path):
    rep = psi_norm(catalog.shear(mesh, 0.1), sampler)
    path = rep.write_table(tmp_path / "table.csv")
    assert path == str(tmp_path / "table.csv")
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "sample,value,point_x,point_y"
    assert len(lines) == len(rep.table) + 1


def test_psi_norm_budget_zero(mesh):
    with pytest.raises(ValueError):
        psi_norm(catalog.shear(mesh, 0.1),
                 UnitSphereSampler(mesh, max_mode=4, count=0, refine=0, seed=1))


def test_psi_norm_duality_estimate(mesh, sampler):
    tw = catalog.twist(mesh, 0.1, 0.08)
    a = psi_norm(tw, sampler).norm_lower_bound
    b = psi_norm(tw.inverse(), sampler).norm_lower_bound
    assert abs(a - b) <= 0.05 * max(a, b)


def test_norm_axiom_report_passes(mesh, sampler):
    maps = [TorusMap.identity(mesh), catalog.translation(mesh, 1 / 3, 0.0),
            catalog.shear(mesh, 0.1)]
    rep = norm_axiom_report(maps, sampler)
    assert not rep.violations, rep.violations


def test_norm_axiom_report_norms_the_identity_once(mesh, monkeypatch):
    # the identity is its own inverse, so duality reads its cached norm
    zero_reads = []
    stream = displacement._stream

    def counting(disp, *args, **kwargs):
        zero_reads.append(not np.any(disp))
        return stream(disp, *args, **kwargs)

    monkeypatch.setattr(displacement, "_stream", counting)
    maps = [TorusMap.identity(mesh), catalog.translation(mesh, 1 / 3, 0.0),
            catalog.shear(mesh, 0.1)]
    norm_axiom_report(maps, UnitSphereSampler(mesh, max_mode=4, count=24, seed=5))
    assert sum(zero_reads) == 1


def test_separation_violated_at_threshold(mesh, sampler, monkeypatch):
    # a norm must exceed SEPARATION_NORM: equality is a violation
    S = catalog.shear(mesh, 0.1)
    n = psi_norm(S, sampler).norm_lower_bound
    monkeypatch.setattr(displacement, "SEPARATION_NORM", n)
    rep = norm_axiom_report([S], sampler)
    assert rep.margins["separation"] == 0.0
    assert [(v.axiom, v.excess) for v in rep.violations] == [("separation", 0.0)]


# -- conjugation --------------------------------------------------------------

def test_conjugation_identity_map(mesh, sampler):
    h = catalog.shear(mesh, 0.1)
    ident = TorusMap.identity(mesh)
    ident.provenance["flux_periods"] = (0.0, 0.0)
    rep = conjugation_check(h, ident, (0.3, 0.7),
                            OneForm.constant(mesh, 1.0, 0.0), sampler)
    assert rep.identity_residual < 1e-12


def test_conjugation_hamiltonian(mesh, sampler):
    h = catalog.shear(mesh, 0.1)
    phi = catalog.hamiltonian_time1(mesh, "cos_x_cos_y", 0.08, 32)
    rep = conjugation_check(h, phi, (0.3, 0.7),
                            OneForm.constant(mesh, 1.0, 0.0), sampler)
    assert rep.identity_residual <= 1e-4
    assert rep.sandwich_ok


def test_conjugation_requires_flux_certificate(mesh, sampler):
    h = catalog.shear(mesh, 0.1)
    bare = TorusMap(mesh, catalog.twist(mesh, 0.05, 0.05).disp)
    with pytest.raises(ValueError):
        conjugation_check(h, bare, (0.1, 0.1),
                          OneForm.constant(mesh, 1.0, 0.0), sampler)


def test_conjugation_rejects_nonzero_flux(mesh, sampler):
    phi = TorusMap.identity(mesh)
    phi.provenance["flux_periods"] = (0.1, 0.0)
    with pytest.raises(ValueError, match=r"phi has nonzero flux \(0\.1, 0\.0\); "
                                         "not Hamiltonian-class"):
        conjugation_check(catalog.shear(mesh, 0.1), phi, (0.1, 0.1),
                          OneForm.constant(mesh, 1.0, 0.0), sampler)


# -- displacement of regions ----------------------------------------------------

def test_identity_never_displaces(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    chk = displaces(TorusMap.identity(mesh), U)
    assert not chk and not chk.marginal


def test_translation_displaces_strip(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    assert displaces(catalog.translation(mesh, 0.5, 0.0), U)


def test_shear_does_not_displace_y_strip(mesh):
    U = Region.rectangle((0.0, 0.0), (1.0, 0.25))
    chk = displaces(catalog.shear(mesh, 0.1), U)
    assert not chk


def test_displaces_rejects_a_region_between_grid_points(mesh):
    U = Region.rectangle((0.02, 0.02), (0.03, 0.03))
    with pytest.raises(ValueError, match="region contains no grid points at this resolution"):
        displaces(catalog.translation(mesh, 0.5, 0.0), U)


def test_displacement_energy_upper(mesh, sampler):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    half = catalog.translation(mesh, 0.5, 0.0)
    third = catalog.translation(mesh, 1 / 3, 0.0)
    S = catalog.shear(mesh, 0.1)
    up = displacement_energy_upper(U, [half, third, S], sampler)
    assert math.isfinite(up) and up > 0
    assert up <= min(psi_norm(half, sampler).norm_lower_bound,
                     psi_norm(third, sampler).norm_lower_bound) + 1e-12


def test_displacement_energy_infinite_branch(mesh, sampler):
    U = Region.rectangle((0.0, 0.0), (0.9, 0.9))
    up = displacement_energy_upper(U, [catalog.shear(mesh, 0.1)], sampler)
    assert math.isinf(up)


def test_energy_monotone_in_region(mesh, sampler):
    small = Region.rectangle((0.0, 0.0), (0.2, 1.0))
    large = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    cands = [catalog.translation(mesh, 0.5, 0.0), catalog.translation(mesh, 0.4, 0.0)]
    assert (displacement_energy_upper(small, cands, sampler)
            <= displacement_energy_upper(large, cands, sampler) + 1e-12)


# -- supported commutators ------------------------------------------------------

def test_supported_pair_properties(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    phi, psi = supported_commutator_pair(U, mesh)
    outside = ~U.contains(mesh.points, mesh)
    for m in (phi, psi):
        assert np.abs(m.disp[:, outside]).max() < 1e-12
        assert np.abs(m.det - 1.0).max() <= 1e-8
        assert max(abs(v) for v in m.provenance["flux_periods"]) < 1e-6
        assert m.provenance["supported_in"] == "Region.rectangle((0.0, 0.0), (0.25, 1.0))"
    comm = map_commutator(phi, psi)
    assert c0_distance(comm, TorusMap.identity(mesh)) > 1e-3


@pytest.mark.parametrize("lo, hi", [
    ((0.0, 0.0), (0.25, 1.0)),
    ((0.9, 0.2), (1.15, 0.8)),     # wraps across x = 1
    ((0.3, -0.2), (0.55, 0.25)),   # wraps across y = 0
    ((0.1, 0.0), (0.35, 1.5)),     # longer than the period
    ((0.1, 0.1), (0.6, 0.35)),     # long along x
])
def test_supported_pair_is_exactly_the_identity_outside(mesh, lo, hi):
    # each support lies at least a cell inside the region and a bump
    # rotation moves nothing off its support, so no displacement, not even
    # round-off, leaks out of any region the pair accepts
    U = Region.rectangle(lo, hi)
    outside = ~U.contains(mesh.points, mesh)
    assert outside.any()
    for m in supported_commutator_pair(U, mesh):
        assert not np.any(m.disp[:, outside])


def test_supported_pair_region_too_small(mesh):
    # four columns of cells, but the bumps' margin is under one cell
    with pytest.raises(ValueError, match="support margin 0.0037 is under one grid cell"):
        supported_commutator_pair(Region.rectangle((0.0, 0.0), (0.05, 1.0)), mesh)


def test_supported_pair_region_under_four_cells(mesh):
    # two grid points lie in the region
    with pytest.raises(ValueError, match="region smaller than 4 grid cells at this resolution"):
        supported_commutator_pair(Region.rectangle((0.0, 0.0), (0.03, 0.01)), mesh)


def test_supported_pair_too_close_to_the_identity(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    with pytest.raises(AssertionError, match="too close to the identity .*increase the rotation angle"):
        supported_commutator_pair(U, mesh, angle=1e-6)


def test_collapse_identity_trivial_pair(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    f = catalog.translation(mesh, 0.5, 0.0)
    ident = TorusMap.identity(mesh)
    resid = commutator_collapse_check(f, ident, ident, U)
    assert resid < 1e-12


def test_collapse_identity_strip(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    f = catalog.translation(mesh, 0.5, 0.0)
    phi, psi = supported_commutator_pair(U, mesh)
    assert commutator_collapse_check(f, phi, psi, U) <= 1e-3


def test_collapse_requires_displacement(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    phi, psi = supported_commutator_pair(U, mesh)
    with pytest.raises(ValueError):
        commutator_collapse_check(TorusMap.identity(mesh), phi, psi, U)


def test_collapse_requires_support_in_the_region(mesh):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    f = catalog.translation(mesh, 0.5, 0.0)
    _, psi = supported_commutator_pair(U, mesh)
    with pytest.raises(ValueError, match=r"phi is not supported in the region \(displacement "):
        commutator_collapse_check(f, catalog.shear(mesh, 0.1), psi, U)


def test_energy_chain_requires_displacement(mesh, sampler):
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    with pytest.raises(ValueError, match=r"f does not displace the region \(precondition\)"):
        energy_chain_check(U, TorusMap.identity(mesh), sampler)


def test_energy_chain():
    fine = GridMesh(N=128)
    fine_sampler = UnitSphereSampler(fine, max_mode=4, count=24, seed=5)
    U = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    f = catalog.translation(fine, 0.5, 0.0)
    rep = energy_chain_check(U, f, fine_sampler)
    assert rep.chain_ok
    assert rep.lower_bound > 0
    assert rep.collapse_residual <= 1e-3
    assert rep.lower_bound <= psi_norm(f, fine_sampler).norm_lower_bound


# -- rigidity -------------------------------------------------------------------

def test_rigidity_convergent(mesh, sampler):
    target = catalog.twist(mesh, 0.05, 0.04)
    seq = [compose(target, catalog.perturbation_map(mesh, 0.002 / i))
           for i in range(1, 6)]
    rep = rigidity_limit_check(seq, target, sampler)
    assert not rep.pattern_violated
    assert rep.norm_premises[-1] < rep.norm_premises[0]
    assert rep.distances[-1] < rep.distances[0]


def test_rigidity_constant_sequence(mesh, sampler):
    target = catalog.twist(mesh, 0.05, 0.04)
    rep = rigidity_limit_check([target] * 3, target, sampler)
    assert max(rep.distances) == 0.0
    assert max(rep.norm_premises) == 0.0


def test_rigidity_divergent_floor(mesh, sampler):
    target = catalog.twist(mesh, 0.05, 0.04)
    other = compose(catalog.translation(mesh, 0.3, 0.0), target)
    seq = [compose(other, catalog.perturbation_map(mesh, 0.002 / i))
           for i in range(1, 6)]
    rep = rigidity_limit_check(seq, target, sampler)
    assert not rep.pattern_violated
    assert min(rep.norm_premises) > 0.01
    assert rep.final_distance > 0.05


def test_displacement_potential_cache_sees_no_writes():
    # the cache is keyed by the form object, so a form whose arrays could
    # be written in place would get its old potential back (0.06 off)
    mesh = GridMesh(N=32)
    psi = catalog.twist(mesh, 0.06, 0.05)
    ax, ay = np.ones(mesh.shape), np.zeros(mesh.shape)
    alpha = OneForm(mesh, ax, ay)
    first = _displacement_potential(psi, alpha).values
    with pytest.raises(ValueError, match="read-only"):
        alpha.ax[...] = 2.0
    ax[...] = 2.0
    assert np.array_equal(_displacement_potential(psi, alpha).values, first)
    fresh = _displacement_potential(psi, OneForm(mesh, ax, ay)).values
    assert np.abs(fresh - 2.0 * first).max() < 1e-12
