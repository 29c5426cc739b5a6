"""Acceptance criteria at production resolution (N = 128, K = 64).

Every numbered criterion runs at its stated tolerance and prints one
pass/fail line (visible with `pytest -s` and in failure output).
"""

import math
import time

import numpy as np
import pytest

from fluxlab import catalog
from fluxlab.config import parse_config
from fluxlab.displacement import (UnitSphereSampler, commutator_collapse_check,
                                  conjugation_check, delta, delta_via_flux,
                                  displaces, displacement_energy_upper,
                                  energy_chain_check, psi_norm,
                                  rigidity_limit_check,
                                  supported_commutator_pair)
from fluxlab.forms import (OneForm, ScalarField, TwoForm, exterior_derivative,
                           l2_norm, sup_norm)
from fluxlab.isotopy import (BumpProfile, commutator_generator, concat_reparam,
                             f_functional, fathi_mass_flow,
                             generator_hodge_split, geodesic_functional,
                             integrate_flow, orbit_length_bound,
                             symplectic_flux, volume_flux)
from fluxlab.maps import (Region, TorusMap, c0_distance, compose,
                          interior_product, pullback_bound_constant,
                          pullback_oneform)
from fluxlab.mesh import GridMesh
from fluxlab.suites import (SuiteContext, _mode_form, _reparam_flow,
                            build_perturbation_sequence, emit_report,
                            run_suite)

TWO_PI = 2 * np.pi
N = 128
K = 64
SEED = 2026


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def mesh():
    return GridMesh(N=N)


@pytest.fixture(scope="module")
def sampler(mesh):
    return UnitSphereSampler(mesh, max_mode=8, count=64, seed=SEED)


@pytest.fixture(scope="module")
def strip():
    return Region.rectangle((0.0, 0.0), (0.25, 1.0))


def test_criterion_01_pullback_bound(mesh, sampler):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = -math.inf
    for _ in range(20):
        kind = rng.integers(0, 3)
        if kind == 0:
            phi = catalog.translation(mesh, rng.uniform(-0.4, 0.4),
                                      rng.uniform(-0.4, 0.4))
        elif kind == 1:
            phi = catalog.shear(mesh, rng.uniform(-0.15, 0.15),
                                axis=int(rng.integers(0, 2)),
                                mode=int(rng.integers(1, 3)))
        else:
            phi = catalog.twist(mesh, rng.uniform(-0.1, 0.1),
                                rng.uniform(-0.1, 0.1))
        alpha = sampler.materialize(sampler.draw_coefficients(rng))
        ratio = l2_norm(pullback_oneform(phi, alpha)) / (
            pullback_bound_constant(phi) * l2_norm(alpha))
        worst = max(worst, ratio)
    S = catalog.shear(mesh, 0.1)
    spot = l2_norm(pullback_oneform(S, OneForm.constant(mesh, 1.0, 0.0))) ** 2
    rel = abs(spot / (1.0 + 0.02 * math.pi ** 2) - 1.0)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1.0 + 1e-6 and rel <= 1e-6 and elapsed < 5.0,
           f"20 pairs worst ratio {worst:.9f}, shear spot rel {rel:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_pullback_c0_continuity(mesh, sampler):
    t0 = time.perf_counter()
    psi = catalog.twist(mesh, 0.08, 0.06)
    seq = build_perturbation_sequence(psi, [1.0 / i for i in range(1, 17)],
                                      base_eps=(1e-3, 1e-3))
    alpha = _mode_form(sampler, harmonic=(0.7, -0.4),
                       waves=[(0, 1, "cos", 0.4), (1, 0, "sin", 0.3)])
    base = pullback_oneform(psi, alpha)
    e_l2 = np.array([l2_norm(pullback_oneform(m, alpha) - base) for m in seq])
    e_sup = np.array([sup_norm(pullback_oneform(m, alpha) - base) for m in seq])
    elapsed = time.perf_counter() - t0
    dec_l2 = float(np.diff(e_l2[3:]).max())
    dec_sup = float(np.diff(e_sup[3:]).max())
    report(2, dec_l2 <= 0 and dec_sup <= 0 and e_l2[-1] <= 1e-3
           and e_sup[-1] <= 1e-3 and elapsed < 10.0,
           f"monotone from i=4 (max increments {dec_l2:.1e}, {dec_sup:.1e}), "
           f"final L2 {e_l2[-1]:.2e}, sup {e_sup[-1]:.2e}, {elapsed:.2f}s")


def test_criterion_03_delta_consistency(mesh, sampler):
    flows = [
        catalog.translation_flow(mesh, 0.3, 0.4, K),
        catalog.translation_flow(mesh, -0.2, 0.1, K),
        catalog.shear_flow(mesh, 0.1, axis=0, mode=1, K=K),
        catalog.shear_flow(mesh, -0.15, axis=0, mode=2, K=K),
        catalog.shear_flow(mesh, 0.12, axis=1, mode=1, K=K),
        catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K),
        catalog.translation_shear_flow(mesh, -0.2, 0.15, 0.08, K=K),
        catalog.translation_shear_flow(mesh, 0.1, 0.0, 0.05, K=K),
        catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, K),
        catalog.rotation_flow(mesh, (0.3, 0.6), 0.25, 0.8, K),
    ]
    forms = [
        _mode_form(sampler, harmonic=(1.0, 0.0)),
        _mode_form(sampler, harmonic=(0.0, 1.0)),
        _mode_form(sampler, harmonic=(0.6, -0.3), waves=[(0, 1, "cos", 0.5)]),
        _mode_form(sampler, harmonic=(0.4, 0.0),
                   waves=[(1, 0, "cos", 0.6), (0, 2, "sin", 0.4)]),
        _mode_form(sampler, harmonic=(0.0, 0.5),
                   waves=[(1, 1, "sin", 0.5), (2, 0, "cos", 0.5)]),
    ]
    rng = np.random.default_rng(SEED + 3)
    points = [rng.uniform(0, 1, 2) for _ in range(5)]
    worst = -math.inf
    for flow in flows:
        endpoint = flow.end_map
        for alpha in forms:
            for p in points:
                d1 = delta(endpoint, alpha, p)
                d2 = delta_via_flux(endpoint, alpha, p, flow)
                worst = max(worst, abs(d1 - d2) / (1.0 + abs(d1)))
    spot = delta(catalog.shear(mesh, 0.1), OneForm.constant(mesh, 1.0, 0.0),
                 (0.0, 0.25))
    flowA = catalog.translation_flow(mesh, 0.3, 0.4, K)
    flowB = _reparam_flow(lambda KK: catalog.translation_flow(mesh, 0.3, 0.4, KK),
                          mesh, K)
    dA = delta_via_flux(flowA.end_map, forms[2], points[0], flowA)
    dB = delta_via_flux(flowA.end_map, forms[2], points[0], flowB)
    report(3, worst <= 1e-4 and abs(spot + 0.1) <= 1e-4 and abs(dA - dB) <= 1e-6,
           f"250-case worst rel gap {worst:.2e}, shear spot {spot:.6f}, "
           f"path independence {abs(dA - dB):.2e}")


def test_criterion_04_conjugation_identity(mesh, sampler):
    rng = np.random.default_rng(SEED + 4)
    hs = [catalog.shear(mesh, 0.1), catalog.twist(mesh, 0.08, 0.05)]
    phis = [catalog.hamiltonian_time1(mesh, "cos_x_cos_y", 0.08, K),
            catalog.hamiltonian_time1(mesh, "sin_x_plus_sin_y", 0.06, K),
            catalog.hamiltonian_time1(mesh, "mix_mode2", 0.05, K)]
    forms = [_mode_form(sampler, harmonic=(1.0, 0.0)),
             _mode_form(sampler, harmonic=(0.5, 0.5),
                        waves=[(0, 1, "cos", 0.4), (1, 0, "sin", 0.3)])]
    worst = -math.inf
    for count in range(10):
        rep = conjugation_check(hs[count % 2], phis[count % 3],
                                rng.uniform(0, 1, 2), forms[count % 2], sampler)
        worst = max(worst, rep.identity_residual / (1.0 + abs(rep.lhs)))
    report(4, worst <= 1e-4, f"10 tuples, worst residual {worst:.2e}")


def test_criterion_05_norm_axioms(mesh, sampler):
    ident = TorusMap.identity(mesh)
    T = catalog.translation(mesh, 1.0 / 3.0, 0.0)
    S = catalog.shear(mesh, 0.1)
    maps = [ident, T, S]
    norms = [psi_norm(m, sampler).norm_lower_bound for m in maps]
    positive = min(norms) >= 0.0
    tri_ok = True
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i == j:
                continue
            n_ab = psi_norm(compose(a, b), sampler).norm_lower_bound
            tri_ok &= n_ab <= norms[i] + norms[j] + 0.05 * (norms[i] + norms[j])
    dual_ok = True
    for i, a in enumerate(maps):
        n_inv = psi_norm(a.inverse(), sampler).norm_lower_bound
        dual_ok &= abs(n_inv - norms[i]) <= 0.05 * max(norms[i], n_inv, 1e-30)
    sep = norms[2] >= 0.1 - 1e-6
    report(5, positive and tri_ok and dual_ok and sep,
           f"norms {['%.4f' % n for n in norms]}, positivity={positive}, "
           f"triangle={tri_ok}, duality={dual_ok}, separation={sep}")


def test_criterion_06_collapse_identity(mesh, strip):
    f = catalog.translation(mesh, 0.5, 0.0)
    phi, psi = supported_commutator_pair(strip, mesh)
    resid = commutator_collapse_check(f, phi, psi, strip)
    report(6, resid <= 1e-3, f"strip collapse residual {resid:.2e}")


def test_criterion_07_energy_positivity(mesh, sampler, strip):
    f = catalog.translation(mesh, 0.5, 0.0)
    chain = energy_chain_check(strip, f, sampler)
    candidates = [f, catalog.translation(mesh, 1.0 / 3.0, 0.0),
                  catalog.shear(mesh, 0.1)]
    norms = [psi_norm(c, sampler).norm_lower_bound
             for c in candidates if displaces(c, strip)]
    upper = displacement_energy_upper(strip, candidates, sampler)
    big = Region.rectangle((0.0, 0.0), (0.9, 0.9))
    upper_inf = displacement_energy_upper(big, candidates, sampler)
    ok = (chain.lower_bound > 0 and chain.chain_ok
          and all(chain.lower_bound <= n for n in norms)
          and math.isinf(upper_inf))
    report(7, ok, f"lower bound {chain.lower_bound:.5f} > 0, "
           f"<= displacing norms {['%.4f' % n for n in norms]}, "
           f"upper {upper:.4f}, no-displacer branch -> {upper_inf}")


def test_criterion_08_flux_closed_forms(mesh):
    worst_t = -math.inf
    for (c, d) in ((0.3, 0.4), (-0.2, 0.1)):
        p = symplectic_flux(catalog.translation_flow(mesh, c, d, K))
        worst_t = max(worst_t, abs(p[0] + d), abs(p[1] - c))
    ham = max(symplectic_flux(catalog.shear_flow(mesh, 0.1, K=K)).max_abs(),
              symplectic_flux(catalog.hamiltonian_flow(
                  mesh, "cos_x_cos_y", 0.08, K)).max_abs())
    A = catalog.translation_flow(mesh, 0.25, -0.15, K)
    B = catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=K)
    pj = symplectic_flux(concat_reparam(A, B, BumpProfile(), oversample=2))
    pa, pb = symplectic_flux(A), symplectic_flux(B)
    add = max(abs(pj[0] - pa[0] - pb[0]), abs(pj[1] - pa[1] - pb[1]))
    report(8, worst_t <= 1e-10 and ham <= 1e-8 and add <= 1e-8,
           f"translation {worst_t:.1e}, hamiltonian {ham:.1e}, "
           f"additivity {add:.1e}")


def test_criterion_09_mass_flow_duality(mesh):
    m = fathi_mass_flow(catalog.translation_flow(mesh, 0.3, 0.4, K))
    trans = max(abs(m[0] - 0.3), abs(m[1] - 0.4))
    worst = -math.inf
    for flow in (catalog.translation_flow(mesh, 0.3, 0.4, K),
                 catalog.shear_flow(mesh, 0.1, K=K),
                 catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K),
                 catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, K)):
        mm = fathi_mass_flow(flow)
        pp = volume_flux(flow)
        worst = max(worst, abs(mm[0] - pp[1]), abs(mm[1] + pp[0]))
    report(9, trans <= 1e-8 and worst <= 1e-8,
           f"translation winding {trans:.1e}, duality gap {worst:.1e}")


def test_criterion_10_generator_split_and_commutator(mesh):
    phi_path = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.06, K)
    psi_path = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=K)
    om = TwoForm.standard(mesh)
    worst_rec, worst_mean = -math.inf, -math.inf
    for path in (phi_path, psi_path):
        split = generator_hodge_split(path)
        vel = path.generator_samples()
        for j in (0, K // 2, K):
            beta = interior_product(vel[j], om)
            rec = beta - exterior_derivative(split.potentials[j]) - split.harmonics[j]
            worst_rec = max(worst_rec, sup_norm(rec))
            worst_mean = max(worst_mean, abs(split.potentials[j].mean()))
    theta, pi = commutator_generator(phi_path, psi_path, tol=1e-3)
    cert = theta.provenance["certified_residual"]
    flux = symplectic_flux(theta).max_abs()
    tol_rec = 1e-8 * (1.0 + max(abs(vel).max() for vel in
                                (phi_path.generator_samples(),
                                 psi_path.generator_samples())))
    report(10, worst_rec <= tol_rec and worst_mean <= 1e-12
           and cert <= 1e-3 and flux <= 1e-6,
           f"reconstruction {worst_rec:.1e}, mean {worst_mean:.1e}, "
           f"certified residual {cert:.2e}, "
           f"commutator flux {flux:.1e}")


def test_criterion_11_path_vs_chord(mesh, sampler):
    alpha = _mode_form(sampler, harmonic=(0.7, 0.4), waves=[(0, 1, "cos", 0.5)])
    worst = -math.inf
    for flow in (catalog.shear_flow(mesh, 0.1, K=K),
                 catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K)):
        worst = max(worst, sup_norm(f_functional(flow, alpha, 1.0)
                                    - geodesic_functional(flow, alpha)))
    X0 = catalog.hamiltonian_field(mesh, "cos_x_cos_y", 0.08)
    W = catalog.hamiltonian_field(mesh, "sin_x_plus_sin_y", 1.0)
    H_path = integrate_flow(X0, K, mesh)
    target = geodesic_functional(H_path, alpha)
    gaps = [sup_norm(f_functional(integrate_flow(X0 + (0.1 / 2 ** i) * W, K, mesh),
                                  alpha, 1.0) - target)
            for i in range(1, 7)]
    kappa = orbit_length_bound(H_path)
    kap_ok = all(
        sup_norm(geodesic_functional(H_path, OneForm.constant(mesh, bx, by)))
        <= kappa * sup_norm(OneForm.constant(mesh, bx, by)) + 1e-12
        for (bx, by) in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.7)))
    dec = float(np.diff(gaps).max())
    report(11, worst <= 1e-6 and dec <= 0 and gaps[-1] <= 1e-2 and kap_ok,
           f"smooth agreement {worst:.1e}, sequence decreasing "
           f"(max inc {dec:.1e}) to {gaps[-1]:.2e}, kappa bound {kap_ok}")


def test_criterion_12_volume_defect(mesh):
    vp_maps = [catalog.translation(mesh, 0.3, 0.2), catalog.shear(mesh, 0.1),
               catalog.twist(mesh, 0.08, 0.06),
               catalog.bump_rotation(mesh, (0.5, 0.5), 0.2, 0.5),
               catalog.hamiltonian_time1(mesh, "cos_x_cos_y", 0.08, K)]
    X, Y = mesh.points
    from fluxlab.maps import volume_defect
    fields = [np.stack([np.full(mesh.shape, 0.3), np.full(mesh.shape, -0.2)]),
              catalog.hamiltonian_field(mesh, "cos_x_cos_y", 0.5),
              np.stack([0.4 * np.sin(TWO_PI * Y), 0.3 * np.cos(TWO_PI * X)])]
    worst_vp = max(volume_defect(m, f) for m in vp_maps for f in fields)
    nvp = catalog.non_volume_preserving(mesh, eps=0.1)
    best = 0.0
    for cx in (0.25, 0.5, 0.75):
        for cy in (0.2, 0.45, 0.7):
            v = mesh.wrap_delta(mesh.points - np.array([cx, cy]).reshape(2, 1, 1))
            chi, _ = catalog._bump_chi((v[0] ** 2 + v[1] ** 2) / 0.15 ** 2)
            Yf = np.stack([mesh.derivative(chi, 1), -mesh.derivative(chi, 0)])
            best = max(best, volume_defect(nvp, Yf))
    report(12, worst_vp <= 1e-6 and best > 1e-2,
           f"volume-preserving catalog defect {worst_vp:.1e}, "
           f"witnessed defect {best:.4f}")


def test_criterion_13_rigidity_pattern(mesh, sampler, strip):
    target = catalog.twist(mesh, 0.05, 0.04)
    amps = [0.002 / i for i in range(1, 9)]
    rep = rigidity_limit_check(build_perturbation_sequence(target, amps),
                               target, sampler)
    joint = (rep.norm_premises[-1] <= 1e-2 and rep.final_distance <= 1e-3
             and not rep.pattern_violated)
    other = compose(catalog.translation(mesh, 0.3, 0.0), target)
    rep2 = rigidity_limit_check(build_perturbation_sequence(other, amps),
                                target, sampler)
    floor = energy_chain_check(strip, catalog.translation(mesh, 0.3, 0.0),
                               sampler).lower_bound
    divergent = min(rep2.norm_premises) >= floor and not rep2.pattern_violated
    report(13, joint and divergent,
           f"convergent: premise {rep.norm_premises[-1]:.2e}, "
           f"distance {rep.final_distance:.2e}; divergent floor {floor:.4f} "
           f"<= premises >= {min(rep2.norm_premises):.4f}")


def test_criterion_14_determinism_and_runtime(tmp_path):
    cfg = parse_config({"suite": "all", "seed": SEED})
    t0 = time.perf_counter()
    rep1 = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    p1 = emit_report(rep1, tmp_path / "run1")[0]
    rep2 = run_suite(parse_config({"suite": "all", "seed": SEED}))
    p2 = emit_report(rep2, tmp_path / "run2")[0]
    identical = open(p1, "rb").read() == open(p2, "rb").read()
    report(14, identical and elapsed < 120.0 and rep1.overall_pass,
           f"byte-identical CSV {identical}, full default suite "
           f"{elapsed:.1f}s (< 120 s), all rows pass {rep1.overall_pass}")
