"""The benchmark's workloads: seeded inputs, the work, and its verification.

Each workload is a sequence of *units*.  Unit `i` of a run with seed `s`
draws its inputs from `numpy.random.default_rng([s, i, tag])`, so the same
seed and index always give the same inputs, and distinct indices give
distinct inputs.  A unit returns the checks it made (each a name, a pass
flag and the measured value) and the exact outputs that enter the
determinism digest.

fluxlab only ever receives generated inputs: maps, flows, forms, field
arrays and configs.  The oracles the units check against are the
package's own independent routes (analytic witness floors, the flux
route to Delta, the chord functional, the finite-difference certificate
of the commutator generator).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

#: Suites run by the `battery` workload.  The full battery takes about
#: 95 s on a 2-core machine, longer than one benchmark run may take, and
#: one battery per run cannot give a steady median.  flux-duality,
#: hofer-cauchy and volume-defect each integrate the same cos_x_cos_y flow
#: at amplitude 0.08 and K = 64, so work shared between suites still
#: shows; norm-axioms takes norms of maps it has normed before, so the
#: norm cache both hits and misses.  The heavy suites' layers (delta
#: against delta_via_flux, the path functionals, the commutator generator,
#: norms of composites and their Newton inverses) are measured by
#: `flow-paths` and `norm-sweep`.
BATTERY_SUITES = ("flux-duality", "hofer-cauchy", "norm-axioms", "volume-defect")

#: Verification tolerances, as the suites state them.
NORM_SHEAR_FLOOR_TOL = 1e-6
NORM_AXIOM_SLACK = 0.05
FLUX_TOL = 1e-8
HOFER_TOL = 1e-8
F_VS_GEODESIC_TOL = 1e-6
DELTA_REL_TOL = 1e-4
COMMUTATOR_CERT_TOL = 1e-3

POTENTIAL_NAMES = ("cos_x_cos_y", "sin_x_plus_sin_y", "mix_mode2")

#: The drawn commutator pair comes from the generator-g1 suite's regime,
#: where the seed code passes the 1e-3 gate.
COMMUTATOR_POTENTIALS = ("cos_x_cos_y", "sin_x_plus_sin_y")
#: A commutator pair the seed code fails: mix_mode2 at amplitude 0.063
#: against the translation-shear flow (c, d, eps) = (-0.25, 0.06, 0.06)
#: gives a certified residual of 2.8e-3 > 1e-3.  The gate is limited by the
#: second-order finite-difference oracle, not by the assembly (ROADMAP
#: item 5).  Traced flow-paths runs make it next to the drawn pair as an
#: expected failure: it is reported, and a pass is reported too, but it is
#: not counted as a failed check.
KNOWN_FAILING_COMMUTATOR = ("mix_mode2", 0.063, -0.25, 0.06, 0.06)


def unit_rng(seed: int, index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, tag])


class Context:
    """What set-up builds once per process: config, mesh and sampler."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        from fluxlab.config import load_config
        from fluxlab.displacement import UnitSphereSampler

        config = load_config(root / "configs" / "default.json")
        config.seed = seed
        config.sampler.seed = seed
        self.config = config
        self.seed = seed
        self.mesh = config.mesh.build()
        self.K = config.K
        s = config.sampler
        self.sampler = UnitSphereSampler(self.mesh, max_mode=s.m, count=s.count,
                                         refine=s.refine, seed=s.seed)
        self.out_dir = out_dir
        #: called between the parts of a long unit; the worker sets it to
        #: take a host-speed probe there (see worker.host_probe)
        self.checkpoint = lambda: None


class UnitResult:
    def __init__(self):
        self.checks: list[tuple[str, bool, float]] = []
        self.outputs: list[str] = []

    def check(self, name: str, ok: bool, value: float):
        self.checks.append((name, bool(ok), float(value)))

    def output(self, *values):
        self.outputs.extend(repr(float(v)) for v in values)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def _guarded(res: UnitResult, name: str, fn):
    """Run one verified operation; an exception is a failed check."""
    try:
        fn()
    except Exception as exc:  # a row that raises counts as a miss
        res.check(f"{name}:{type(exc).__name__}: {exc}", False, math.nan)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def battery_unit(ctx: Context, index: int) -> UnitResult:
    """run_suite + emit_report on configs/default.json over BATTERY_SUITES.

    Every unit of a run uses the run seed, as `fluxlab run --seed` does;
    the CSV bytes are the digest, so two processes running one seed must
    write byte-identical reports.
    """
    import copy

    from fluxlab.suites import emit_report, run_suite

    res = UnitResult()
    out = ctx.out_dir / f"battery-{index}"
    csv = []

    def suite(name):
        config = copy.deepcopy(ctx.config)
        config.suite = name
        report = run_suite(config)
        paths = emit_report(report, out)
        csv.append(Path(paths[0]).read_bytes())
        for row in report.rows:
            res.check(f"{name}/{row.check_id}", row.passed, row.value)

    for i, name in enumerate(BATTERY_SUITES):
        if i:
            ctx.checkpoint()
        _guarded(res, name, lambda: suite(name))
    res.outputs.append(hashlib.sha256(b"".join(csv)).hexdigest())
    return res


# ---------------------------------------------------------------------------
# norm-sweep
# ---------------------------------------------------------------------------

def _random_shear(mesh, rng):
    from fluxlab import catalog
    eps = float(rng.uniform(0.02, 0.15))
    return catalog.shear(mesh, eps, axis=int(rng.integers(0, 2)),
                         mode=int(rng.integers(1, 4)),
                         phase=float(rng.uniform(0.0, 2 * math.pi))), eps


def _random_twist(mesh, rng):
    from fluxlab import catalog
    return catalog.twist(mesh, float(rng.uniform(-0.1, 0.1)),
                         float(rng.uniform(-0.1, 0.1)),
                         m1=int(rng.integers(1, 3)), m2=int(rng.integers(1, 3)),
                         first_axis=int(rng.integers(0, 2)))


def _random_bump(mesh, rng):
    from fluxlab import catalog
    return catalog.bump_rotation(mesh, tuple(rng.uniform(0.0, 1.0, 2)),
                                 float(rng.uniform(0.2, 0.3)),
                                 float(rng.uniform(0.4, 0.8)))


def norm_sweep_unit(ctx: Context, index: int) -> UnitResult:
    """Norms of four distinct seeded maps at the production sampler:

    a shear, a twist or bump rotation (closed-form Jacobians), a composite
    of two closed-form maps (spectral Jacobian), and the composite's Newton
    inverse.  No flow is integrated and no map repeats, so the per-map norm
    cache never hits.
    """
    from fluxlab.displacement import psi_norm
    from fluxlab.maps import compose

    mesh, sampler = ctx.mesh, ctx.sampler
    rng = unit_rng(ctx.seed, index, 1)
    res = UnitResult()

    def norm(name, psi):
        n = psi_norm(psi, sampler).norm_lower_bound
        res.check(f"{name}-finite-nonnegative", math.isfinite(n) and n >= 0.0, n)
        res.output(n)
        return n

    def shear():
        S, eps = _random_shear(mesh, rng)
        n = norm("shear", S)
        res.check("shear-witness-floor", n >= eps - NORM_SHEAR_FLOOR_TOL, eps - n)

    def closed_form():
        psi = _random_twist(mesh, rng) if index % 2 == 0 else _random_bump(mesh, rng)
        norm("twist" if index % 2 == 0 else "bump", psi)

    def composite():
        a, _ = _random_shear(mesh, rng)
        b = _random_twist(mesh, rng)
        comp = compose(a, b, chain_jac=False)
        n = norm("composite", comp)
        n_inv = norm("newton-inverse", comp.inverse())
        gap = abs(n_inv - n)
        res.check("inverse-duality",
                  gap <= NORM_AXIOM_SLACK * max(n, n_inv, 1e-30), gap)

    for name, fn in (("shear", shear), ("closed-form", closed_form),
                     ("composite", composite)):
        _guarded(res, name, fn)
    return res


# ---------------------------------------------------------------------------
# flow-paths
# ---------------------------------------------------------------------------

def _band_limited_potential(mesh, rng, max_mode: int = 2):
    """A random real trigonometric potential H with |k|_inf <= max_mode and
    its Hamiltonian field X_H = (dH/dy, -dH/dx), both sampled on the grid
    in closed form and scaled so that sup |X_H| lies in [0.05, 0.15], the
    range of the named potentials at the amplitudes `flow_unit` draws."""
    X, Y = mesh.points
    H = np.zeros(mesh.shape)
    Hx = np.zeros(mesh.shape)
    Hy = np.zeros(mesh.shape)
    for k1 in range(0, max_mode + 1):
        for k2 in range(-max_mode, max_mode + 1):
            if k1 == 0 and k2 <= 0:
                continue
            w0 = 2 * math.pi * k1 / mesh.L[0]
            w1 = 2 * math.pi * k2 / mesh.L[1]
            a, b = rng.standard_normal(2) / (k1 * k1 + k2 * k2)
            ph = w0 * X + w1 * Y
            c, s = np.cos(ph), np.sin(ph)
            H += a * c + b * s
            Hx += (-a * s + b * c) * w0
            Hy += (-a * s + b * c) * w1
    scale = float(rng.uniform(0.05, 0.15)) / float(np.sqrt(Hx ** 2 + Hy ** 2).max())
    return H * scale, np.stack([Hy * scale, -Hx * scale])


def _low_mode_form(ctx: Context, rng):
    """A seeded unit closed form: harmonic part plus two exact directions
    with |k|_inf <= 2."""
    sampler = ctx.sampler
    c = np.zeros(sampler.dimension)
    c[:2] = rng.uniform(-1.0, 1.0, 2)
    waves = [k for k in sampler.wavevectors if max(abs(k[0]), abs(k[1])) <= 2]
    for j in rng.choice(len(waves), size=2, replace=False):
        c[sampler.coefficient_index(*waves[j], trig=("cos", "sin")[int(rng.integers(0, 2))])] = \
            rng.uniform(-0.6, 0.6)
    return sampler.materialize(c / np.linalg.norm(c))


def flow_unit(ctx: Context, index: int) -> UnitResult:
    """One seeded Hamiltonian flow at K = 64 and its four checks.

    Even units integrate a named catalog potential; odd units integrate a
    random band-limited potential passed to fluxlab as a raw field array.
    """
    from fluxlab import catalog
    from fluxlab.displacement import delta, delta_via_flux
    from fluxlab.forms import ScalarField, oscillation, sup_norm
    from fluxlab.isotopy import (f_functional, geodesic_functional,
                                 hofer_like_length, integrate_flow,
                                 symplectic_flux)

    mesh, K = ctx.mesh, ctx.K
    rng = unit_rng(ctx.seed, index, 2)
    res = UnitResult()
    state = {}

    def build():
        if index % 2 == 0:
            name = POTENTIAL_NAMES[int(rng.integers(0, len(POTENTIAL_NAMES)))]
            amp = float(rng.uniform(0.04, 0.09))
            state["flow"] = catalog.hamiltonian_flow(mesh, name, amp, K)
            state["H"] = catalog.hamiltonian_potential(mesh, name, amp)
        else:
            H, XH = _band_limited_potential(mesh, rng)
            state["flow"] = integrate_flow(XH, K, mesh)
            state["H"] = ScalarField(mesh, H)
        state["alpha"] = _low_mode_form(ctx, rng)
        state["points"] = rng.uniform(0.0, 1.0, (2, 2))

    def flux():
        p = symplectic_flux(state["flow"]).max_abs()
        res.check("flux", p <= FLUX_TOL, p)
        res.output(p)

    def hofer():
        length = hofer_like_length(state["flow"])
        gap = abs(length - oscillation(state["H"]))
        res.check("hofer-vs-oscillation", gap <= HOFER_TOL, gap)
        res.output(length)

    def functionals():
        flow, alpha = state["flow"], state["alpha"]
        F = f_functional(flow, alpha, 1.0)
        G = geodesic_functional(flow, alpha)
        gap = sup_norm(F - G)
        res.check("f-vs-geodesic", gap <= F_VS_GEODESIC_TOL, gap)
        res.output(gap, float(F.values.sum()))

    def deltas():
        flow, alpha = state["flow"], state["alpha"]
        psi = flow.end_map
        for p in state["points"].T:
            d1 = delta(psi, alpha, p)
            d2 = delta_via_flux(psi, alpha, p, flow)
            rel = abs(d1 - d2) / (1.0 + abs(d1))
            res.check("delta-vs-flux", rel <= DELTA_REL_TOL, rel)
            res.output(d1, d2)

    _guarded(res, "build", build)
    if "alpha" in state:
        for name, fn in (("flux", flux), ("hofer", hofer),
                         ("functionals", functionals), ("delta", deltas)):
            _guarded(res, name, fn)
    return res


def commutator_unit(ctx: Context, pair=None) -> UnitResult:
    """One certified commutator generating function: a named Hamiltonian
    flow against a translation-shear flow, given as (name, amplitude, c, d,
    eps) or drawn from the run seed."""
    from fluxlab import catalog
    from fluxlab.isotopy import commutator_generator

    mesh, K = ctx.mesh, ctx.K
    if pair is None:
        rng = unit_rng(ctx.seed, 0, 3)
        pair = (COMMUTATOR_POTENTIALS[int(rng.integers(0, len(COMMUTATOR_POTENTIALS)))],
                float(rng.uniform(0.04, 0.07)), float(rng.uniform(-0.25, 0.25)),
                float(rng.uniform(-0.25, 0.25)), float(rng.uniform(0.03, 0.06)))
    name, amp, c, d, eps = pair
    res = UnitResult()

    def run():
        phi = catalog.hamiltonian_flow(mesh, name, amp, K)
        psi = catalog.translation_shear_flow(mesh, c, d, eps, K=K)
        # the gate is checked here, so that a miss still reports its residual
        theta, pi = commutator_generator(phi, psi, tol=math.inf)
        r = theta.provenance["certified_residual"]
        res.check("commutator-certified", r <= COMMUTATOR_CERT_TOL, r)
        res.output(r, float(pi[-1].values.sum()))

    _guarded(res, "commutator", run)
    return res


WORKLOADS = {
    "battery": battery_unit,
    "norm-sweep": norm_sweep_unit,
    "flow-paths": flow_unit,
}
