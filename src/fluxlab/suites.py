"""Named verification suites over the displacement-geometry laboratory.

Each suite runs a batch of checks and reports rows
(check_id, paper_anchor, value, tolerance, pass): a row passes iff
value <= tolerance, so the pass column can always be recomputed from the
other two.  Checks that assert a quantity stays above a floor report the
shortfall (floor - measured) against tolerance 0.  Every check runs in
isolation: a failing or erroring row never prevents later rows from
executing.

Every random draw goes through a generator seeded from the experiment
seed, so report bytes are reproducible run to run.
"""

from __future__ import annotations

import json
import math
import platform
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import catalog
from .config import ExperimentConfig
from .displacement import (UnitSphereSampler, commutator_collapse_check, delta,
                           delta_via_flux,
                           displacement_energy_upper, energy_chain_check,
                           conjugation_check, norm_axiom_report, psi_norm,
                           rigidity_limit_check, supported_commutator_pair)
from .forms import OneForm, exterior_derivative, l2_norm, oscillation, sup_norm
from .isotopy import (Isotopy, TimeField, concat_reparam, f_functional,
                      fathi_mass_flow, generator_hodge_split, generator_length,
                      geodesic_functional, hofer_like_length, integrate_flow,
                      orbit_length_bound, symplectic_flux, volume_flux)
from .maps import (Region, TorusMap, c0_distance, compose, interior_product,
                   pullback_bound_constant, pullback_oneform, volume_defect)

#: Wall-time budgets (s) of the pullback-bound and lemma14 suites; their
#: runtime rows report the overshoot.
PULLBACK_BUDGET_S = 5.0
LEMMA14_BUDGET_S = 10.0
#: Perturbation amplitudes a_i = 1/i of lemma14's map sequence.
LEMMA14_AMPLITUDES = [1.0 / i for i in range(1, 17)]


@dataclass
class CheckRow:
    check_id: str
    paper_anchor: str
    value: float
    tolerance: float
    passed: bool = field(init=False)
    note: str = ""

    def __post_init__(self):
        v = self.value
        self.passed = bool(np.isfinite(v) and v <= self.tolerance)


class Rows:
    """Collector that isolates each check: errors become failing rows."""

    def __init__(self, default_anchor: str):
        self.items: list[CheckRow] = []
        self.anchor = default_anchor
        self.raised: dict[str, str] = {}  # check_id -> note of a row that raised

    def add(self, check_id: str, tol: float, fn, anchor: str | None = None,
            note: str = "", needs: tuple[str, ...] = ()):
        """Run `fn` as row `check_id`.  An exception becomes a failing row
        whose note names it and the innermost fluxlab frame it came from.
        A row that `needs` earlier rows (those that set the state it reads)
        is not run when one of them raised; its note names that row and its
        error instead."""
        cause = next((c for c in needs if c in self.raised), None)
        if cause is not None:
            out, note = math.nan, f"needs {cause}, which raised {self.raised[cause]}"
        else:
            try:
                out = fn()
                if isinstance(out, tuple):
                    out, note = out
                out = float(out)
            except Exception as exc:
                out = math.nan
                note = f"{type(exc).__name__}: {exc}; at {_fluxlab_frame(exc)}"
                self.raised[check_id] = note
        self.items.append(CheckRow(check_id, anchor or self.anchor, out, tol,
                                   note=note))


def _fluxlab_frame(exc: BaseException) -> str:
    """`fluxlab/<module>.py:<line>` of the innermost frame of the traceback
    that runs package code (`Rows.add` itself at the latest)."""
    here = Path(__file__).parent
    frames = [(Path(f.f_code.co_filename), line)
              for f, line in traceback.walk_tb(exc.__traceback__)]
    path, line = next((p, n) for p, n in reversed(frames) if p.parent == here)
    return f"fluxlab/{path.name}:{line}"


@dataclass
class SuiteReport:
    suite: str
    seed: int
    rows: list[CheckRow]
    config: dict
    environment: dict
    timestamp: float
    suite_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "rows": [{"check_id": r.check_id, "paper_anchor": r.paper_anchor,
                      "value": r.value, "tolerance": r.tolerance,
                      "pass": r.passed, "note": r.note} for r in self.rows],
            "config": self.config,
            "environment": self.environment,
            "timestamp": self.timestamp,
            "suite_seconds": self.suite_seconds,
        }


def _environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine()}


class SuiteContext:
    """Shared state for one suite run: mesh, sampler, seeded RNG, caches."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.mesh = config.mesh.build()
        self.K = config.K
        self.sampler = UnitSphereSampler(
            self.mesh, max_mode=config.sampler.m, count=config.sampler.count,
            refine=config.sampler.refine, seed=config.sampler.seed)

    def norm(self, psi: TorusMap) -> float:
        return psi_norm(psi, self.sampler).norm_lower_bound


# ---------------------------------------------------------------------------
# operations owned by the experiment layer
# ---------------------------------------------------------------------------

def build_perturbation_sequence(
        psi: TorusMap, amplitudes: list[float],
        base_eps: tuple[float, float] = (1.0, 1.0)) -> list[TorusMap]:
    """phi_i = psi o pert(a_i) with pert the standard Hamiltonian-composite
    twist scaled by each amplitude; volume preserving whenever psi is, and
    d0(phi_i, psi) proportional to a_i.

    Composites differentiate their displacement spectrally, so an
    amplitude too large for the grid fails the diffeomorphism check
    instead of silently producing an unresolvable map.
    """
    out = []
    for a in amplitudes:
        out.append(compose(psi, catalog.perturbation_map(psi.mesh, a, base_eps=base_eps)))
    return out


def _fixed_coeffs(sampler: UnitSphereSampler, entries) -> np.ndarray:
    c = np.zeros(sampler.dimension)
    for idx, val in entries:
        c[idx] = val
    n = np.linalg.norm(c)
    return c / n if n else c


def _mode_form(sampler: UnitSphereSampler, harmonic=(0.0, 0.0), waves=()) -> OneForm:
    """Unit closed form from harmonic weights and (k1, k2, trig, weight)
    exact directions."""
    entries = [(0, harmonic[0]), (1, harmonic[1])]
    entries += [(sampler.coefficient_index(k1, k2, trig), w)
                for (k1, k2, trig, w) in waves]
    return sampler.materialize(_fixed_coeffs(sampler, entries))


def _random_closed_form(ctx: SuiteContext, rng: np.random.Generator,
                        scale: float = 1.0) -> OneForm:
    c = ctx.sampler.draw_coefficients(rng) * scale
    return ctx.sampler.materialize(c)


def _reparam_flow(base: Isotopy) -> Isotopy:
    """Sinusoidally reparametrized copy of a catalog flow `base`, on its
    mesh and with its K: same endpoint, time substitution
    tau(t) = t - sin(2 pi t) / (2 pi).  Its maps at t = 0, 1/2 and 1 are
    the base flow's own samples, and its generator tau'(t) X_{tau(t)} is
    read through the point values of the base flow's."""

    def tau(t):
        return t - math.sin(2 * math.pi * t) / (2 * math.pi)

    def dtau(t):
        return 1.0 - math.cos(2 * math.pi * t)

    def map_at(t):
        return base.at_time(tau(t))

    X = base.generator

    def gen_at(t, points):
        return dtau(t) * X.at(tau(t), points)

    return Isotopy.from_time_function(
        base.mesh, map_at, base.K,
        generator=TimeField(gen_at, base.mesh,
                            certified_symplectic=X.certified_symplectic))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_pullback_bound(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("L2 operator bound for pull-backs of 1-forms")
    t0 = time.perf_counter()
    mesh = ctx.mesh

    def random_pairs():
        rng = np.random.default_rng(ctx.config.seed + 101)
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
            alpha = _random_closed_form(ctx, rng, scale=rng.uniform(0.5, 2.0))
            ratio = l2_norm(pullback_oneform(phi, alpha.at)) / (
                pullback_bound_constant(phi) * l2_norm(alpha))
            worst = max(worst, ratio - 1.0)
        return worst

    rows.add("01-random-pairs", 1e-6, random_pairs)

    def shear_spot():
        S = catalog.shear(mesh, 0.1)
        val = l2_norm(pullback_oneform(S, OneForm.constant(mesh, 1.0, 0.0).at)) ** 2
        return abs(val / (1.0 + 0.02 * math.pi ** 2) - 1.0)

    rows.add("02-shear-spot", 1e-6, shear_spot,
             anchor="closed-form value of the sheared form norm")
    elapsed = time.perf_counter() - t0
    rows.add("03-runtime", 0.0, lambda: (max(0.0, elapsed - PULLBACK_BUDGET_S),
                                         "overshoot of the 5s budget"),
             anchor="wall time budget")
    return rows.items


def suite_lemma14_convergence(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("C0-continuity of pull-back along map sequences")
    t0 = time.perf_counter()
    mesh = ctx.mesh
    state = {}

    def build():
        psi = catalog.twist(mesh, 0.08, 0.06)
        seq = build_perturbation_sequence(psi, LEMMA14_AMPLITUDES,
                                          base_eps=(1e-3, 1e-3))
        alpha = _mode_form(ctx.sampler, harmonic=(0.7, -0.4),
                           waves=[(0, 1, "cos", 0.4), (1, 0, "sin", 0.3)])
        base = pullback_oneform(psi, alpha.at)
        e_l2, e_sup, d0s = [], [], []
        for m in seq:
            diff = pullback_oneform(m, alpha.at) - base
            e_l2.append(l2_norm(diff))
            e_sup.append(sup_norm(diff))
            d0s.append(c0_distance(m, psi))
        state.update(psi=psi, seq=seq, e_l2=np.array(e_l2),
                     e_sup=np.array(e_sup), d0s=np.array(d0s))
        return 0.0

    rows.add("00-build", 0.0, build, anchor="sequence construction")
    built = ("00-build",)
    rows.add("01-l2-monotone", 0.0,
             lambda: float(np.diff(state["e_l2"][3:]).max()), needs=built)
    rows.add("02-sup-monotone", 0.0,
             lambda: float(np.diff(state["e_sup"][3:]).max()), needs=built)
    rows.add("03-l2-final", 1e-3,
             lambda: float(state["e_l2"][-1]), needs=built)
    rows.add("04-sup-final", 1e-3,
             lambda: float(state["e_sup"][-1]), needs=built)
    rows.add("05-d0-monotone", 0.0,
             lambda: float(np.diff(state["d0s"][3:]).max()),
             anchor="uniform distance of the sequence", needs=built)
    rows.add("06-volume-preserving", 1e-8,
             lambda: float(max(np.abs(m.det - 1.0).max() for m in state["seq"])),
             anchor="perturbations preserve the volume form", needs=built)
    elapsed = time.perf_counter() - t0
    rows.add("07-runtime", 0.0, lambda: (max(0.0, elapsed - LEMMA14_BUDGET_S),
                                         "overshoot of the 10s budget"),
             anchor="wall time budget")
    return rows.items


def _cor22_flows(ctx: SuiteContext):
    mesh, K = ctx.mesh, ctx.K
    yield catalog.translation_flow(mesh, 0.3, 0.4, K)
    yield catalog.translation_flow(mesh, -0.2, 0.1, K)
    yield catalog.shear_flow(mesh, 0.1, axis=0, mode=1, K=K)
    yield catalog.shear_flow(mesh, -0.15, axis=0, mode=2, K=K)
    yield catalog.shear_flow(mesh, 0.12, axis=1, mode=1, K=K)
    yield catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K)
    yield catalog.translation_shear_flow(mesh, -0.2, 0.15, 0.08, K=K)
    yield catalog.translation_shear_flow(mesh, 0.1, 0.0, 0.05, K=K)
    # supports wide enough that the bump profiles are fully resolved
    yield catalog.rotation_flow(mesh, (0.5, 0.5), 0.3, 0.6, K)
    yield catalog.rotation_flow(mesh, (0.3, 0.6), 0.25, 0.8, K)


def suite_cor22_consistency(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("flux/orbit representation of the displacement mean")
    mesh = ctx.mesh
    rng = np.random.default_rng(ctx.config.seed + 202)
    forms = [
        _mode_form(ctx.sampler, harmonic=(1.0, 0.0)),
        _mode_form(ctx.sampler, harmonic=(0.0, 1.0)),
        _mode_form(ctx.sampler, harmonic=(0.6, -0.3), waves=[(0, 1, "cos", 0.5)]),
        _mode_form(ctx.sampler, harmonic=(0.4, 0.0),
                   waves=[(1, 0, "cos", 0.6), (0, 2, "sin", 0.4)]),
        _mode_form(ctx.sampler, harmonic=(0.0, 0.5),
                   waves=[(1, 1, "sin", 0.5), (2, 0, "cos", 0.5)]),
    ]
    points = rng.uniform(0.0, 1.0, (5, 2)).T  # one base point per column

    def agreement():
        worst = -math.inf
        for flow in _cor22_flows(ctx):
            psi = flow.end_map
            for alpha in forms:
                # one potential and one orbit integration for all five points
                via_potential = delta(psi, alpha, points)
                via_flux = delta_via_flux(psi, alpha, points, flow)
                for d1, d2 in zip(via_potential.tolist(), via_flux.tolist()):
                    worst = max(worst, abs(d1 - d2) / (1.0 + abs(d1)))
        return worst

    rows.add("01-agreement", 1e-4, agreement)

    def spot():
        S = catalog.shear(mesh, 0.1)
        return abs(delta(S, OneForm.constant(mesh, 1.0, 0.0), (0.0, 0.25)) + 0.1)

    rows.add("02-shear-spot", 1e-4, spot,
             anchor="analytic displacement mean of the shear")

    def independence():
        flowA = catalog.translation_flow(mesh, 0.3, 0.4, ctx.K)
        flowB = _reparam_flow(flowA)
        alpha, p = forms[2], points[:, 0]
        dA = delta_via_flux(flowA.end_map, alpha, p, flowA)
        dB = delta_via_flux(flowA.end_map, alpha, p, flowB)
        return abs(dA - dB)

    rows.add("03-isotopy-independence", 1e-6, independence)

    def continuity():
        base = catalog.twist(mesh, 0.06, 0.05)
        alpha, p = forms[2], points[:, 1]
        d_base = delta(base, alpha, p)
        gaps = [abs(delta(compose(base, catalog.perturbation_map(mesh, h)),
                          alpha, p) - d_base)
                for h in (0.1, 0.05, 0.025, 0.0125)]
        return float(np.diff(gaps).max())

    rows.add("04-c0-continuity", 0.0, continuity,
             anchor="uniform continuity of the displacement mean")
    return rows.items


def suite_conjugation(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("conjugation identity and two-sided norm equivalence")
    mesh = ctx.mesh
    rng = np.random.default_rng(ctx.config.seed + 303)
    state = {}

    def tuples():
        hs = [catalog.shear(mesh, 0.1), catalog.twist(mesh, 0.08, 0.05)]
        phis = [catalog.hamiltonian_flow(mesh, name, amp, ctx.K).end_map
                for name, amp in (("cos_x_cos_y", 0.08), ("sin_x_plus_sin_y", 0.06),
                                  ("mix_mode2", 0.05))]
        forms = [
            _mode_form(ctx.sampler, harmonic=(1.0, 0.0)),
            _mode_form(ctx.sampler, harmonic=(0.5, 0.5),
                       waves=[(0, 1, "cos", 0.4), (1, 0, "sin", 0.3)]),
        ]
        worst = -math.inf
        fails = 0
        for count in range(10):
            h = hs[count % 2]
            phi = phis[count % 3]
            alpha = forms[count % 2]
            x = rng.uniform(0.0, 1.0, 2)
            rep = conjugation_check(h, phi, x, alpha, ctx.sampler)
            worst = max(worst, rep.identity_residual / (1.0 + abs(rep.lhs)))
            fails += 0 if rep.sandwich_ok else 1
        state["fails"] = fails
        return worst

    rows.add("01-identity-residual", 1e-4, tuples)
    rows.add("02-sandwich", 0.0, lambda: float(state["fails"]),
             anchor="two-sided norm equivalence under conjugation",
             needs=("01-identity-residual",))
    return rows.items


def suite_norm_axioms(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("axioms of the displacement norm")
    mesh = ctx.mesh
    S = catalog.shear(mesh, 0.1)
    maps = [TorusMap.identity(mesh), catalog.translation(mesh, 1.0 / 3.0, 0.0), S]
    state = {}

    def positivity():
        state["rep"] = norm_axiom_report(maps, ctx.sampler)
        return state["rep"].margins["positivity"]

    rows.add("01-positivity", 0.0, positivity)
    rows.add("02-triangle", 0.0, lambda: state["rep"].margins["triangle"],
             needs=("01-positivity",))
    rows.add("03-duality", 0.0, lambda: state["rep"].margins["duality"],
             needs=("01-positivity",))
    rows.add("04-separation", 0.0, lambda: (0.1 - 1e-6) - ctx.norm(S),
             note="shortfall of the shear norm against the analytic witness")
    rows.add("05-report", 0.0, lambda: float(len(state["rep"].violations)),
             needs=("01-positivity",))
    return rows.items


def suite_energy_positivity(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("positivity chain for the displacement energy")
    mesh = ctx.mesh
    strip = Region.rectangle((0.0, 0.0), (0.25, 1.0))
    f = catalog.translation(mesh, 0.5, 0.0)
    state = {}

    def collapse():
        phi, psi = supported_commutator_pair(strip, mesh)
        return commutator_collapse_check(f, phi, psi, strip)

    rows.add("01-collapse-residual", 1e-3, collapse,
             anchor="commutator collapse under displacement")

    def chain():
        rep = energy_chain_check(strip, f, ctx.sampler)
        state["chain"] = rep
        return 0.0 if rep.chain_ok else 1.0

    rows.add("02-chain-holds", 0.0, chain)
    rows.add("03-lower-bound-positive", -1e-9,
             lambda: (-state["chain"].lower_bound,
                      f"lower bound {state['chain'].lower_bound:.6f}"),
             needs=("02-chain-holds",))

    def upper():
        candidates = [f, catalog.translation(mesh, 1.0 / 3.0, 0.0),
                      catalog.shear(mesh, 0.1)]
        up = displacement_energy_upper(strip, candidates, ctx.sampler)
        return (state["chain"].lower_bound - up, f"upper bound {up:.6f}")

    rows.add("04-upper-vs-lower", 0.0, upper, needs=("02-chain-holds",))

    def infinity():
        big = Region.rectangle((0.0, 0.0), (0.9, 0.9))
        candidates = [f, catalog.shear(mesh, 0.1)]
        up = displacement_energy_upper(big, candidates, ctx.sampler)
        return (0.0 if math.isinf(up) else 1.0,
                "no candidate displaces the large region")

    rows.add("05-infinity-branch", 0.0, infinity)
    return rows.items


def suite_volume_defect(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("pushforward/pullback volume criterion")
    mesh = ctx.mesh

    def vp_catalog():
        vp_maps = [catalog.translation(mesh, 0.3, 0.2),
                   catalog.shear(mesh, 0.1),
                   catalog.twist(mesh, 0.08, 0.06),
                   catalog.bump_rotation(mesh, (0.5, 0.5), 0.2, 0.5),
                   catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, ctx.K).end_map]
        X, Y = mesh.points
        fields = [np.stack([np.full(mesh.shape, 0.3), np.full(mesh.shape, -0.2)]),
                  catalog.hamiltonian_field(mesh, {"cos_x_cos_y": 0.5}).field(0.0),
                  np.stack([0.4 * np.sin(2 * np.pi * Y),
                            0.3 * np.cos(2 * np.pi * X)])]
        return max(volume_defect(m, Yf) for m in vp_maps for Yf in fields)

    rows.add("01-vp-catalog", 1e-6, vp_catalog)

    def witness():
        nvp = catalog.non_volume_preserving(mesh, eps=0.1)
        best = 0.0
        for cx in (0.25, 0.5, 0.75):
            for cy in (0.2, 0.45, 0.7):
                v = mesh.wrap_delta(mesh.points
                                    - np.array([cx, cy]).reshape(2, 1, 1))
                chi, _ = catalog._bump_chi((v[0] ** 2 + v[1] ** 2) / 0.15 ** 2)
                # curl of a sampled stream function: divergence-free to
                # round-off under the same spectral operators that check it
                Yf = np.stack([mesh.derivative(chi, 1), -mesh.derivative(chi, 0)])
                best = max(best, volume_defect(nvp, Yf))
        return (1e-2 - best, f"largest witnessed defect {best:.4f}")

    rows.add("02-nonvp-witness", 0.0, witness)
    return rows.items


def suite_flux_duality(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("flux homomorphisms on the torus")
    mesh, K = ctx.mesh, ctx.K

    def translations():
        worst = -math.inf
        for (c, d) in ((0.3, 0.4), (-0.2, 0.1)):
            p = symplectic_flux(catalog.translation_flow(mesh, c, d, K))
            worst = max(worst, abs(p[0] + d), abs(p[1] - c))
        return worst

    rows.add("01-translation-flux", 1e-10, translations)
    rows.add("02-hamiltonian-flux", 1e-8, lambda: max(
        symplectic_flux(catalog.shear_flow(mesh, 0.1, K=K)).max_abs(),
        symplectic_flux(catalog.hamiltonian_flow(mesh, "cos_x_cos_y",
                                                 0.08, K)).max_abs()))

    def additivity():
        A = catalog.translation_flow(mesh, 0.25, -0.15, K)
        B = catalog.translation_shear_flow(mesh, -0.1, 0.2, 0.08, K=K)
        pj = symplectic_flux(concat_reparam(A, B, oversample=2))
        pa, pb = symplectic_flux(A), symplectic_flux(B)
        return max(abs(pj[0] - pa[0] - pb[0]), abs(pj[1] - pa[1] - pb[1]))

    rows.add("03-flux-additivity", 1e-8, additivity)

    def reparam():
        base = catalog.translation_flow(mesh, 0.3, 0.4, K)
        rep = _reparam_flow(base)
        p0, p1 = symplectic_flux(base), symplectic_flux(rep)
        return max(abs(p0[0] - p1[0]), abs(p0[1] - p1[1]))

    rows.add("04-reparam-invariance", 1e-8, reparam)

    def mass():
        m = fathi_mass_flow(catalog.translation_flow(mesh, 0.3, 0.4, K))
        return max(abs(m[0] - 0.3), abs(m[1] - 0.4))

    rows.add("05-mass-flow-translation", 1e-8, mass,
             anchor="winding of translation flows")

    def duality():
        worst = -math.inf
        for make in (lambda: catalog.translation_flow(mesh, 0.3, 0.4, K),
                     lambda: catalog.shear_flow(mesh, 0.1, K=K),
                     lambda: catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K),
                     lambda: catalog.rotation_flow(mesh, (0.5, 0.5), 0.2, 0.8, K)):
            flow = make()
            mm = fathi_mass_flow(flow)
            pp = volume_flux(flow)
            worst = max(worst, abs(mm[0] - pp[1]), abs(mm[1] + pp[0]))
        return worst

    rows.add("06-poincare-duality", 1e-8, duality,
             anchor="winding/flux duality")

    def volume_vs_symplectic():
        worst = -math.inf
        for make in (lambda: catalog.translation_flow(mesh, 0.3, 0.4, K),
                     lambda: catalog.translation_shear_flow(mesh, 0.25, 0.35, 0.12, K=K)):
            flow = make()
            pp, qq = volume_flux(flow), symplectic_flux(flow)
            worst = max(worst, abs(pp[0] - qq[0]), abs(pp[1] - qq[1]))
        return worst

    rows.add("07-volume-vs-symplectic", 1e-10, volume_vs_symplectic)
    return rows.items


def suite_generator_g1(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("commutator generating function")
    mesh, K = ctx.mesh, ctx.K
    state = {}

    def build():
        state["phi"] = catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.06, K)
        state["psi"] = catalog.translation_shear_flow(mesh, 0.2, 0.15, 0.05, K=K)
        return 0.0

    rows.add("00-build", 0.0, build, anchor="path construction")

    def reconstruction():
        worst = -math.inf
        for path in (state["phi"], state["psi"]):
            split = generator_hodge_split(path)
            for j in (0, K // 2, K):
                vel = path.generator.field(path.times[j])
                beta = interior_product(vel, mesh)
                rec = (beta - exterior_derivative(split.potentials[j])
                       - split.harmonics[j])
                worst = max(worst, sup_norm(rec))
        return worst

    rows.add("01-split-reconstruction", 1e-8, reconstruction,
             anchor="generator splitting residual", needs=("00-build",))

    def mean_zero():
        worst = -math.inf
        for path in (state["phi"], state["psi"]):
            split = generator_hodge_split(path)
            worst = max(worst, max(abs(u.mean()) for u in split.potentials))
        return worst

    rows.add("02-mean-zero", 1e-12, mean_zero,
             anchor="generator splitting normalization", needs=("00-build",))

    def certify():
        from .isotopy import commutator_generator
        theta, pi = commutator_generator(state["phi"], state["psi"])
        state["theta"] = theta
        return theta.provenance["certified_residual"]

    rows.add("03-certified-residual", 1e-3, certify, needs=("00-build",))
    rows.add("04-theta-flux", 1e-6,
             lambda: symplectic_flux(state["theta"]).max_abs(),
             anchor="commutators have vanishing flux",
             needs=("00-build", "03-certified-residual"))

    def sample_periods():
        theta = state["theta"]
        worst = -math.inf
        for t in theta.times:
            beta = interior_product(theta.generator.field(t), mesh)
            worst = max(worst, abs(float(beta.ax.mean())),
                        abs(float(beta.ay.mean())))
        return worst

    rows.add("05-sample-periods", 1e-6, sample_periods,
             anchor="commutator generators are exact at every time",
             needs=("00-build", "03-certified-residual"))
    return rows.items


def suite_f_vs_geodesic(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("path functional against the minimizing-chord functional")
    mesh, K = ctx.mesh, ctx.K
    alpha = _mode_form(ctx.sampler, harmonic=(0.7, 0.4),
                       waves=[(0, 1, "cos", 0.5)])
    state = {}

    def smooth():
        worst = -math.inf
        for make in (lambda: catalog.shear_flow(mesh, 0.1, K=K),
                     lambda: catalog.hamiltonian_flow(mesh, "cos_x_cos_y", 0.08, K)):
            flow = make()
            worst = max(worst, sup_norm(f_functional(flow, alpha, 1.0)
                                        - geodesic_functional(flow, alpha)))
        return worst

    rows.add("01-smooth-agreement", 1e-6, smooth)

    def sequences():
        def flow(amps):
            return integrate_flow(catalog.hamiltonian_field(mesh, amps), K, mesh)

        H_path = flow({"cos_x_cos_y": 0.08})
        state["H"] = H_path
        target = geodesic_functional(H_path, alpha)
        gaps = [sup_norm(f_functional(flow({"cos_x_cos_y": 0.08,
                                            "sin_x_plus_sin_y": 0.1 / 2 ** i}),
                                      alpha, 1.0) - target)
                for i in range(1, 7)]
        state["gaps"] = gaps
        return float(np.diff(gaps).max())

    rows.add("02-sequence-monotone", 0.0, sequences)
    rows.add("03-sequence-final", 1e-2,
             lambda: state["gaps"][-1], needs=("02-sequence-monotone",))

    def kappa_bound():
        H_path = state["H"]
        kap = orbit_length_bound(H_path)
        worst = -math.inf
        for (bx, by) in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.7)):
            beta = OneForm.constant(mesh, bx, by)
            worst = max(worst, sup_norm(geodesic_functional(H_path, beta))
                        - kap * sup_norm(beta))
        return (worst, f"kappa = {kap:.4f}")

    rows.add("04-kappa-bound", 0.0, kappa_bound,
             anchor="linear bound on harmonic directions")
    return rows.items


def suite_rigidity_limit(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("uniform-limit rigidity pattern")
    mesh = ctx.mesh
    state = {}

    def convergent():
        target = catalog.twist(mesh, 0.05, 0.04)
        amps = [0.002 / i for i in range(1, 9)]
        rep = rigidity_limit_check(build_perturbation_sequence(target, amps),
                                   target, ctx.sampler)
        state["target"] = target
        state["amps"] = amps
        state["rep"] = rep
        return rep.norm_premises[-1]

    rows.add("01-premise-vanishes", 1e-2, convergent)
    rows.add("02-distance-vanishes", 1e-3,
             lambda: state["rep"].final_distance,
             needs=("01-premise-vanishes",))
    rows.add("03-constant-sequence", 1e-12, lambda: max(
        rigidity_limit_check([state["target"]] * 3, state["target"],
                             ctx.sampler).norm_premises),
        needs=("01-premise-vanishes",))

    def divergent():
        other = compose(catalog.translation(mesh, 0.3, 0.0), state["target"])
        seq2 = build_perturbation_sequence(other, state["amps"])
        rep2 = rigidity_limit_check(seq2, state["target"], ctx.sampler)
        state["rep2"] = rep2
        chain = energy_chain_check(
            Region.rectangle((0.0, 0.0), (0.25, 1.0)),
            catalog.translation(mesh, 0.3, 0.0), ctx.sampler)
        floor = chain.lower_bound
        return (floor - min(rep2.norm_premises),
                f"floor {floor:.5f} vs premises >= {min(rep2.norm_premises):.5f}")

    rows.add("04-divergent-floor", 0.0, divergent,
             needs=("01-premise-vanishes",))
    rows.add("05-no-violation", 0.0, lambda: float(
        state["rep"].pattern_violated or state["rep2"].pattern_violated),
        needs=("01-premise-vanishes",))
    return rows.items


def suite_hofer_cauchy(ctx: SuiteContext) -> list[CheckRow]:
    rows = Rows("length of symplectic paths")
    mesh, K = ctx.mesh, ctx.K
    rows.add("01-identity-length", 1e-12, lambda: hofer_like_length(
        catalog.translation_flow(mesh, 0.0, 0.0, K)))
    rows.add("02-translation-length", 1e-10, lambda: abs(
        hofer_like_length(catalog.translation_flow(mesh, 0.3, 0.4, K)) - 0.5))

    def autonomous():
        amp = 0.08
        X = catalog.hamiltonian_field(mesh, {"cos_x_cos_y": amp})
        H = catalog.hamiltonian_potential(mesh, "cos_x_cos_y", amp)
        return abs(generator_length(X, K, mesh) - oscillation(H))

    rows.add("03-autonomous-oscillation", 1e-8, autonomous)

    def reparam():
        base = catalog.shear_flow(mesh, 0.1, K=K)
        rep = _reparam_flow(base)
        return abs(hofer_like_length(rep) - hofer_like_length(base))

    rows.add("04-reparam-invariance", 1e-8, reparam)
    state = {}

    def cauchy():
        tails = [generator_length(
                     catalog.hamiltonian_field(
                         mesh, {"cos_x_cos_y": 0.1 * (2.0 ** -i - 2.0 ** -(i + 1))}),
                     max(16, K // 4), mesh)
                 for i in range(1, 6)]
        state["tails"] = tails
        return float(np.diff(tails).max())

    rows.add("05-cauchy-monotone", 0.0, cauchy,
             anchor="Cauchy tails of a commuting family")
    rows.add("06-cauchy-final", 1e-2,
             lambda: state["tails"][-1],
             anchor="Cauchy tails of a commuting family",
             needs=("05-cauchy-monotone",))
    return rows.items


SUITE_REGISTRY = {
    "pullback-bound": suite_pullback_bound,
    "lemma14-convergence": suite_lemma14_convergence,
    "cor22-consistency": suite_cor22_consistency,
    "conjugation": suite_conjugation,
    "norm-axioms": suite_norm_axioms,
    "energy-positivity": suite_energy_positivity,
    "volume-defect": suite_volume_defect,
    "rigidity-limit": suite_rigidity_limit,
    "flux-duality": suite_flux_duality,
    "generator-g1": suite_generator_g1,
    "f-vs-geodesic": suite_f_vs_geodesic,
    "hofer-cauchy": suite_hofer_cauchy,
}

SUITE_ANCHORS = {
    "pullback-bound": "L2 continuity of the pull-back action on 1-forms",
    "lemma14-convergence": "C0-continuity of pull-back along map sequences",
    "cor22-consistency": "flux/orbit representation of the displacement mean",
    "conjugation": "conjugation identity for the displacement invariant",
    "norm-axioms": "axioms of the displacement norm",
    "energy-positivity": "positivity of the displacement energy",
    "volume-defect": "volume-preservation criterion via conservative fields",
    "rigidity-limit": "uniform-limit rigidity pattern",
    "flux-duality": "flux homomorphisms and winding duality",
    "generator-g1": "generating function of commutator paths",
    "f-vs-geodesic": "path functional against the minimizing-chord functional",
    "hofer-cauchy": "length of symplectic paths and Cauchy tails",
}


def run_suite(config: ExperimentConfig) -> SuiteReport:
    """Execute the configured suite (or all of them) and collect rows.

    A failing check inside a suite records an error row and never aborts
    the remaining checks; report row order is fixed by check id.  Each
    suite's wall seconds go into `suite_seconds`, for the JSON report.
    """
    names = sorted(SUITE_REGISTRY) if config.suite == "all" else [config.suite]
    if config.suite != "all" and config.suite not in SUITE_REGISTRY:
        raise KeyError(f"unknown suite {config.suite!r}")
    rows: list[CheckRow] = []
    seconds = {}
    for name in names:
        start = time.perf_counter()
        ctx = SuiteContext(config)
        prefix = f"{name}/" if config.suite == "all" else ""
        for r in SUITE_REGISTRY[name](ctx):
            rows.append(CheckRow(f"{prefix}{r.check_id}", r.paper_anchor,
                                 r.value, r.tolerance, note=r.note))
        seconds[name] = time.perf_counter() - start
    rows.sort(key=lambda r: r.check_id)
    return SuiteReport(suite=config.suite, seed=config.seed, rows=rows,
                       config=config.echo(), environment=_environment(),
                       timestamp=time.time(), suite_seconds=seconds)


def emit_report(report: SuiteReport, out_dir) -> list[str]:
    """Write the report as CSV, then as JSON; returns the two written paths.

    The CSV carries exactly the row table (no timestamp), so identical
    configurations and seeds produce byte-identical files.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    stem = report.suite if report.suite != "all" else "all-suites"
    csv_path = out / f"{stem}.csv"
    lines = ["check_id,paper_anchor,value,tolerance,pass"]
    for r in report.rows:
        anchor = r.paper_anchor.replace('"', "'")
        lines.append(f"{r.check_id},\"{anchor}\",{r.value!r},"
                     f"{r.tolerance!r},{r.passed}")
    try:
        csv_path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {csv_path}: {exc}") from exc
    json_path = out / f"{stem}.json"
    try:
        json_path.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True))
    except OSError as exc:
        raise OSError(f"cannot write {json_path}: {exc}") from exc
    return [str(csv_path), str(json_path)]
