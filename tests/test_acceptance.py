"""Acceptance criteria at production resolution (N = 128, K = 64).

Criteria 1-13 read the rows of one battery run (every suite, seed 2026)
shared by the whole module: each asserts that its rows pass and holds
their values to its own bound, written here, so a suite default loosened
in the package still fails the criterion.  Where a row value is measured
against a package constant (an axiom or chain slack, a runtime budget),
the criterion bounds that constant too.  Criterion 14 checks that run
against the runtime budget and compares its CSV bytes with those of a
second battery, run by the command line in a fresh interpreter at the same
time.  Every criterion prints one pass/fail line (visible with `pytest -s`
and in failure output).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fluxlab
from fluxlab.config import parse_config
from fluxlab.displacement import AXIOM_SLACK, CHAIN_SLACK, CONJUGATION_SLACK
from fluxlab.suites import (LEMMA14_BUDGET_S, PULLBACK_BUDGET_S, emit_report,
                            run_suite)

SEED = 2026


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The full battery at the default configuration and its wall time,
    with a second battery started before it in a child process: the child,
    its output directory and its log."""
    out = tmp_path_factory.mktemp("battery-cli")
    src = Path(fluxlab.__file__).resolve().parents[1]
    config = src.parent / "configs" / "default.json"
    with open(out / "log.txt", "w") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "fluxlab.cli", "run", "--config",
             str(config), "--out", str(out)],
            stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(src)})
    try:
        t0 = time.perf_counter()
        rep = run_suite(parse_config({"suite": "all", "seed": SEED}))
        yield rep, time.perf_counter() - t0, child, out
    finally:
        child.kill()
        child.wait()


def rows(battery, suite: str, *checks: str):
    """The rows `suite/check` of the battery, in order; KeyError if one is
    missing."""
    table = {r.check_id: r for r in battery[0].rows}
    return [table[f"{suite}/{c}"] for c in checks]


def passed(*rs) -> bool:
    return all(r.passed for r in rs)


def test_criterion_01_pullback_bound(battery):
    pairs, spot, runtime = rows(battery, "pullback-bound", "01-random-pairs",
                                "02-shear-spot", "03-runtime")
    report(1, passed(pairs, spot, runtime) and pairs.value <= 1e-6
           and spot.value <= 1e-6 and runtime.value <= 0.0
           and PULLBACK_BUDGET_S <= 5.0,
           f"20 pairs worst ratio {1.0 + pairs.value:.9f}, shear spot rel "
           f"{spot.value:.2e}, overshoot of {PULLBACK_BUDGET_S:g} s "
           f"{runtime.value:.2f}s")


def test_criterion_02_pullback_c0_continuity(battery):
    inc_l2, inc_sup, l2, sup, runtime = rows(
        battery, "lemma14-convergence", "01-l2-monotone", "02-sup-monotone",
        "03-l2-final", "04-sup-final", "07-runtime")
    report(2, passed(inc_l2, inc_sup, l2, sup, runtime) and inc_l2.value <= 0
           and inc_sup.value <= 0 and l2.value <= 1e-3 and sup.value <= 1e-3
           and runtime.value <= 0.0 and LEMMA14_BUDGET_S <= 10.0,
           f"monotone from i=4 (max increments {inc_l2.value:.1e}, "
           f"{inc_sup.value:.1e}), final L2 {l2.value:.2e}, sup "
           f"{sup.value:.2e}, overshoot of {LEMMA14_BUDGET_S:g} s "
           f"{runtime.value:.2f}s")


def test_criterion_03_delta_consistency(battery):
    agree, spot, paths = rows(battery, "cor22-consistency", "01-agreement",
                              "02-shear-spot", "03-isotopy-independence")
    report(3, passed(agree, spot, paths) and agree.value <= 1e-4
           and spot.value <= 1e-4 and paths.value <= 1e-6,
           f"250-case worst rel gap {agree.value:.2e}, shear spot error "
           f"{spot.value:.1e}, path independence {paths.value:.2e}")


def test_criterion_04_conjugation_identity(battery):
    resid, sandwich = rows(battery, "conjugation", "01-identity-residual",
                           "02-sandwich")
    report(4, passed(resid, sandwich) and resid.value <= 1e-4
           and sandwich.value <= 0 and CONJUGATION_SLACK <= 0.05,
           f"10 tuples, worst residual {resid.value:.2e}, "
           f"{sandwich.value:g} sandwich failures at slack {CONJUGATION_SLACK}")


def test_criterion_05_norm_axioms(battery):
    axioms = rows(battery, "norm-axioms", "01-positivity", "02-triangle",
                  "03-duality", "04-separation")
    report(5, passed(*axioms) and all(r.value <= 0 for r in axioms)
           and AXIOM_SLACK <= 0.05,
           f"slack {AXIOM_SLACK}, worst margins " + ", ".join(
               f"{r.check_id.rsplit('-', 1)[-1]} {r.value:.2e}" for r in axioms))


def test_criterion_06_collapse_identity(battery):
    resid, = rows(battery, "energy-positivity", "01-collapse-residual")
    report(6, passed(resid) and resid.value <= 1e-3,
           f"strip collapse residual {resid.value:.2e}")


def test_criterion_07_energy_positivity(battery):
    chain, lower, upper, inf = rows(
        battery, "energy-positivity", "02-chain-holds",
        "03-lower-bound-positive", "04-upper-vs-lower", "05-infinity-branch")
    report(7, passed(chain, lower, upper, inf) and chain.value <= 0
           and -lower.value >= 1e-9 and upper.value <= 0 and inf.value <= 0
           and CHAIN_SLACK <= 0.05,
           f"chain holds at slack {CHAIN_SLACK}, lower bound "
           f"{-lower.value:.5f} >= 1e-9, "
           f"{-upper.value:.4f} below the smallest displacing norm, "
           f"no-displacer branch -> inf: {inf.value == 0}")


def test_criterion_08_flux_closed_forms(battery):
    trans, ham, add = rows(battery, "flux-duality", "01-translation-flux",
                           "02-hamiltonian-flux", "03-flux-additivity")
    report(8, passed(trans, ham, add) and trans.value <= 1e-10
           and ham.value <= 1e-8 and add.value <= 1e-8,
           f"translation {trans.value:.1e}, hamiltonian {ham.value:.1e}, "
           f"additivity {add.value:.1e}")


def test_criterion_09_mass_flow_duality(battery):
    winding, dual = rows(battery, "flux-duality", "05-mass-flow-translation",
                         "06-poincare-duality")
    report(9, passed(winding, dual) and winding.value <= 1e-8
           and dual.value <= 1e-8,
           f"translation winding {winding.value:.1e}, duality gap "
           f"{dual.value:.1e}")


def test_criterion_10_generator_split_and_commutator(battery):
    rec, mean, cert, flux = rows(
        battery, "generator-g1", "01-split-reconstruction", "02-mean-zero",
        "03-certified-residual", "04-theta-flux")
    # the path length is built from the same generator split
    ident, trans, osc, reparam, tails, tail = rows(
        battery, "hofer-cauchy", "01-identity-length", "02-translation-length",
        "03-autonomous-oscillation", "04-reparam-invariance",
        "05-cauchy-monotone", "06-cauchy-final")
    report(10, passed(rec, mean, cert, flux, ident, trans, osc, reparam,
                      tails, tail)
           and rec.value <= 1e-8 and mean.value <= 1e-12
           and cert.value <= 1e-3 and flux.value <= 1e-6
           and ident.value <= 1e-12 and trans.value <= 1e-10
           and osc.value <= 1e-8 and reparam.value <= 1e-8
           and tails.value <= 0 and tail.value <= 1e-2,
           f"reconstruction {rec.value:.1e}, mean {mean.value:.1e}, "
           f"certified residual {cert.value:.2e}, "
           f"commutator flux {flux.value:.1e}; length errors "
           f"{max(ident.value, trans.value, osc.value, reparam.value):.1e}, "
           f"Cauchy tail {tail.value:.1e}")


def test_criterion_11_path_vs_chord(battery):
    smooth, inc, final, kappa = rows(
        battery, "f-vs-geodesic", "01-smooth-agreement",
        "02-sequence-monotone", "03-sequence-final", "04-kappa-bound")
    report(11, passed(smooth, inc, final, kappa) and smooth.value <= 1e-6
           and inc.value <= 0 and final.value <= 1e-2 and kappa.value <= 0,
           f"smooth agreement {smooth.value:.1e}, sequence decreasing "
           f"(max inc {inc.value:.1e}) to {final.value:.2e}, kappa bound "
           f"margin {kappa.value:.1e}")


def test_criterion_12_volume_defect(battery):
    vp, witness = rows(battery, "volume-defect", "01-vp-catalog",
                       "02-nonvp-witness")
    report(12, passed(vp, witness) and vp.value <= 1e-6 and witness.value < 0,
           f"volume-preserving catalog defect {vp.value:.1e}, "
           f"witnessed defect {1e-2 - witness.value:.4f}")


def test_criterion_13_rigidity_pattern(battery):
    premise, distance, floor, pattern = rows(
        battery, "rigidity-limit", "01-premise-vanishes",
        "02-distance-vanishes", "04-divergent-floor", "05-no-violation")
    report(13, passed(premise, distance, floor, pattern)
           and premise.value <= 1e-2 and distance.value <= 1e-3
           and floor.value <= 0 and pattern.value <= 0,
           f"convergent: premise {premise.value:.2e}, distance "
           f"{distance.value:.2e}; divergent premises clear the energy "
           f"floor by {-floor.value:.4f}")


def test_criterion_14_determinism_and_runtime(battery, tmp_path):
    rep1, elapsed, child, out = battery
    p1 = emit_report(rep1, tmp_path / "run1")[0]
    code = child.wait(timeout=600)
    p2 = out / "all-suites.csv"
    identical = p2.exists() and open(p1, "rb").read() == p2.read_bytes()
    report(14, identical and elapsed < 120.0 and rep1.overall_pass,
           f"byte-identical CSV {identical} (second run in a fresh process, "
           f"exit {code}, log {out / 'log.txt'}), full default suite "
           f"{elapsed:.1f}s (< 120 s), all rows pass {rep1.overall_pass}")
