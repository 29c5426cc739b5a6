"""Config validation, suite reports, report emission, perturbation builder."""

import json
import math
import re

import numpy as np
import pytest

from fluxlab import catalog
from fluxlab.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config)
from fluxlab.displacement import psi_norm
from fluxlab.maps import DiffeomorphismError, TorusMap, c0_distance, compose
from fluxlab.mesh import GridMesh
from fluxlab.suites import (SUITE_ANCHORS, SUITE_REGISTRY, CheckRow,
                            SuiteContext, _reparam_flow,
                            build_perturbation_sequence, emit_report,
                            run_suite, suite_norm_axioms)


# -- config -------------------------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"suite": "lemma14-convergence",
                             "mesh": {"N": 128}, "seed": 3}))
    cfg = load_config(p)
    assert cfg.mesh.N == 128
    assert cfg.K == 64
    assert cfg.sampler.m == 8 and cfg.sampler.count == 64
    assert cfg.sampler.seed == 3
    assert list(cfg.schedule.amplitudes) == [1.0 / i for i in range(1, 17)]


@pytest.mark.parametrize("key", ["mash", "tolerances", "generators"])
def test_unknown_key_rejected(key):
    # tolerances and base maps are code, not config
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config({"suite": "norm-axioms", "seed": 1, key: {"N": 64}})


def test_nested_unknown_key_rejected():
    with pytest.raises(ConfigError, match="sampler.mm"):
        parse_config({"suite": "norm-axioms", "seed": 1, "sampler": {"mm": 8}})


def test_seed_required():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"suite": "norm-axioms"})


def test_unregistered_suite_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        parse_config({"suite": "lemma99", "seed": 1})


@pytest.mark.parametrize("data, message", [
    ({"suite": "norm-axioms", "seed": 1, "sampler": 8}, "'sampler' must be an object"),
    ({"suite": "norm-axioms", "seed": 1, "mesh": {"N": True}}, "'mesh.N' must be an integer"),
    ({"suite": "norm-axioms", "seed": 1, "out": 3}, "'out' must be str"),
    (["norm-axioms", 1], "config root must be an object"),
    ({"seed": 1}, "missing required key 'suite'"),
])
def test_malformed_config_rejected(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(data)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_registry_matches_anchors():
    assert set(SUITE_REGISTRY) == set(SUITE_ANCHORS)
    assert len(SUITE_REGISTRY) == 12


# -- perturbation sequences -----------------------------------------------------

def test_perturbation_zero_amplitude():
    mesh = GridMesh(N=32)
    psi = catalog.twist(mesh, 0.05, 0.04)
    seq = build_perturbation_sequence(psi, [0.0, 0.0])
    for m in seq:
        assert np.abs(m.disp - psi.disp).max() < 1e-14


def test_perturbation_distances_decrease():
    mesh = GridMesh(N=32)
    psi = catalog.twist(mesh, 0.05, 0.04)
    amps = [0.01 / i for i in range(1, 9)]
    seq = build_perturbation_sequence(psi, amps)
    d = [c0_distance(m, psi) for m in seq]
    assert all(b < a for a, b in zip(d, d[1:]))


def test_perturbation_volume_preserving():
    mesh = GridMesh(N=32)
    psi = catalog.translation(mesh, 0.2, 0.1)
    seq = build_perturbation_sequence(psi, [0.01, 0.005])
    for m in seq:
        assert np.abs(m.det - 1.0).max() <= 1e-8


def test_perturbation_too_large_fails():
    mesh = GridMesh(N=32)
    psi = catalog.translation(mesh, 0.2, 0.1)
    with pytest.raises(DiffeomorphismError):
        build_perturbation_sequence(psi, [40.0])


# -- rows and reports -----------------------------------------------------------

def test_checkrow_pass_semantics():
    assert CheckRow("a", "x", 0.5, 1.0).passed
    assert not CheckRow("a", "x", 2.0, 1.0).passed
    assert not CheckRow("a", "x", math.nan, 1.0).passed


def _tiny_config(suite="norm-axioms", seed=7):
    return parse_config({"suite": suite, "seed": seed, "mesh": {"N": 32},
                         "K": 16, "sampler": {"m": 2, "count": 8}})


def test_run_suite_report_structure():
    rep = run_suite(_tiny_config())
    assert rep.suite == "norm-axioms"
    assert rep.rows == sorted(rep.rows, key=lambda r: r.check_id)
    assert all(r.paper_anchor for r in rep.rows)
    assert rep.environment["numpy"]


def test_norm_axiom_rows_match_inline_formulas():
    # the axiom margins written out inline are the oracle: the rows the
    # suite reads from one norm_axiom_report must equal them bit for bit
    ctx = SuiteContext(_tiny_config())
    rows = {r.check_id: r.value for r in suite_norm_axioms(ctx)}
    mesh, sampler, slack = ctx.mesh, ctx.sampler, 0.05
    maps = [TorusMap.identity(mesh), catalog.translation(mesh, 1.0 / 3.0, 0.0),
            catalog.shear(mesh, 0.1)]
    n = [psi_norm(m, sampler).norm_lower_bound for m in maps]
    triangle = -math.inf
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i == j:
                continue
            n_ab = psi_norm(compose(a, b), sampler).norm_lower_bound
            triangle = max(triangle, n_ab - n[i] - n[j] - slack * (n[i] + n[j]))
    duality = -math.inf
    for i, a in enumerate(maps):
        n_inv = psi_norm(a.inverse(), sampler).norm_lower_bound
        duality = max(duality, abs(n_inv - n[i]) - slack * max(n[i], n_inv, 1e-30))
    assert rows["01-positivity"].hex() == (-min(n)).hex()
    assert rows["02-triangle"].hex() == triangle.hex()
    assert rows["03-duality"].hex() == duality.hex()
    assert rows["05-report"] == 0.0


def test_hofer_cauchy_integrates_no_flow(monkeypatch):
    # its lengths read generators (`generator_length`); no row reads a map
    # of an integrated flow
    from fluxlab import isotopy, suites
    calls = []
    real = isotopy.integrate_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (isotopy, catalog, suites):
        monkeypatch.setattr(module, "integrate_flow", counting)
    rep = run_suite(_tiny_config("hofer-cauchy"))
    assert len(rep.rows) == 6 and all(math.isfinite(r.value) for r in rep.rows)
    assert calls == []


def test_suite_isolation_never_aborts():
    # a mesh too coarse for the energy geometry must yield failing rows,
    # not an exception
    cfg = parse_config({"suite": "energy-positivity", "seed": 7,
                        "mesh": {"N": 16}, "K": 16,
                        "sampler": {"m": 2, "count": 4}})
    rep = run_suite(cfg)
    assert len(rep.rows) == 5
    assert any(not r.passed for r in rep.rows)
    assert any(r.note for r in rep.rows if not r.passed)


def test_emit_report_csv_and_json(tmp_path):
    rep = run_suite(_tiny_config())
    paths = emit_report(rep, tmp_path)
    csv_path, json_path = paths
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "check_id,paper_anchor,value,tolerance,pass"
    assert len(lines) == len(rep.rows) + 1
    data = json.loads(open(json_path).read())
    assert data["suite"] == "norm-axioms"
    assert len(data["rows"]) == len(rep.rows)
    assert "timestamp" in data


def test_emit_empty_report(tmp_path):
    from fluxlab.suites import SuiteReport
    rep = SuiteReport(suite="norm-axioms", seed=0, rows=[], config={},
                      environment={}, timestamp=0.0)
    csv_path, _ = emit_report(rep, tmp_path)
    assert open(csv_path).read() == "check_id,paper_anchor,value,tolerance,pass\n"


def test_emit_report_os_errors(tmp_path):
    from fluxlab.suites import SuiteReport
    rep = SuiteReport(suite="norm-axioms", seed=0, rows=[], config={},
                      environment={}, timestamp=0.0)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(OSError, match="cannot create output directory"):
        emit_report(rep, blocker / "out")
    # a directory where a report file should go cannot be written
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        (out / f"norm-axioms.{fmt}").mkdir(parents=True)
        with pytest.raises(OSError, match=f"cannot write .*norm-axioms.{fmt}"):
            emit_report(rep, out)


def test_run_suite_unknown_suite():
    # parse_config rejects the name; a config built directly reaches the
    # registry lookup
    cfg = ExperimentConfig(suite="no-such-suite", seed=1)
    with pytest.raises(KeyError, match="unknown suite 'no-such-suite'"):
        run_suite(cfg)


def test_csv_pass_recomputable(tmp_path):
    rep = run_suite(_tiny_config())
    csv_path, _ = emit_report(rep, tmp_path)
    for line in open(csv_path).read().strip().split("\n")[1:]:
        head, anchor, tail = line.split('"')
        value_s, tol_s, passed_s = tail.lstrip(",").split(",")
        value, tol = float(value_s), float(tol_s)
        assert (passed_s == "True") == (np.isfinite(value) and value <= tol)


def test_json_roundtrip_structure(tmp_path):
    rep = run_suite(_tiny_config())
    _, json_path = emit_report(rep, tmp_path)
    data = json.loads(open(json_path).read())
    again = json.loads(json.dumps(data))
    assert again == data


def test_determinism_same_seed(tmp_path):
    cfg1 = _tiny_config(seed=13)
    cfg2 = _tiny_config(seed=13)
    c1, j1 = emit_report(run_suite(cfg1), tmp_path / "a")
    c2, j2 = emit_report(run_suite(cfg2), tmp_path / "b")
    assert open(c1, "rb").read() == open(c2, "rb").read()
    # the JSON differs only in its timestamp
    d1, d2 = json.loads(open(j1).read()), json.loads(open(j2).read())
    d1.pop("timestamp"), d2.pop("timestamp")
    assert d1 == d2


def test_seed_changes_report(tmp_path):
    # the sampled rows genuinely depend on the seed
    cfg1 = _tiny_config(suite="pullback-bound", seed=13)
    cfg2 = _tiny_config(suite="pullback-bound", seed=14)
    r1 = run_suite(cfg1)
    r2 = run_suite(cfg2)
    v1 = [r.value for r in r1.rows if "random" in r.check_id]
    v2 = [r.value for r in r2.rows if "random" in r.check_id]
    assert v1 != v2


def test_reparam_flow_reads_its_base_flow():
    mesh = GridMesh(N=32)
    K = 16
    for base in (catalog.translation_flow(mesh, 0.3, 0.4, K),
                 catalog.shear_flow(mesh, 0.1, K=K)):
        rep = _reparam_flow(base)
        assert rep.mesh is base.mesh and rep.K == K
        # tau fixes 0, 1/2 and 1, so those samples are the base flow's maps
        assert rep.at_time(0.0) is base.maps[0]
        assert rep.at_time(0.5) is base.maps[K // 2]
        assert rep.at_time(1.0) is base.maps[K]
