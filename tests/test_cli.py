"""Command-line driver: subcommands, overrides, exit codes, error notes
and the modules an import loads."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fluxlab
from fluxlab.cli import main
from fluxlab.suites import SUITE_REGISTRY


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert set(out) == set(SUITE_REGISTRY) | {"all"}


def test_describe_suite(capsys):
    assert main(["describe-suite", "flux-duality"]) == 0
    assert "flux" in capsys.readouterr().out


def test_describe_unknown_suite(capsys):
    assert main(["describe-suite", "nope"]) == 2


def _write_config(tmp_path, **overrides):
    cfg = {"suite": "norm-axioms", "seed": 5, "mesh": {"N": 32}, "K": 16,
           "sampler": {"m": 2, "count": 8},
           "out": str(tmp_path / "out")}
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    p = _write_config(tmp_path)
    rc = main(["run", "--config", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "out" / "norm-axioms.csv").exists()
    assert (tmp_path / "out" / "norm-axioms.json").exists()
    assert "checks passed" in out


def test_run_suite_override(tmp_path, capsys):
    p = _write_config(tmp_path)
    rc = main(["run", "--config", str(p), "--suite", "pullback-bound"])
    assert rc == 0
    assert (tmp_path / "out" / "pullback-bound.csv").exists()


def test_run_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"suite": "norm-axioms"}))  # missing seed
    assert main(["run", "--config", str(p)]) == 2


def _unreadable(tmp_path, monkeypatch):
    p = _write_config(tmp_path)

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    return p


@pytest.mark.parametrize("make", [
    lambda tmp_path, monkeypatch: tmp_path,
    lambda tmp_path, monkeypatch: (tmp_path / "cfg.json").write_bytes(
        b"\xff\xfe{}") and tmp_path / "cfg.json",
    _unreadable,
], ids=["directory", "not-utf-8", "unreadable"])
def test_run_unreadable_config_exit_code(tmp_path, monkeypatch, capsys, make):
    # a path that cannot be read as UTF-8 text is a config error, not a
    # traceback
    p = make(tmp_path, monkeypatch)
    assert main(["run", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {p}")


def test_run_unwritable_out_exit_code(tmp_path, capsys):
    # exit 1 means a row failed; a report that cannot be written is exit 2
    p = _write_config(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["run", "--config", str(p), "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith(
        f"output error: cannot create output directory {blocker}")


@pytest.mark.parametrize("overrides, argv, key", [
    ({"sampler": {"m": 2, "count": 8, "refine": 0}}, [], "'sampler.refine'"),
    ({}, ["--mesh", "20"], "'mesh.N'"),
    ({"K": 8}, [], "'K'"),
    ({"K": 17}, [], "'K'"),
    ({"K": -2}, [], "'K'"),
    ({"seed": -1}, [], "'seed'"),
    ({}, ["--seed", "-1"], "'seed'")],
    ids=["refine-0", "mesh-20", "K-8", "K-17", "K-minus-2", "seed-minus-1",
         "seed-flag-minus-1"])
def test_run_rejected_value_exit_code(tmp_path, capsys, overrides, argv, key):
    # a value the sampler, the mesh, the flows or Simpson's rule reject, in
    # the file or on the command line: a config error naming the key, not a
    # traceback or error rows
    p = _write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(p), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not (tmp_path / "out").exists()


def test_run_unknown_suite_override(tmp_path):
    p = _write_config(tmp_path)
    assert main(["run", "--config", str(p), "--suite", "bogus"]) == 2


def test_run_failing_suite_exit_one(tmp_path, capsys):
    # a 16-point grid is below the energy-geometry resolution: rows fail
    p = _write_config(tmp_path, suite="energy-positivity",
                      mesh={"N": 16}, sampler={"m": 2, "count": 4})
    assert main(["run", "--config", str(p)]) == 1


def test_seed_override_changes_sampled_rows(tmp_path):
    p = _write_config(tmp_path, suite="pullback-bound")
    main(["run", "--config", str(p), "--out", str(tmp_path / "o1")])
    main(["run", "--config", str(p), "--out", str(tmp_path / "o2"),
          "--seed", "99"])
    a = (tmp_path / "o1" / "pullback-bound.csv").read_text()
    b = (tmp_path / "o2" / "pullback-bound.csv").read_text()
    assert a != b


def test_errored_rows_name_their_frame_and_cause(tmp_path, capsys):
    # at N = 32 the strip is too small for the energy chain: 02 raises, and
    # 03 and 04, which read its result, name 02 and its error
    config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert main(["run", "--config", str(config), "--suite",
                 "energy-positivity", "--mesh", "32", "--out",
                 str(tmp_path)]) == 1
    rows = {r["check_id"]: r for r in json.loads(
        (tmp_path / "energy-positivity.json").read_text())["rows"]}
    raised = rows["02-chain-holds"]["note"]
    assert raised.startswith("ValueError: region too small at N = 32")
    assert re.search(r"; at fluxlab/displacement\.py:\d+$", raised)
    for dependent in ("03-lower-bound-positive", "04-upper-vs-lower"):
        assert rows[dependent]["note"] == f"needs 02-chain-holds, which raised {raised}"
    # notes live in the JSON report only; the CSV is the bare row table
    assert "region too small" not in (tmp_path / "energy-positivity.csv").read_text()


def test_import_loads_no_scipy():
    # a fresh interpreter: the test process has loaded scipy's oracles
    src = str(Path(fluxlab.__file__).resolve().parents[1])
    code = ("import sys, fluxlab, fluxlab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_no_module_imports_scipy():
    # not on import and not on use: fluxlab evaluates its own splines and
    # Simpson sums, and scipy is only the tests' oracle
    found = []
    for path in sorted(Path(fluxlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
