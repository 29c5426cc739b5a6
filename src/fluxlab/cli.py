"""Batch command-line driver.

    fluxlab run --config cfg.json [--suite NAME] [--out DIR] [--seed S] [--mesh N]
    fluxlab list-suites
    fluxlab describe-suite NAME

`run` exits 0 iff every check row passes, 1 if a row fails, and 2 on a
bad config or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .suites import SUITE_ANCHORS, SUITE_REGISTRY, emit_report, run_suite


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fluxlab",
                                description="displacement-geometry suites on the flat torus")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite from a config")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--suite", help="override the configured suite name")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--seed", type=int, help="override the experiment seed")
    run.add_argument("--mesh", type=int, help="override the grid resolution N")

    sub.add_parser("list-suites", help="print the registered suite names")

    desc = sub.add_parser("describe-suite", help="print what a suite verifies")
    desc.add_argument("name")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-suites":
        for name in sorted(SUITE_REGISTRY):
            print(name)
        print("all")
        return 0

    if args.command == "describe-suite":
        name = args.name
        if name == "all":
            for n in sorted(SUITE_REGISTRY):
                print(f"{n}: {SUITE_ANCHORS[n]}")
            return 0
        if name not in SUITE_REGISTRY:
            print(f"unknown suite {name!r}; run 'fluxlab list-suites'",
                  file=sys.stderr)
            return 2
        print(f"{name}: {SUITE_ANCHORS[name]}")
        return 0

    try:
        config = load_config(args.config)
        if args.suite:
            config.suite = args.suite
        if args.seed is not None:
            config.seed = args.seed
            config.sampler.seed = args.seed
        if args.mesh is not None:
            config.mesh.N = args.mesh
        config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config.out = args.out

    report = run_suite(config)
    try:
        paths = emit_report(report, config.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    n_pass = sum(r.passed for r in report.rows)
    for r in report.rows:
        mark = "pass" if r.passed else "FAIL"
        print(f"[{mark}] {r.check_id}: value={r.value:.6g} tol={r.tolerance:.6g}")
    print(f"{n_pass}/{len(report.rows)} checks passed; reports: {', '.join(paths)}")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
