#!/usr/bin/env python3
"""Run the full battery at a git revision and in the working tree, and
compare the two CSV reports row by row.

    python scripts/battery_diff.py REV [--mesh N] [--config PATH]

REV's committed files are unpacked into a temporary directory with
`git archive`; both trees then run `fluxlab run --suite all` on their own
`src/`, one after the other.  Every row whose CSV bytes differ is printed
with its old and new value and verdict; a row only one side has is
printed as added or removed.  The exit code is 1 when a row that passes
at REV fails in the tree, 2 when a run writes no report, else 0.

Uses the standard library and the repository only.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unpack(rev: str, dest: Path) -> None:
    """REV's committed files under `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run_battery(tree: Path, config: str, mesh: int, out: Path) -> dict[str, tuple[str, list]]:
    """check_id -> (CSV line, fields) of the battery run in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fluxlab.cli", "run", "--config", str(tree / config),
         "--suite", "all", "--mesh", str(mesh), "--out", str(out)],
        cwd=tree / "src", env=env, capture_output=True, text=True)
    report = out / "all-suites.csv"
    # the CLI exits 1 when a row fails; that is a result, not an error
    if proc.returncode not in (0, 1) or not report.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"battery_diff: no report from {tree} (exit {proc.returncode})")
    lines = report.read_text().splitlines()[1:]
    return {fields[0]: (line, fields)
            for line, fields in zip(lines, csv.reader(lines))}


def _show(fields: list | None) -> str:
    return "-" if fields is None else f"{fields[2]} ({fields[4]})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, e.g. HEAD^")
    parser.add_argument("--mesh", type=int, default=64, help="grid resolution N")
    parser.add_argument("--config", default="configs/default.json",
                        help="config path, relative to each tree's root")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="battery-diff-") as tmp:
        tmp = Path(tmp)
        _unpack(args.rev, tmp / "rev")
        old = _run_battery(tmp / "rev", args.config, args.mesh, tmp / "out-rev")
        new = _run_battery(ROOT, args.config, args.mesh, tmp / "out-tree")

    regressed = []
    changed = 0
    for check_id in list(old) + [c for c in new if c not in old]:
        o, n = old.get(check_id), new.get(check_id)
        if o is not None and n is not None and o[0] == n[0]:
            continue
        changed += 1
        print(f"{check_id}: {_show(o and o[1])} -> {_show(n and n[1])}")
        if o is not None and o[1][4] == "True" and n is not None and n[1][4] != "True":
            regressed.append(check_id)
    passing = sum(f[4] == "True" for _, f in new.values())
    print(f"{args.rev} vs tree at N = {args.mesh}: {changed} of {len(new)} rows differ; "
          f"{passing}/{len(new)} pass in the tree")
    if regressed:
        print("rows that pass at {} and fail now: {}".format(args.rev, ", ".join(regressed)))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
