"""fluxlab benchmark: one seeded workload, measured from outside the package.

    python3 perfbench/run.py --workload {battery,norm-sweep,flow-paths}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every process this script starts runs
one at a time, so the load comes from one process with at most as many
threads as its BLAS uses (nproc by default).

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of one unit of the workload, from its
               first call into fluxlab to its verified result, scaled
               to the reference host speed (see measure())
  setup_s      median time from process start to ready-to-run (imports,
               config parsing, mesh and sampler), over every process,
               scaled like wall_s
  peak_rss_mb  peak resident memory of a process that ran the workload
  pass_ratio   verified checks passed / checks attempted
--trace 1 runs the same units twice, untraced and traced, and prints the
per-layer metrics of the traced process (see perfbench/README.md).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details, the environment
record and the traced spans go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("battery", "norm-sweep", "flow-paths")

#: every run ends within this many seconds of its start
HARD_LIMIT_S = 170.0
#: seconds one worker process takes to run one unit, set-up included, on
#: the reference machine (see README.md).  An untraced run starts
#: round(--seconds / this) of them, at least two, so that every run with
#: the same --seconds does the same work, whatever the speed of the host.
NOMINAL_PROCESS_S = {"battery": 16.0, "norm-sweep": 3.3, "flow-paths": 5.0}
#: worker.host_probe() on the reference machine in a quiet period; unit
#: times are reported in seconds of a host that runs the probe this fast
HOST_PROBE_REF_S = 0.25
#: units each traced run measures, traced and untraced
TRACED_UNITS = {"battery": 1, "norm-sweep": 5, "flow-paths": 2}


class BenchError(RuntimeError):
    pass


class Worker:
    """Outcome of one worker process."""

    def __init__(self, setup_s, result, rusage):
        self.setup_s = setup_s
        self.result = result
        self.rusage = rusage

    @property
    def records(self):
        return self.result["units"] + self.result["commutators"]


def run_worker(args: list[str], deadline: float) -> Worker:
    """Start a worker, time it to its `ready` line, collect its JSON line
    and its resource usage; kill it if it outlives `deadline`."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    fd = proc.stdout.fileno()
    buf, lines, ready_at = b"", [], None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"worker {' '.join(args)} ran past the time limit")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if ready_at is None and line == b"ready":
                    ready_at = time.perf_counter()
                else:
                    lines.append(line)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        proc.stdout.close()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready_at is None or not lines:
        raise BenchError(f"worker {' '.join(args)} failed with exit code "
                         f"{proc.returncode}")
    return Worker(ready_at - t0, json.loads(lines[-1]), rusage)


def _check_tree():
    missing = [p for p in ("src/fluxlab/__init__.py", "configs/default.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a fluxlab checkout: missing {', '.join(missing)}")


def _verdict(workers: list[Worker]) -> tuple[int, list[str], list[str]]:
    """Checks attempted, the failures and the expected-failure reports,
    over every record of every worker, plus one determinism check per pair
    of runs of the same unit.  Record -2 is the known-failing commutator
    pair: its gate is reported whichever way it goes, and not counted."""
    attempted, failed, expected = 0, [], []
    digests: dict[int, str] = {}
    for w in workers:
        for rec in w.records:
            index = rec["index"]
            for name, ok, value in rec["checks"]:
                if index == -2:
                    expected.append(f"{name} (value {value!r}): "
                                    + ("expected failure" if not ok
                                       else "passed, expected to fail"))
                    continue
                attempted += 1
                if not ok:
                    failed.append(f"unit {index}: {name} (value {value!r})")
            if index not in digests:
                digests[index] = rec["digest"]
                continue
            attempted += 1
            if digests[index] != rec["digest"]:
                failed.append(f"unit {index}: outputs differ between "
                              "two runs of the same inputs")
    return attempted, failed, expected


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Untraced run: one process per unit, then a repeat of unit 0 in a
    fresh process for the determinism check.

    The host's speed drifts: work of a fixed size takes 40 % longer, and
    more, for minutes at a time, and a fixed numpy/scipy kernel mix slows
    down with it.  So each unit's wall time is scaled by HOST_PROBE_REF_S / the time of
    the kernel mix probed around it in its own process, and wall_s is the
    median of the scaled times.  Each set-up time is scaled the same way,
    by the probe that follows it.
    """
    base = ["--workload", workload, "--seed", str(seed)]
    n = max(2, round(seconds / NOMINAL_PROCESS_S[workload]))
    # every battery uses the run seed, as `fluxlab run --seed` does, so
    # each repeats the first one
    indices = [0] * n if workload == "battery" else list(range(n)) + [0]
    workers = [run_worker(base + ["--units", str(i)], deadline) for i in indices]
    units = [u for w in workers for u in w.result["units"]]
    scaled = [u["wall_s"] * HOST_PROBE_REF_S / u["probe_s"] for u in units]
    setups = [w.setup_s * HOST_PROBE_REF_S / w.result["probes_s"][0] for w in workers]
    attempted, failed, expected = _verdict(workers)
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(w.rusage.ru_maxrss for w in workers) / 1024.0, "MB"),
        "pass_ratio": (1.0 - len(failed) / attempted, "ratio"),
    }
    detail = {"environment": workers[0].result["environment"],
              "attempted": attempted, "failed": failed, "expected": expected,
              "unit_walls_s": [u["wall_s"] for u in units],
              "unit_probes_s": [u["probe_s"] for u in units],
              "unit_walls_scaled_s": scaled,
              "setup_samples_s": [w.setup_s for w in workers],
              "setup_samples_scaled_s": setups}
    return _result(metrics, attempted, failed), detail


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    """Traced run: the same units untraced, then traced; per-layer metrics
    come from the traced process, the overhead from the difference.  For
    flow-paths both processes also make the commutator pairs, so their
    outputs get the determinism check too."""
    base = ["--workload", workload, "--seed", str(seed), "--units"]
    base += [str(i) for i in range(TRACED_UNITS[workload])]
    if workload == "flow-paths":
        base.append("--commutators")
    plain = run_worker(base, deadline)
    traced = run_worker(base + ["--trace"], deadline)
    attempted, failed, expected = _verdict([plain, traced])
    walls = [u["wall_s"] for u in traced.result["units"]]
    window = sum(r["wall_s"] for r in traced.records)
    metrics = {name: (value, _unit(name)) for name, value in traced.result["layers"].items()}
    ru = traced.rusage
    metrics.update({
        "process.cpu_s": (ru.ru_utime + ru.ru_stime, "s"),
        "process.minor_faults": (ru.ru_minflt, "count"),
        "trace.window_s": (window, "s"),
        "trace.overhead_s": (statistics.median(walls)
                             - statistics.median(u["wall_s"] for u in plain.result["units"]),
                             "s"),
    })
    detail = {"environment": plain.result["environment"], "attempted": attempted,
              "failed": failed, "expected": expected}
    return _result(metrics, attempted, failed), detail


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _result(metrics: dict, attempted: int, failed: list[str]) -> dict:
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    args.seed %= 2 ** 32  # numpy and fluxlab take non-negative seeds only
    deadline = time.perf_counter() + HARD_LIMIT_S
    try:
        _check_tree()
        OUT.mkdir(exist_ok=True)
        if args.trace:
            result, detail = measure_traced(args.workload, args.seed, deadline)
        else:
            result, detail = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, result=result), indent=1))
    print("environment: " + json.dumps(detail["environment"]))
    for failure in detail["failed"]:
        print(f"FAILED {failure}")
    for report in detail["expected"]:
        print(f"KNOWN-FAILING commutator pair: {report}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
