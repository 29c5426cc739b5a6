"""One benchmark process: set up, say `ready`, run units, report as JSON.

    python3 perfbench/worker.py --workload NAME --seed S --units I [J ...]
        [--commutators] [--trace]

Set-up is everything before the `ready` line: interpreter start, imports,
config parsing, and building the mesh and sampler.  The parent times it
from its side.  Then the worker runs the listed units in order and, with
`--commutators` (flow-paths only), the run's two commutator pairs.
Untraced, it also times a fixed kernel mix before the first unit, after
each unit, and between the suites of a battery (`host_probe`).  The
checkout is the parent of this file's directory; outputs go to its
`.perfbench-out/`.  The last line of the output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _import_fluxlab(root: Path):
    """Import fluxlab from the checkout's own source tree, never from an
    installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fluxlab
    where = Path(fluxlab.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"fluxlab imported from {where}, not from {src}")
    return fluxlab


def environment(root: Path) -> dict:
    """Machine and library record for the run's report."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "revision": _revision(root),
    }


def _blas_threads():
    """Thread count of the BLAS numpy loaded, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _revision(root: Path) -> dict:
    """The git commit when the checkout has one, and always a digest of the
    package source, since a benchmark checkout need not be a repository."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((root / "src" / "fluxlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    out = {"source_sha256": h.hexdigest()[:16], "git": None}
    if (root / ".git").exists():
        try:
            out["git"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return out


def host_probe() -> float:
    """Seconds a fixed kernel mix takes in this process: cubic spline
    evaluations and batched FFTs on fixed arrays, the two kernels the
    workloads spend most of their time in.  It calls numpy and scipy only,
    never fluxlab, so it measures the speed of the host, not of the
    program."""
    import numpy as np
    from scipy.ndimage import map_coordinates

    rng = np.random.default_rng(0)
    field = rng.standard_normal((128, 128))
    points = rng.uniform(0.0, 128.0, (2, 16 * 128 * 128))
    t0 = time.perf_counter()
    for _ in range(8):
        map_coordinates(field, points, order=3, mode="grid-wrap")
    for _ in range(16):
        spec = np.fft.rfft2(np.broadcast_to(field, (16, 128, 128)))
        np.fft.irfft2(spec, s=field.shape)
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--units", type=int, nargs="+", required=True)
    p.add_argument("--commutators", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    _import_fluxlab(ROOT)
    import workloads

    ctx = workloads.Context(ROOT, args.seed, OUT / f"reports-{os.getpid()}")
    print("ready", flush=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(f"{args.workload}:{args.seed}")
        spans.install(tracer)

    probes = []
    paused = [0.0]

    def checkpoint():
        t0 = time.perf_counter()
        probes.append(host_probe())
        paused[0] += time.perf_counter() - t0

    def run(index, fn):
        if tracer is not None:
            tracer.unit = index
        paused_before = paused[0]
        t0 = time.perf_counter()
        res = fn()
        # probes taken within the unit are not part of its time
        wall = time.perf_counter() - t0 - (paused[0] - paused_before)
        return {"index": index, "wall_s": wall, "digest": res.digest(),
                "checks": res.checks}

    unit_fn = workloads.WORKLOADS[args.workload]
    result = {"environment": environment(ROOT), "units": [], "commutators": []}
    if tracer is None:
        ctx.checkpoint = checkpoint
        checkpoint()
    for index in args.units:
        first = len(probes) - 1
        rec = run(index, lambda: unit_fn(ctx, index))
        if tracer is None:
            # the host's speed drifts within seconds, so each unit gets the
            # mean of the probes just before, within and just after it
            checkpoint()
            rec["probe_s"] = statistics.fmean(probes[first:])
        result["units"].append(rec)
    result["probes_s"] = probes
    if args.commutators:
        result["commutators"] = [
            run(-1, lambda: workloads.commutator_unit(ctx)),
            run(-2, lambda: workloads.commutator_unit(
                ctx, workloads.KNOWN_FAILING_COMMUTATOR))]
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json")
        result["layers"] = spans.layer_metrics(tracer, workloads.BATTERY_SUITES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
