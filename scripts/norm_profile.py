#!/usr/bin/env python3
"""Profile the displacement-norm estimator on a one-parameter map family.

Prints the sampled lower bound of the norm for shears of growing strength
together with the analytic witness floor (the shear strength itself), and
optionally dumps the per-sample table of the last report to CSV.
"""

import argparse
import sys

from fluxlab import catalog
from fluxlab.displacement import UnitSphereSampler, psi_norm
from fluxlab.mesh import GridMesh


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh", type=int, default=128)
    parser.add_argument("--max-mode", type=int, default=8)
    parser.add_argument("--count", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--table-out", default=None,
                        help="CSV path for the last report's sample table")
    args = parser.parse_args()

    mesh = GridMesh(N=args.mesh)
    sampler = UnitSphereSampler(mesh, max_mode=args.max_mode,
                                count=args.count, seed=args.seed)
    report = None
    print(f"{'eps':>8} {'norm lower bound':>18} {'witness floor':>14}")
    for eps in (0.02, 0.05, 0.1, 0.15, 0.2):
        report = psi_norm(catalog.shear(mesh, eps), sampler)
        print(f"{eps:8.3f} {report.norm_lower_bound:18.6f} {eps:14.3f}")

    if args.table_out and report is not None:
        print(f"sample table written to {report.write_table(args.table_out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
