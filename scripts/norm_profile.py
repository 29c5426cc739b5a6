#!/usr/bin/env python3
"""Profile the displacement-norm estimator on a one-parameter map family.

Prints the sampled lower bound of the norm for shears of growing strength
together with the analytic witness floor (the shear strength itself), and
optionally writes `displacement.norm_table` of the strongest shear to CSV:
a header, one row per random draw, then the `subspace-max` row.  Exits 1
when a lower bound falls below its floor minus FLOOR_SLACK: a shear is
normed on its one stored grid line, so this checks that line route
against the analytic floor.

    PYTHONPATH=src python scripts/norm_profile.py --mesh 32 --table-out t.csv
"""

import argparse
import sys
from pathlib import Path

from fluxlab import catalog
from fluxlab.displacement import UnitSphereSampler, norm_table, psi_norm
from fluxlab.mesh import GridMesh

#: How far below its witness floor eps a shear's lower bound may read.
FLOOR_SLACK = 1e-6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh", type=int, default=128)
    parser.add_argument("--max-mode", type=int, default=8)
    parser.add_argument("--count", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--table-out", default=None,
                        help="CSV path for the strongest shear's sample table")
    args = parser.parse_args()

    mesh = GridMesh(N=args.mesh)
    sampler = UnitSphereSampler(mesh, max_mode=args.max_mode,
                                count=args.count, seed=args.seed)
    print(f"{'eps':>8} {'norm lower bound':>18} {'witness floor':>14}")
    below = []
    for eps in (0.02, 0.05, 0.1, 0.15, 0.2):
        psi = catalog.shear(mesh, eps)
        bound = psi_norm(psi, sampler).norm_lower_bound
        print(f"{eps:8.3f} {bound:18.6f} {eps:14.3f}")
        if bound < eps - FLOOR_SLACK:
            below.append(eps)

    if args.table_out:
        lines = ["sample,value,point_x,point_y"]
        for r in norm_table(psi, sampler):
            lines.append(f"{r['sample']},{r['value']!r},"
                         f"{r['point'][0]!r},{r['point'][1]!r}")
        Path(args.table_out).write_text("\n".join(lines) + "\n")
        print(f"sample table written to {args.table_out}")
    if below:
        print(f"norm lower bound below the witness floor at eps = {below}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
