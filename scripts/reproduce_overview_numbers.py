#!/usr/bin/env python3
"""Print the paper's headline GEO/LEO NTN numbers next to ours: each row
of ``ntnsim.claims.CLAIMS`` with its error (ours minus the paper's, in
percent for a relative tolerance) and tolerance.  A row without a paper
value is not checked.  Exits 1, after the table, when a checked row lies
outside its tolerance.
"""

import sys

from ntnsim.claims import CLAIMS


def main():
    outside = []
    print(f"{'claim':44}{'unit':>5}{'paper':>9}{'ours':>10}{'error':>9}{'tolerance':>10}")
    for claim in CLAIMS:
        ours = claim.compute()
        line = f"{claim.name:44}{claim.unit:>5}"
        if claim.paper is None:
            print(f"{line}{'-':>9}{ours:10.3f}")
            continue
        err, tol = claim.error(ours), claim.tolerance
        spread = f"{err:+9.2%}{tol:10.1%}" if claim.relative else f"{err:+9.4f}{tol:10.4f}"
        print(f"{line}{claim.paper:9.3f}{ours:10.3f}{spread}")
        if abs(err) > tol:
            outside.append(claim.name)
    if outside:
        print(f"outside tolerance: {', '.join(outside)}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
