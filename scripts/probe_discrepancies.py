#!/usr/bin/env python3
"""Survey the unguaranteed regime: triples where some prime of n does not
divide d.  For each, tabulate the classical automorphism count against the
size of the enforced family, and the closed-form |L| against the
fixed-point oracle, to map where (and by how much) the closed formulas
drift.  Above the oracle bound (m*n > 2000) the oracle column reads
"skipped", and only the automorphism count can show drift there.  The
summary counts |Aut| drift, |L| drift and skipped oracles separately.
"""

import argparse
import sys

from zmcenter import abscenter, aut
from zmcenter.zm import iter_valid_triples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=300, help="cap on m*n")
    args = parser.parse_args()

    header = f"{'triple':>14} {'aut formula':>12} {'aut actual':>11} {'L formula':>10} {'L oracle':>9}"
    print(header)
    print("-" * len(header))
    total = aut_drift = l_drift = skipped = 0
    for t in iter_valid_triples(args.max_order):
        if t.regime_guaranteed:
            continue
        total += 1
        counts = aut.aut_counts(t)
        actual = aut.family_size(t)
        cmp = abscenter.compare(t)
        oracle = "skipped" if cmp.oracle_order is None else cmp.oracle_order
        aut_off, l_off = counts.aut != actual, cmp.agree is False
        aut_drift += aut_off
        l_drift += l_off
        skipped += cmp.oracle_order is None
        mark = "  <-" if aut_off or l_off else ""
        print(f"{str(t):>14} {counts.aut:>12} {actual:>11} "
              f"{cmp.formula_order:>10} {oracle:>9}{mark}")
    print(f"\n{total} unguaranteed triples with mn <= {args.max_order}; "
          f"{aut_drift} with |Aut| drift, {l_drift} with |L| drift, "
          f"{skipped} oracles skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
