"""Closed forms against their numeric routes on a random sample.

Every closed-form quantity in the package has an independent search
route: classical correlations via a grid plus pattern-search refinement
over measurement directions, discord via the post-measurement mutual
information, and the noncommutativity minimum via a search over Bloch
directions.  This prints the worst disagreement over a seeded sample.
Same checks as `qcorr oracle`, driven through the library API.
"""

import time

import numpy as np

from qcorr import (
    bd_matrix,
    classical_correlations_bd,
    classical_correlations_numeric,
    d_a_numeric,
    d_a_optimized,
    discord,
    mutual_information_bd,
    sample_bd,
)

N = 50
SEED = 42


def main():
    states = sample_bd(N, SEED)
    gaps = {"J": 0.0, "D": 0.0, "D route": 0.0, "d_A": 0.0}
    start = time.perf_counter()
    for bd in states:
        c = bd.coeffs
        rho = bd_matrix(c)
        j_closed, _ = classical_correlations_bd(c)
        j_num, _ = classical_correlations_numeric(rho)
        gaps["J"] = max(gaps["J"], abs(j_closed - j_num))
        d_closed = discord(c)
        gaps["D"] = max(gaps["D"], abs(d_closed - (mutual_information_bd(c) - j_num)))
        gaps["D route"] = max(gaps["D route"], abs(d_closed - discord(rho, method="via_mi")))
        da_num, _ = d_a_numeric(c)
        gaps["d_A"] = max(gaps["d_A"], abs(d_a_optimized(c) - da_num))
    elapsed = time.perf_counter() - start

    print(f"{N} random states, seed {SEED}, {elapsed:.1f}s")
    for name, gap in gaps.items():
        print(f"  max |closed - numeric| for {name:8s} = {gap:.3e}")
    worst = max(gaps.values())
    print("all routes agree" if worst < 1e-5 else "DISAGREEMENT above 1e-5")


if __name__ == "__main__":
    main()
