"""Scan the basis-dependent noncommutativity measure over the sphere.

For a Bell-diagonal state the measure depends on the measurement basis
only through the Bloch direction z of the first projector.  Sweeping z
over a great circle through two coordinate axes shows the minima pinned
at the axes, and the profile of the one-variable reduction f_hat shows
its interior maximum at one fifth of the coefficient budget.
"""

import numpy as np

from qcorr import alpha_triple, d_a_bd_closed, d_a_numeric, d_a_optimized, f_hat

C = (0.7, -0.4, 0.2)


def great_circle_sweep():
    print(f"state c = {C}")
    print(f"{'angle/pi':>9s} {'d_A(z)':>10s}")
    for frac in np.linspace(0.0, 0.5, 11):
        ang = np.pi * frac
        z = np.array([np.sin(ang), 0.0, np.cos(ang)])  # axis 3 toward axis 1
        value = d_a_bd_closed(C, z)
        print(f"{frac:9.3f} {value:10.6f}")
    best, _ = d_a_numeric(C)
    print(f"free minimum over the sphere: {best:.9f}")
    print(f"axis minimum:                 {d_a_optimized(C):.9f}")


def f_hat_profile():
    alpha = alpha_triple(C)
    total = sum(alpha)
    print()
    print(f"alpha = {tuple(round(a, 6) for a in alpha)}, total = {total:.6f}")
    print(f"{'theta/total':>12s} {'f_hat':>10s}")
    for frac in np.linspace(0.0, 1.0, 11):
        print(f"{frac:12.2f} {f_hat(frac * total, alpha):10.6f}")
    peak = f_hat(total / 5.0, alpha)
    print(f"interior peak at theta = total/5: {peak:.9f} (= sqrt(5*total) = {np.sqrt(5 * total):.9f})")


def main():
    great_circle_sweep()
    f_hat_profile()


if __name__ == "__main__":
    main()
