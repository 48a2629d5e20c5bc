"""Relaxation spectrum of a stretched polymer near the coil-stretch point.

The end-to-end distribution of a bead-spring chain in an elongational
flow obeys a Fuchsian two-point problem on (0, 1) whose first
eigenvalue nu_1 sets the relaxation time T_rel = b tau / nu_1.  The
eigenvalue parameter enters the trailing coefficient linearly, so every
trial nu places one movable apparent-looking point q(nu); at an actual
eigenvalue the two recessive local branches glue smoothly and the
Wronskian mismatch at the matching point vanishes.

Sweeping the stretching strength W from 1/4 to 9/20, toward the
transition value 1/2, makes T_rel grow: the chain takes longer and
longer to relax.  Closer to 1/2 the smallest positive eigenvalue rises
again (see the apparent.polymer docstring), so the sweep stops there.
"""

from fractions import Fraction as F

from apparent import PolymerParams, apparent_location, solve_spectrum


def main():
    b = F(100)
    print(f"b = {b} (chain length parameter), tau = 1")
    print(f"{'W':>6} {'nu_1':>14} {'T_rel':>12} {'q(nu_1)':>12}")
    for W in (F(1, 4), F(7, 20), F(9, 20)):
        p = PolymerParams(b=b, W=W)
        res = solve_spectrum(p, F(1), F(60), count=1)
        nu1 = res.eigenvalues[0]
        q = float(apparent_location(float(b), float(p.kappa), nu1))
        print(f"{str(W):>6} {nu1:>14.8f} {res.t_rel:>12.6f} {q:>12.6f}")
    print()
    print("T_rel grows from W = 1/4 to 9/20; the sweep stops short of W = 1/2")


if __name__ == "__main__":
    main()
