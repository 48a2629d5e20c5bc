"""Finite-difference oracle for the polymer boundary problem.

Independent of the series solver: discretizes the self-adjoint form of
the equation in the variable x = sqrt(z).  With
p(x) = x^2 (1-x^2)^(b+1) exp(-kappa x^2) the problem reads

    -(p v')'/(4p) + [kappa - 2 b kappa x^2/(1-x^2)] v = nu v

for v on (0, 1), and the substitution v = w takes eigenfunctions of the
original z-form problem to eigenfunctions here.  The flux form keeps
the matrix symmetric tridiagonal at any cell Peclet number, and the
weights are assembled in log space because (1-x^2)^(b+1) underflows
long before the wall for b of interest.

The interval is truncated at xcut < 1: the weight p collapses so fast
approaching the wall that the tail carries no eigenfunction mass, while
the potential term grows like 1/(1-x^2) and would otherwise inflate the
matrix norm and with it the absolute error floor of the eigensolver.

Dirichlet rows at both ends select exactly the recessive local
branches: near x = 0 the kept solution has v ~ x (times the weight
normalization) while the discarded branch tends to a nonzero constant.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


def fd_smallest_positive(b, W, n_cells, xcut):
    kappa = b * W
    h = xcut / n_cells
    x = np.arange(1, n_cells) * h

    def logp(t):
        return 2.0 * np.log(t) + (b + 1.0) * np.log1p(-t * t) - kappa * t * t

    lp_i = logp(x)
    lp_minus = logp(x - h / 2)
    lp_plus = logp(x + h / 2)
    diag = (np.exp(lp_minus - lp_i) + np.exp(lp_plus - lp_i)) / (4.0 * h * h)
    diag = diag + kappa - 2.0 * b * kappa * x * x / (1.0 - x * x)
    off = -np.exp(lp_plus[:-1] - 0.5 * (lp_i[:-1] + lp_i[1:])) / (4.0 * h * h)
    vals = eigh_tridiagonal(diag, off, select="v", select_range=(1e-8, 1e3))[0]
    return vals[0]


def oracle_nu1(b, W, n_cells=12800, xcut=0.95):
    """Smallest positive eigenvalue, extrapolated from n, 2n and 4n cells.

    The discretization error is A h + B h^2 + ...: at the three
    criterion-9 points (b = 100; W = 1/4, 7/20, 9/20) the three-grid
    order log2((f_n - f_2n) / (f_2n - f_4n)) reads 1.29, 1.62 and 1.80
    at n = 12800 and 1.15, 1.43 and 1.65 at n = 25600, falling to the
    first order while a large second-order term fades.  So one
    second-order step (4 f_2n - f_n) / 3 leaves an O(h) error of up to
    1.7e-4, and a single step at the measured order up to 5e-5; the
    Richardson steps for orders 1 and then 2 remove both terms, leaving
    under 5e-8 there (1e-7 between n = 6400 and 12800).  A ratio of
    differences outside (2, 4), an order outside (1, 2), breaks that
    premise and raises.

    xcut has no effect at a fixed cell width: for xcut from 0.9 to 0.99
    at h = 0.95 / 12800 the eigenvalue is the same float.
    """
    f1, f2, f4 = (fd_smallest_positive(b, W, k * n_cells, xcut) for k in (1, 2, 4))
    ratio = (f1 - f2) / (f2 - f4)
    if not 2.0 < ratio < 4.0:
        raise AssertionError(f"three-grid order {np.log2(ratio):.3f} is outside (1, 2)")
    return (8.0 * f4 - 6.0 * f2 + f1) / 3.0
