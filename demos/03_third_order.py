"""A third-order four-point equation and its differentiated companion.

The order-3 example has exponents {0, alpha, beta} at the origin,
{0, 1, 2 + theta} at the other two finite points, and infinity
exponents tied to the parameters through their elementary symmetric
functions.  Differentiation plants an apparent point at the accessory
location on the order-3 derivative ladder {0, 1, 2 + m}: {0, 1, 3} for
the simple root here.  The inverse transform reads the trailing-root
multiplicity m = 3 - 2 off that ladder (or takes it spelled out) and
recovers the equation exactly.
"""

from fractions import Fraction as F

from apparent import (
    INFINITY,
    ThirdOrderParams,
    deform,
    indicial_exponents,
    is_apparent,
    third_order_example,
    undeform,
)


def main():
    # parameters picked so infinity carries the rational exponents
    # {1/2, 3/2, -2}: fix those, then solve the symmetric-function
    # relations for theta3, beta and kappa
    a, b, c = F(1, 2), F(3, 2), F(-2)
    e1, e2 = a + b + c, a * b + a * c + b * c
    alpha, theta2 = F(1, 4), F(1, 3)
    theta3 = (e2 + alpha * e1 + alpha * alpha) / (1 - alpha) - theta2
    p = ThirdOrderParams(
        t=F(7, 2),
        alpha=alpha,
        beta=-e1 - alpha - theta2 - theta3,
        theta2=theta2,
        theta3=theta3,
        kappa=a * b * c,
        q=F(9, 4),
    )
    ode = third_order_example(p)
    print("coefficients P_0..P_3:")
    for k, c in enumerate(ode.coeffs):
        print(f"  P_{k} = {c.pretty()}")
    print()

    exps = sorted(indicial_exponents(ode, INFINITY).exponents)
    e1 = sum(exps)
    e2 = exps[0] * exps[1] + exps[0] * exps[2] + exps[1] * exps[2]
    e3 = exps[0] * exps[1] * exps[2]
    print(f"infinity exponents: {[str(e) for e in exps]}")
    print(f"  sum          = {e1}  vs -(alpha+beta+theta2+theta3) = {-(p.alpha + p.beta + p.theta2 + p.theta3)}")
    print(f"  pair sum     = {e2}  vs alpha*beta+theta2+theta3    = {p.alpha * p.beta + p.theta2 + p.theta3}")
    print(f"  product      = {e3}  vs kappa                       = {p.kappa}")
    print()

    res = deform(ode)
    verdict = is_apparent(res.ode, p.q)
    print(f"differentiated equation at q = {p.q}: apparent={verdict.is_apparent}, "
          f"exponents {[str(e) for e in sorted(verdict.exponents)]}")

    back = undeform(res.ode)
    print(f"inverse transform recovers the input: {back.ode == ode}")


if __name__ == "__main__":
    main()
