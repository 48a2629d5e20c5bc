"""Build a Heun-class equation, differentiate it, and integrate back.

The derivative u = w' of a solution of a four-point second-order
equation satisfies another four-point equation that carries one extra
singular point at the accessory location q.  Every solution of the new
equation is holomorphic there (the point is apparent), and the inverse
transform removes it again, recovering the original equation exactly.
"""

from fractions import Fraction as F

from apparent import (
    HeunParams,
    deform,
    frobenius_series,
    general_heun,
    is_apparent,
    riemann_symbol,
    undeform,
)


def main():
    params = HeunParams(
        t=F(3),
        theta1=F(1, 2),
        theta2=F(1, 3),
        theta3=F(1, 5),
        theta_inf=F(1, 7),
        alpha=2 - F(1, 2) - F(1, 3) - F(1, 5) - F(1, 7),
        q=F(5),
    )
    ode = general_heun(params)
    print("input equation, coefficients P_0..P_2:")
    for k, c in enumerate(ode.coeffs):
        print(f"  P_{k} = {c.pretty()}")
    print()
    print(riemann_symbol(ode).pretty())
    print()

    res = deform(ode)
    print("after one differentiation (u = w'):")
    for k, c in enumerate(res.ode.coeffs):
        print(f"  O_{k} = {c.pretty()}")
    loc, gap = res.new_apparent[0]
    print(f"new singular point at z = {loc}, expected exponent gap {gap}")

    verdict = is_apparent(res.ode, loc)
    print(f"apparent: {verdict.is_apparent}, exponents "
          f"{[str(e) for e in sorted(verdict.exponents)]}")

    # the local series with the top exponent starts at (z - q)^2: its
    # second coefficient closes the holomorphic basis
    sol = frobenius_series(res.ode, loc, F(0), 6)
    rows = [(off, str(val)) for off, val in sol.obstructions]
    print(f"lower-branch obstruction rows: {rows} (zero value = no logarithm)")
    print()

    back = undeform(res.ode)
    print(f"inverse transform removed {[str(p) for p in back.removed_points]}")
    print(f"recovered the input exactly: {back.ode == ode}")


if __name__ == "__main__":
    main()
