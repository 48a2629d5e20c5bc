"""Seeded random parameter generators shared across the suite.

Thetas are drawn away from the integers so the base singular points of
generated equations never collapse to apparent ones; counting tests
rely on that.
"""

from fractions import Fraction

from apparent import (
    ConfluentHeunParams,
    HeunParams,
    MultiHeunParams,
    RatPoly,
    ThirdOrderParams,
)


def rand_frac(rng, span=6, dmax=6, exclude=()):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, dmax))
        if v not in exclude:
            return v


def rand_nonint(rng, span=6, dmax=6, exclude=()):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(2, dmax))
        if v.denominator > 1 and v not in exclude:
            return v


def heun_params(rng, q=None):
    """Random general-Heun parameters on the Fuchsian identity.

    q=None puts the accessory location off the singular set; pass an
    explicit q (0, 1 or t) to land it on a root of P_0.
    """
    t = rand_frac(rng, exclude=(0, 1))
    while True:
        thetas = [rand_nonint(rng) for _ in range(3)]
        theta_inf = rand_nonint(rng)
        alpha = 2 - sum(thetas) - theta_inf
        if alpha != 0:
            break
    if q is None:
        q = rand_frac(rng, exclude=(Fraction(0), Fraction(1), t))
    return HeunParams(
        t=t,
        theta1=thetas[0],
        theta2=thetas[1],
        theta3=thetas[2],
        theta_inf=theta_inf,
        alpha=alpha,
        q=q,
    )


def multi_params(rng, m, repeated=0):
    """Random m-point parameters; repeated > 0 pins one accessory root
    of that multiplicity (needs repeated <= m - 2), rest distinct."""
    zs = []
    while len(zs) < m:
        zs.append(rand_frac(rng, exclude=zs))
    while True:
        thetas = [rand_nonint(rng) for _ in range(m)]
        theta_inf = rand_nonint(rng)
        alpha = (m - 1) - sum(thetas) - theta_inf
        if alpha != 0:
            break
    qs = []
    if repeated:
        qs = [rand_frac(rng, exclude=zs)] * repeated
    while len(qs) < m - 2:
        qs.append(rand_frac(rng, exclude=list(zs) + qs))
    return MultiHeunParams(
        zs=tuple(zs), thetas=tuple(thetas), theta_inf=theta_inf, alpha=alpha, qs=tuple(qs)
    )


def confluent_params(rng):
    while True:
        p0 = RatPoly([rand_frac(rng) for _ in range(rng.randint(1, 3))])
        if not p0.is_zero:
            break
    p1 = RatPoly([rand_frac(rng), rand_frac(rng), rand_frac(rng, exclude=(0,))])
    alpha = rand_frac(rng, exclude=(0,))
    q = rand_frac(rng)
    while p0(q) == 0:
        q = rand_frac(rng)
    return ConfluentHeunParams(p0=p0, p1=p1, alpha=alpha, q=q)


def planted_roots_poly(rng, degree, lead_bits):
    """(z - 3/7)(z + 5/2)(z - 11)(z - 1/3) f with deg f = degree.

    f has its lower coefficients drawn from [-99, 99] and an odd leading
    coefficient of lead_bits bits, so the root search meets a leading
    coefficient far larger than the rest of the input.
    """
    f = RatPoly([rng.randint(-99, 99) for _ in range(degree)] + [rng.getrandbits(lead_bits) | 1])
    for r in (Fraction(3, 7), Fraction(-5, 2), Fraction(11), Fraction(1, 3)):
        f = f * RatPoly([-r, 1])
    return f


def third_params(rng):
    t = rand_frac(rng, exclude=(0, 1))
    return ThirdOrderParams(
        t=t,
        alpha=rand_nonint(rng),
        beta=rand_nonint(rng),
        theta2=rand_nonint(rng),
        theta3=rand_nonint(rng),
        kappa=rand_frac(rng, exclude=(0,)),
        q=rand_frac(rng, exclude=(0, 1, t)),
    )


def backward_third_params(rng):
    """Third-order parameters built from chosen infinity exponents.

    Picks nonzero rational (a, b, c), alpha != 1 and theta2, then
    solves the elementary-symmetric relations for theta3, beta, kappa.
    Returns (params, (a, b, c)).
    """
    a = rand_frac(rng, exclude=(0,))
    b = rand_frac(rng, exclude=(0,))
    c = rand_frac(rng, exclude=(0,))
    e1 = a + b + c
    e2 = a * b + a * c + b * c
    alpha = rand_frac(rng, exclude=(1,))
    theta2 = rand_frac(rng)
    theta3 = (e2 + alpha * e1 + alpha * alpha) / (1 - alpha) - theta2
    beta = -e1 - alpha - theta2 - theta3
    t = rand_frac(rng, exclude=(0, 1))
    q = rand_frac(rng, exclude=(0, 1, t))
    params = ThirdOrderParams(
        t=t, alpha=alpha, beta=beta, theta2=theta2, theta3=theta3, kappa=a * b * c, q=q
    )
    return params, (a, b, c)


# theta1 = 2 makes the origin an integer-gap point, but a logarithm
# blocks apparency, so undeform there has no antecedent
_REST = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
LOG_GAP_PARAMS = HeunParams(
    t=Fraction(3), theta1=Fraction(2), theta2=_REST[0], theta3=_REST[1],
    theta_inf=_REST[2], alpha=2 - Fraction(2) - sum(_REST), q=Fraction(5),
)

# the general Heun of the README quickstart; deform makes its accessory
# root 5 apparent
README_HEUN_PARAMS = HeunParams(
    t=Fraction(3), theta1=Fraction(1, 2), theta2=Fraction(1, 3), theta3=Fraction(1, 5),
    theta_inf=Fraction(1, 7), alpha=Fraction(173, 210), q=Fraction(5),
)

# hand-picked so the second-stage trailing polynomial splits rationally;
# the first stage's gap-2 point dies in the second stage as content
TWO_STAGE_PARAMS = HeunParams(
    t=Fraction(4, 3), theta1=Fraction(1), theta2=Fraction(1), theta3=Fraction(-1),
    theta_inf=Fraction(-2, 3), alpha=Fraction(5, 3), q=Fraction(-1, 3),
)
