"""The deformed polymer equation, written out a second way.

This is the former one-step construction inside ``polymer_deformed``:
the logarithmic derivative P_2'/P_2 = 1/(z - q) substituted into the
derivative of the equation and cleared by (z - q).  ``polymer_deformed``
now calls the general ``deform``; this copy is kept only as an
independent reference for ``test_polymer.py`` and criterion 8.
"""

from apparent import RatPoly, apparent_location, make_ode, polymer_ode


def one_step_deformed(p, nu):
    q = apparent_location(p.b, p.kappa, nu)
    p0, p1, p2 = polymer_ode(p, nu).coeffs
    zq = RatPoly([-q, 1])
    return make_ode(
        [
            zq * p0,
            zq * (p1 + p0.derivative()) - p0,
            zq * (p2 + p1.derivative()) - p1,
        ]
    )
