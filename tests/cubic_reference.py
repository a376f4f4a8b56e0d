"""The twelve full numerator coefficients of both triple compositions, the
reference that ``braid.cubic_braid_check`` is tested against.

Common denominator (x-y)^2 (x-z) (y-z)^2: the pi varpi pi numerators are
multiplied by (y-z) and the varpi pi varpi ones by (x-y).  The library
decides each identity through a factored difference instead; this module
multiplies everything out.
"""

from braidops.braid import COEFF_NAMES, CubicReport
from braidops.multipoly import MultiPoly, SlotPoly, instantiate
from braidops.pddo import PDDO


def full_numerators(pi: PDDO, varpi: PDDO) -> tuple[dict, dict]:
    n = 3

    def at(p: SlotPoly, i: int, j: int) -> MultiPoly:
        return instantiate(p, i, j, n)

    x = MultiPoly.variable(n, 1)
    y = MultiPoly.variable(n, 2)
    z = MultiPoly.variable(n, 3)
    xy, xz, yz = x - y, x - z, y - z

    T, Q = pi.T, pi.Q0
    Tt, Qt = varpi.T, varpi.Q0
    t_xy, t_yx, t_xz, t_yz = at(T, 1, 2), at(T, 2, 1), at(T, 1, 3), at(T, 2, 3)
    q_xy, q_yx, q_xz, q_yz = at(Q, 1, 2), at(Q, 2, 1), at(Q, 1, 3), at(Q, 2, 3)
    tt_xy, tt_xz, tt_yz, tt_zy = at(Tt, 1, 2), at(Tt, 1, 3), at(Tt, 2, 3), at(Tt, 3, 2)
    qt_xy, qt_xz, qt_yz, qt_zy = at(Qt, 1, 2), at(Qt, 1, 3), at(Qt, 2, 3), at(Qt, 3, 2)

    left = {
        "f": yz * (t_xy * t_xy * tt_yz * xz - tt_xz * q_xy * q_yx * yz),
        "sf": -yz * q_xy * (t_xy * tt_yz * xz - t_yx * tt_xz * yz),
        "sigma_f": -xy * yz * t_xy * qt_yz * t_xz,
        "sigma_s_f": xy * yz * t_xy * qt_yz * q_xz,
        "s_sigma_f": xy * yz * q_xy * qt_xz * t_yz,
        "s_sigma_s_f": -xy * yz * q_xy * qt_xz * q_yz,
    }
    right = {
        "f": xy * (t_xy * tt_yz * tt_yz * xz - t_xz * qt_yz * qt_zy * xy),
        "sigma_f": -xy * qt_yz * (t_xy * tt_yz * xz - tt_zy * t_xz * xy),
        "sf": -xy * yz * tt_yz * q_xy * tt_xz,
        "s_sigma_f": xy * yz * tt_yz * q_xy * qt_xz,
        "sigma_s_f": xy * yz * qt_yz * q_xz * tt_xy,
        "s_sigma_s_f": -xy * yz * qt_yz * q_xz * qt_xy,  # coefficient of sigma s sigma f
    }
    return left, right


def full_report(pi: PDDO, varpi: PDDO) -> CubicReport:
    """The cubic report computed from the full numerators."""
    left, right = full_numerators(pi, varpi)
    flags = {}
    failure = None
    for name in COEFF_NAMES:
        diff = left[name] - right[name]
        flags[name] = diff.is_zero()
        if failure is None and not flags[name]:
            failure = (name, diff)
    return CubicReport(flags=flags, failure=failure)
