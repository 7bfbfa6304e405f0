"""The benchmark's own determinant oracle: the Cauchy double alternant.

M[i,l] = 1/(x_l - y_i) with x_l = (2l)^2 and y_i = t^2 (2i-1)^2, so

    det M = prod_{i<j} (x_j - x_i)(y_i - y_j) / prod_{i,l} (x_l - y_i)

(the textbook form has (-1)^s over prod (y_i - x_l); the s^2 sign flips of
the denominator cancel it).  It shares no code with the package: numeric t
is handled in integers, symbolic t as integer coefficient lists in u = t^2,
and a package value is compared by cross-multiplying its public numerator
and denominator coefficients.
"""

from __future__ import annotations

from fractions import Fraction


def cauchy_det(s: int, t: Fraction) -> Fraction:
    """Determinant at a rational t = p/q, computed in integers.

    Scaling x and y by q^2 multiplies every entry by q^2, so
    det M = q^(2s) * det[1/(X_l - Y_i)] with integer X_l, Y_i.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    xs = [4 * l * l * q * q for l in range(1, s + 1)]
    ys = [p * p * (2 * i - 1) ** 2 for i in range(1, s + 1)]
    num = q ** (2 * s)
    for i in range(s):
        for j in range(i + 1, s):
            num *= (xs[j] - xs[i]) * (ys[i] - ys[j])
    den = 1
    for x in xs:
        for y in ys:
            den *= x - y
    return Fraction(num, den)


def _mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def cauchy_det_symbolic(s: int) -> tuple[list[int], list[int]]:
    """(numerator, denominator) coefficient lists in t, lowest power first."""
    xs = [4 * l * l for l in range(1, s + 1)]
    odd = [(2 * i - 1) ** 2 for i in range(1, s + 1)]
    scale = 1
    for i in range(s):
        for j in range(i + 1, s):
            scale *= (xs[j] - xs[i]) * (odd[i] - odd[j])
    # numerator: scale * u^(s(s-1)/2); denominator: prod (x_l - odd_i u)
    den_u = [1]
    for x in xs:
        for o in odd:
            den_u = _mul(den_u, [x, -o])
    num_t = [0] * (s * (s - 1)) + [scale]
    den_t = [0] * (2 * len(den_u) - 1)
    den_t[::2] = den_u
    return num_t, den_t


def matches_symbolic(value, num_t: list[int], den_t: list[int]) -> bool:
    """True when the rational function ``value`` equals num_t/den_t."""
    left = _mul(list(value.num.coeffs) or [0], den_t)
    right = _mul(num_t, list(value.den.coeffs))
    width = max(len(left), len(right))
    return left + [0] * (width - len(left)) == right + [0] * (width - len(right))
