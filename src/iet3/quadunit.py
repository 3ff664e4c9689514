"""Scaling units: Pell solutions and powers fixing residue classes mod Z[e].

The unit gamma = X + BY + 2AY*e, built from the fundamental solution of
X^2 - D*Y^2 = 1 with D = B^2 - 4AC, satisfies gamma*gamma' = 1 and maps
Z[e] onto itself.  The smallest power s of Lambda0 = max(gamma, 1/gamma)
that fixes the residue classes of the window endpoints c and c+l (mod Z[e])
gives the scaling factor Lambda0^s used by the synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import InvalidUnit, PerfectSquare
from .qfield import FieldDesc, QuadNum, class_of

__all__ = ["PellSolution", "ScalingUnit", "solve_pell", "lemma_unit", "class_fixing_power",
           "integer_matrix", "contraction"]


def integer_matrix(x: QuadNum):
    """Integer matrix of multiplication by x on Z[e] in basis {1, e}.

    Its columns are the coordinates of x * 1 and x * e, so it maps the
    coordinates of y to those of x * y.  Raises InvalidUnit when x does
    not map Z[e] into itself.
    """
    xe = x * x.field.eps()
    if not (x.in_z_eps() and xe.in_z_eps()):
        raise InvalidUnit(f"{x} does not preserve Z[e]")
    return [[x.p, xe.p], [x.q, xe.q]]


@dataclass(frozen=True)
class PellSolution:
    X: int
    Y: int
    D: int


@dataclass(frozen=True)
class ScalingUnit:
    """Unit Lambda = gamma^s with Lambda > 1, Lambda' in (0, 1), Lambda*Lambda' = 1."""

    lam: QuadNum
    s: int
    gamma: QuadNum

    @property
    def lam_conj(self) -> QuadNum:
        return self.lam.conjugate()

    def mult_matrix(self):
        """Integer matrix of multiplication by Lambda on Z[e] in basis {1, e}."""
        return integer_matrix(self.lam)

    def is_valid(self) -> bool:
        lam, conj = self.lam, self.lam_conj
        if not (lam > 1 and conj.sign() > 0 and conj < 1):
            return False
        if lam * conj != lam.field.one():
            return False
        m = self.mult_matrix()
        return abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1


def solve_pell(D: int) -> PellSolution:
    """Fundamental solution of X^2 - D*Y^2 = 1 via the continued fraction of sqrt(D).

    Convergents p/q of the periodic expansion are scanned until
    p^2 - D q^2 = 1; the first hit is the smallest solution.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    a0 = math.isqrt(D)
    if a0 * a0 == D:
        raise PerfectSquare(f"{D} is a perfect square")
    # standard recurrence for the continued fraction of sqrt(D)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - D * q * q != 1:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return PellSolution(p, q, D)


@cache  # synthesis and its nested induction both need it
def lemma_unit(field: FieldDesc) -> QuadNum:
    """Unit Lambda0 > 1 with Lambda0 * Lambda0' = 1 and Lambda0 Z[e] = Z[e]."""
    pell = solve_pell(field.disc)
    gamma = field.num(pell.X + field.B * pell.Y, 2 * field.A * pell.Y)
    if gamma.sign() < 0:
        gamma = -gamma
    assert gamma * gamma.conjugate() == field.one()
    return gamma if gamma > 1 else gamma.inverse()


@cache  # every orbit coder and Sturmian word reads through it
def contraction(field: FieldDesc):
    """Rows of the integer matrix of Lambda0' = 1/Lambda0, in (0, 1)."""
    return tuple(map(tuple, integer_matrix(lemma_unit(field).conjugate())))


def class_fixing_power(lambda0: QuadNum, q: int, anchors) -> int:
    """Smallest power s >= 1 of lambda0 whose conjugate fixes each anchor's
    residue class mod Z[e].

    The conjugate multiplies (1/q)Z[e] into itself, so each anchor's class
    orbit is a cycle of length <= q^2 and s is the lcm of the cycle lengths.
    The orbit runs on the classes (i, j) of (i + j*e)/q, which the integer
    matrix of the conjugate maps to its product with (i, j), mod q.  No
    power of lambda0 is built.  Raises InvalidUnit when lambda0 is not a
    unit > 1 with conjugate in (0, 1).
    """
    (m00, m01), (m10, m11) = integer_matrix(lambda0.conjugate())
    s = 1
    for anchor in anchors:
        start = i, j = class_of(anchor, q)
        period = 0
        while True:
            i, j = (m00 * i + m01 * j) % q, (m10 * i + m11 * j) % q
            period += 1
            if (i, j) == start:
                break
            if period >= q * q:
                raise InvalidUnit(f"class orbit of {anchor} longer than q^2 = {q * q}; "
                                  f"{lambda0} is not a unit")
        s = s * period // math.gcd(s, period)
    if not ScalingUnit(lambda0, 1, lambda0).is_valid():
        raise InvalidUnit(f"{lambda0} is not a unit > 1 with conjugate in (0, 1)")
    return s
