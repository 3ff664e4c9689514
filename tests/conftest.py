"""Shared fixtures: the fully worked example and the cross-field corpus.

The corpus spans three real quadratic fields and, within each, a slope
with negative conjugate, a slope with conjugate above 1 (the reversal
case), and a slope whose conjugate stays inside (0,1) (not a Sturm
number, hence never invariant).  Interval lengths and origins run over a
small exact grid chosen so that every invariant spec has a feasible
scaling unit.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from iet3 import IetSpec, make_field, make_spec, non_degenerate, parse_quadnum

# (A, B, C, branch) and a label for each slope; three per field
FIELD_SLOPES = [
    ("sqrt2-neg", (1, 2, -1, 1)),     # eps = sqrt2 - 1,      eps' < 0
    ("sqrt2-rev", (1, -4, 2, -1)),    # eps = 2 - sqrt2,      eps' > 1
    ("sqrt2-nonsturm", (8, -8, 1, -1)),  # eps = (2-sqrt2)/4, eps' in (0,1)
    ("sqrt3-neg", (1, 2, -2, 1)),     # eps = sqrt3 - 1
    ("sqrt3-rev", (1, -4, 1, -1)),    # eps = 2 - sqrt3
    ("sqrt3-nonsturm", (16, -16, 1, -1)),  # eps = (2-sqrt3)/4
    ("sqrt5-neg", (1, 1, -1, 1)),     # eps = (sqrt5-1)/2
    ("sqrt5-rev", (1, -3, 1, -1)),    # eps = (3-sqrt5)/2
    ("sqrt5-nonsturm", (5, -5, 1, -1)),  # eps = (5-sqrt5)/10
]

_GRID = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 2),
         Fraction(-1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)]

_PER_SLOPE = 12


@lru_cache(maxsize=1)
def corpus():
    """Deterministic list of (label, IetSpec) pairs, >= 100 entries."""
    out = []
    for label, fargs in FIELD_SLOPES:
        f = make_field(*fargs)
        eps = f.eps()
        one = f.one()
        taken = 0
        for la in _GRID:
            for lb in _GRID:
                if taken >= _PER_SLOPE:
                    break
                l = f.num(la, lb)
                if not (l < one and l > eps and l > one - eps):
                    continue
                for ca in _GRID:
                    for cb in _GRID:
                        if taken >= _PER_SLOPE:
                            break
                        c = f.num(ca, cb)
                        if not (c > -1 and c.sign() <= 0 and (c + l).sign() > 0):
                            continue
                        try:
                            spec = make_spec(eps, l, c)
                        except Exception:
                            continue
                        if not non_degenerate(spec):
                            continue
                        out.append((f"{label}/l={l}/c={c}", spec))
                        taken += 1
    assert len(out) >= 100
    return out


@pytest.fixture(scope="session")
def worked_field():
    return make_field(1, 2, -1, 1)


@pytest.fixture(scope="session")
def worked_spec(worked_field) -> IetSpec:
    f = worked_field
    return make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                     parse_quadnum("-1/2*e", f))


@pytest.fixture(scope="session")
def negative_spec(worked_field) -> IetSpec:
    """Same slope and length, origin -3/2 + (7/2) eps: NotInvariant."""
    f = worked_field
    return make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                     parse_quadnum("-3/2+7/2*e", f))


def convergents(field, limit):
    """Pairs (a, b), 1 <= b <= limit, with a/b the continued-fraction
    convergents of the field's e: b*e - a is within 1/b of 0, and its sign
    alternates from one convergent to the next."""
    scale = 2**256  # e to within 2^-256, ample for b <= 2^120
    num = -field.B * scale + field.branch * isqrt(field.disc * scale * scale)
    den = 2 * field.A * scale
    out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
    while den:
        q, r = divmod(num, den)
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        if k1 > limit:
            break
        out.append((h1, k1))
        num, den = den, r
    return out
