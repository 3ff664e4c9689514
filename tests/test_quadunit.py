"""Pell solver against brute force, unit construction in each field, the
integer multiplication matrix, and the class-fixing power of the scaling
unit."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import corpus
from iet3 import make_field, make_spec, solve_pell
from iet3.qfield import class_of, denominator
from iet3.quadunit import (PellSolution, ScalingUnit, class_fixing_power, integer_matrix,
                           lemma_unit)
from iet3.errors import InvalidUnit, PerfectSquare

UNIT_FIELDS = {
    5: (1, 1, -1, 1),
    8: (1, 2, -1, 1),
    12: (1, 2, -2, 1),
    13: (1, 1, -3, 1),
    17: (1, 1, -4, 1),
}


def brute_pell(D: int) -> PellSolution:
    y = 1
    while True:
        x2 = 1 + D * y * y
        x = isqrt(x2)
        if x * x == x2:
            return PellSolution(X=x, Y=y, D=D)
        y += 1


class TestPell:
    @pytest.mark.parametrize("D,expected", [(8, (3, 1)), (5, (9, 4)), (2, (3, 2))])
    def test_known_solutions(self, D, expected):
        sol = solve_pell(D)
        assert (sol.X, sol.Y) == expected
        assert sol.X * sol.X - D * sol.Y * sol.Y == 1

    @pytest.mark.parametrize("D", [d for d in range(2, 51) if isqrt(d) ** 2 != d])
    def test_matches_brute_force(self, D):
        assert solve_pell(D) == brute_pell(D)

    def test_square_rejected(self):
        with pytest.raises(PerfectSquare):
            solve_pell(16)


class TestLemmaUnit:
    @pytest.mark.parametrize("disc,fargs", sorted(UNIT_FIELDS.items()))
    def test_unit_properties(self, disc, fargs):
        f = make_field(*fargs)
        assert f.disc == disc
        lam0 = lemma_unit(f)
        unit = ScalingUnit(lam=lam0, s=1, gamma=lam0)
        assert unit.is_valid()  # lam > 1, lam' in (0,1), lam*lam' = 1
        m = unit.mult_matrix()
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det in (1, -1)

    @pytest.mark.parametrize("disc,fargs", sorted(UNIT_FIELDS.items()))
    def test_mult_matrix_multiplies(self, disc, fargs):
        f = make_field(*fargs)
        lam0 = lemma_unit(f)
        m = ScalingUnit(lam=lam0, s=1, gamma=lam0).mult_matrix()
        for (a, b) in [(1, 0), (0, 1), (3, -2), (-7, 5)]:
            prod = lam0 * f.num(a, b)
            assert prod.a == m[0][0] * a + m[0][1] * b
            assert prod.b == m[1][0] * a + m[1][1] * b


class TestIntegerMatrix:
    @pytest.mark.parametrize("disc,fargs", sorted(UNIT_FIELDS.items()))
    def test_matrix_of_conjugate_unit(self, disc, fargs):
        f = make_field(*fargs)
        conj = lemma_unit(f).conjugate()
        m = integer_matrix(conj)
        for (a, b) in [(1, 0), (0, 1), (3, -2), (-7, 5)]:
            prod = conj * f.num(a, b)
            assert (prod.a, prod.b) == (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)

    def test_non_integral_matrix_is_invalid_unit(self):
        """1/2 + e maps 1 outside Z[e]: an InvalidUnit, not a ValueError."""
        f = make_field(1, 2, -1, 1)
        lam = f.num(Fraction(1, 2), 1)
        with pytest.raises(InvalidUnit):
            ScalingUnit(lam=lam, s=1, gamma=lam).mult_matrix()
        with pytest.raises(InvalidUnit):
            integer_matrix(lam)


def reference_power(lambda0, q, anchors):
    """The class-fixing exponent by QuadNum products: the least s >= 1 with
    lambda0'^s * a in the class of a mod Z[e] for every anchor a."""
    conj, s = lambda0.conjugate(), 1
    for anchor in anchors:
        y, period = conj * anchor, 1
        while class_of(y, q) != class_of(anchor, q):
            y, period = conj * y, period + 1
        s = s * period // gcd(s, period)
    return s


class TestClassFixingPower:
    def test_worked_example_power_is_one(self):
        from iet3 import parse_quadnum
        f = make_field(1, 2, -1, 1)
        spec = make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                         parse_quadnum("-1/2*e", f))
        lam0 = lemma_unit(f)
        s = class_fixing_power(lam0, 2, [spec.c, spec.end])
        assert s == 1
        unit = ScalingUnit(lam0 ** s, s, lam0)
        assert unit.lam == parse_quadnum("5+2*e", f)  # 3 + 2*sqrt2
        assert unit.is_valid()

    @pytest.mark.parametrize("q", range(1, 13))
    def test_multiplication_permutes_classes(self, q):
        """lam0 * . is a bijection on the residue classes of (1/q)Z[eps]."""
        f = make_field(1, 2, -1, 1)
        lam0 = lemma_unit(f)
        seen = set()
        for i in range(q):
            for j in range(q):
                x = f.num(Fraction(i, q), Fraction(j, q))
                seen.add(class_of(lam0 * x, q))
        assert len(seen) == q * q

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_power_fixes_anchor_classes(self, q):
        f = make_field(1, 1, -1, 1)
        lam0 = lemma_unit(f)
        anchors = [f.num(Fraction(1, q), Fraction(-1, q)), f.num(0, Fraction(1, q))]
        s = class_fixing_power(lam0, q, anchors)
        unit = ScalingUnit(lam0 ** s, s, lam0)
        assert unit.is_valid()
        for a in anchors:
            assert class_of(unit.lam * a, q) == class_of(a, q)

    def test_non_unit_rejected(self):
        """2 is not a unit: it sends the class of -e/2 mod Z[e] to 0 for
        good, so the class never comes back."""
        f = make_field(1, 2, -1, 1)
        with pytest.raises(InvalidUnit):
            class_fixing_power(f.rational(2), 2, [f.num(0, Fraction(-1, 2))])

    @pytest.mark.parametrize("lambda0", [3, -1])
    def test_non_unit_fixing_the_class_rejected(self, lambda0):
        """3 and -1 fix the class of -e/2 mod Z[e] at once, but neither is a
        unit > 1 with conjugate in (0, 1): InvalidUnit, also under -O."""
        f = make_field(1, 2, -1, 1)
        with pytest.raises(InvalidUnit):
            class_fixing_power(f.rational(lambda0), 2, [f.num(0, Fraction(-1, 2))])

    @pytest.mark.parametrize("disc,fargs", sorted(UNIT_FIELDS.items()))
    def test_matches_quadnum_reference(self, disc, fargs):
        """Every class (i + j*e)/q, q = 1..12, alone and all together."""
        f = make_field(*fargs)
        lam0 = lemma_unit(f)
        for q in range(1, 13):
            anchors = [f.num(Fraction(i, q), Fraction(j, q)) for i in range(q) for j in range(q)]
            assert class_fixing_power(lam0, q, anchors) == reference_power(lam0, q, anchors)
            for anchor in anchors[1:q + 1]:
                assert (class_fixing_power(lam0, q, [anchor])
                        == reference_power(lam0, q, [anchor])), (q, anchor)

    def test_matches_quadnum_reference_on_corpus(self):
        for label, spec in corpus():
            anchors = [spec.c, spec.end]
            q, lam0 = denominator(anchors), lemma_unit(spec.field)
            s = class_fixing_power(lam0, q, anchors)
            assert s == reference_power(lam0, q, anchors), label
            assert ScalingUnit(lam0 ** s, s, lam0).is_valid(), label
