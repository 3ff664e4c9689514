"""Exact quadratic arithmetic: field construction, ring operations,
conjugation, exact signs against a high-precision integer oracle, parsing
and printing, floors, and lattice classes."""

import re
from fractions import Fraction
from math import floor, gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iet3
from conftest import convergents
from iet3 import make_field, parse_quadnum, sqrt_in_field
from iet3.qfield import Frame, class_of, decimal_of, denominator, sign_of_surd
from iet3.errors import (DegenerateField, NoSquareRoot, NotInLattice,
                         ParseError)
from oracles import frame_sign

F2 = make_field(1, 2, -1, 1)       # eps = sqrt2 - 1
F5 = make_field(1, 1, -1, 1)       # eps = (sqrt5-1)/2

fractions = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**3)


def qnum(field):
    return st.builds(lambda a, b: field.num(a, b), fractions, fractions)


def oracle_sign(x) -> int:
    """Sign via a 60-digit integer approximation of sqrt(disc)."""
    f = x.field
    scale = 10**60
    root = isqrt(f.disc * scale * scale)  # floor(sqrt(D)*1e60)
    # x = a + b*(-B + branch*sqrt(D)) / (2A)
    lo = Fraction(2 * f.A) * x.a + x.b * (-f.B + Fraction(f.branch * root, scale))
    hi = Fraction(2 * f.A) * x.a + x.b * (-f.B + Fraction(f.branch * (root + 1), scale))
    if lo > 0 and hi > 0:
        return 1
    if lo < 0 and hi < 0:
        return -1
    return 0  # only when x is rationally zero at this precision


class TestFieldConstruction:
    def test_worked_field(self):
        assert F2.disc == 8
        eps = F2.eps()
        assert "0.41421356" in eps.decimal(10)

    def test_degenerate(self):
        with pytest.raises(DegenerateField):
            make_field(1, 2, 1, 1)  # disc 0

    def test_square_discriminant(self):
        with pytest.raises(DegenerateField):
            make_field(1, 3, 2, 1)   # disc 1, rational roots
        with pytest.raises(DegenerateField):
            make_field(1, 0, -4, 1)  # disc 16, eps = +-2

    def test_negative_leading_coefficient_normalized(self):
        f = make_field(-1, -2, 1, -1)
        assert f.A > 0
        assert f.eps() == F2.eps()


class TestArithmetic:
    @given(x=qnum(F2), y=qnum(F2))
    def test_conjugation_is_ring_homomorphism(self, x, y):
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(x=qnum(F2))
    def test_conjugation_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(x=qnum(F5), y=qnum(F5))
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(x=qnum(F2))
    def test_norm_is_self_times_conjugate(self, x):
        prod = x * x.conjugate()
        assert prod.b == 0
        assert prod.a == x.norm()

    @given(x=qnum(F2))
    def test_inverse(self, x):
        if x.sign() != 0:
            assert x * x.inverse() == F2.one()

    @given(x=qnum(F2))
    def test_sign_against_integer_oracle(self, x):
        assert x.sign() == oracle_sign(x)

    @given(x=qnum(F5), y=qnum(F5))
    def test_ordering_consistent_with_sign(self, x, y):
        assert (x < y) == ((y - x).sign() > 0)

    @given(x=qnum(F2))
    def test_floor_brackets_value(self, x):
        n = x.floor()
        assert x - n >= 0
        assert x - n < 1
        assert x.frac() == x - n

    def test_eps_sign_examples(self):
        assert F2.eps().sign() == 1
        assert (F2.eps() - 1).sign() == -1
        assert F2.zero().sign() == 0

    def test_rational_hash_agrees_with_equality(self):
        assert F2.one() == 1
        assert 1 in {F2.one()}
        assert F2.one() in {1}
        half = Fraction(1, 2)
        assert hash(F2.rational(half)) == hash(half)
        assert {F2.rational(half), half} == {half}


KERNEL_FIELDS = [F2, F5, make_field(8, -8, 1, -1), make_field(1, -3, 1, -1)]


def bracket_sign(f, p: int, q: int) -> int:
    """Sign of p + q*e found without the surd formula: sqrt(D) lies between
    isqrt(D*4^k)/2^k and that value + 1/2^k, and k grows until the
    resulting bracket of p + q*e excludes 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    k = 0
    while True:
        r = isqrt(f.disc * 4**k)
        ends = [p + q * (-f.B + f.branch * Fraction(s, 2**k)) / (2 * f.A)
                for s in (r, r + 1)]
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        k += 1


@st.composite
def kernel_pairs(draw):
    """A field and two integer pairs whose difference is often within a
    few units of 0, where the surd sign has to square."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    q = draw(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)))
    b = draw(st.integers(-10**30, 10**30))
    if draw(st.booleans()):
        # nearest integer to -b*e, so p - q = a + b*e is close to 0
        k = 128
        e_scaled = -f.B * 2**k + f.branch * isqrt(f.disc * 4**k)
        a = -(b * e_scaled) // (2 * f.A * 2**k) + draw(st.integers(-2, 2))
    else:
        a = draw(st.integers(-10**30, 10**30))
    return f, (q[0] + a, q[1] + b), q


class TestFrame:
    @given(case=kernel_pairs())
    def test_signs_match_bracketing(self, case):
        f, p, q = case
        frame = Frame(f, [f.num(Fraction(1, 6), Fraction(-5, 4))])
        assert frame_sign(frame, p) == bracket_sign(f, *p)
        assert frame.cmp(p, q) == bracket_sign(f, p[0] - q[0], p[1] - q[1])

    @given(x=qnum(F2))
    def test_pair_point_round_trip(self, x):
        frame = Frame(F2, [x, F2.num(Fraction(1, 3), 0)])
        p = frame.pair(x)
        assert frame.point(p) == x
        assert frame_sign(frame, p) == x.sign()

    def test_pair_rejects_number_outside_frame(self):
        frame = Frame(F2, [F2.num(Fraction(1, 2), 0)])
        assert frame.L == 2
        with pytest.raises(NotInLattice):
            frame.pair(F2.num(Fraction(1, 3), 0))

    def test_single_surd_kernel(self):
        """Only qfield calls sign_of_surd or makes floats of field data; no
        module rebuilds the old per-caller scaling helpers, and no setting
        is read from the environment."""
        for path in sorted(Path(iet3.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name != "qfield.py":
                assert "sign_of_surd(" not in text, path.name
                # the float image of e and its error bound live in Frame
                assert not re.search(r"_approx\b|math\.sqrt|\bfloat\(", text), path.name
                # field elements are integers (p, q, d): only qfield meets Fraction
                assert not re.search(r"\bfractions\b|\.(numerator|denominator)\b", text), path.name
            assert not re.search(r"\b(ipair|diff_sign)\b", text), path.name
            assert not re.search(r"\b(environ|getenv)\b", text), path.name



# two numbers of one of the kernel fields, A = 8 among them
kernel_num_pairs = st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: st.tuples(qnum(f), qnum(f)))


def coords(x):
    return (x.a, x.b)


def normalized(x) -> bool:
    return x.d > 0 and gcd(x.p, x.q, x.d) == 1


class TestIntegerRepresentation:
    """QuadNum stores (p + q*e)/d as normalized integers; its results must
    match the formulas in rational coordinates a = p/d, b = q/d, in fields
    with A > 1 too, where the integer formulas divide by A."""

    @given(pair=kernel_num_pairs)
    def test_ring_ops_match_rational_coordinates(self, pair):
        x, y = pair
        f = x.field
        ba, ca = Fraction(f.B, f.A), Fraction(f.C, f.A)  # e^2 = -(B/A)*e - C/A
        (a, b), (c, d) = coords(x), coords(y)
        norm = a * a - a * b * ba + b * b * ca
        assert coords(x * y) == (a * c - b * d * ca, a * d + b * c - b * d * ba)
        assert coords(x.conjugate()) == (a - b * ba, -b)
        assert x.norm() == norm
        if x.sign() != 0:
            assert coords(x.inverse()) == ((a - b * ba) / norm, -b / norm)
        for z in (x + y, x - y, x * y, x.conjugate(), -x):
            assert normalized(z)

    @given(a=fractions)
    def test_floor_of_rationals(self, a):
        for f in KERNEL_FIELDS:
            assert f.rational(a).floor() == floor(a)
            assert f.rational(-a).floor() == floor(-a)

    @pytest.mark.parametrize("f", KERNEL_FIELDS, ids=["F2", "F5", "A8", "F5-rev"])
    def test_floor_near_integers(self, f):
        """+-(b*e - a) for convergents a/b of e with b up to 10^12 lies
        within 1/b of 0, and shifted by k its floor is k or k - 1 by its
        sign; both signs of the surd term (the Q < 0 branch) occur."""
        for a, b in convergents(f, 10**12):
            for s in (1, -1):
                x = f.num(-s * a, s * b)
                below = bracket_sign(f, -s * a, s * b) < 0
                for k in (-3, 0, 7):
                    assert (x + k).floor() == k - below

    @given(pair=kernel_num_pairs)
    def test_equal_values_hash_equal(self, pair):
        x, y = pair
        routes = [(x + y) - y, parse_quadnum(str(x), x.field), x.field.num(x.a, x.b)]
        if y.sign() != 0:
            routes.append(x * y / y)
        for z in routes:
            assert z == x and hash(z) == hash(x)
            assert (z.p, z.q, z.d) == (x.p, x.q, x.d)

    def test_immutable(self):
        x = F2.num(Fraction(1, 2), 3)
        for name in ("p", "q", "d", "field", "a", "b", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.p, x.q, x.d) == (1, 6, 2)


def precise_value(frame, p) -> Fraction:
    """The number with pair p, with e taken to within 2^-256."""
    f, scale = frame.field, 2**256
    e = Fraction(-f.B * scale + f.branch * isqrt(f.disc * scale * scale), 2 * f.A * scale)
    return (p[0] + p[1] * e) / frame.L


def filtered_sign(frame, p, q) -> int:
    """The orbit loops' decision: the float margin when it clears the
    bound, the exact cmp otherwise."""
    t = frame.approx(p) - frame.approx(q)
    tol = frame.tol(frame.size(p) + frame.size(q))
    return 1 if t > tol else -1 if t < -tol else frame.cmp(p, q)


@st.composite
def filter_pairs(draw):
    """A frame and two pairs.  Often p - q is +-(b*e - a) for a convergent
    a/b of e with b up to 10^12, a number within 1/b of 0 that the float
    margin cannot sign; L up to 10^400 puts pairs beyond the float range."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    frame = Frame(f, [f.num(Fraction(1, draw(st.sampled_from([1, 6, 10**40, 10**400]))), 0)])
    big = st.integers(-10**12, 10**12)
    q = (draw(big), draw(big))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(convergents(f, 10**12)[-8:]))
        s = draw(st.sampled_from([1, -1]))
        d = (-s * a, s * b)
    else:
        d = (draw(big), draw(big))
    return frame, (q[0] + d[0], q[1] + d[1]), q


class TestFloatFilter:
    @given(case=filter_pairs())
    def test_filtered_decision_is_exact(self, case):
        frame, p, q = case
        assert filtered_sign(frame, p, q) == frame.cmp(p, q)

    @given(case=filter_pairs())
    def test_approx_within_derived_bound(self, case):
        """|approx(p) - p| <= 4.1u*size(p), the bound tol derives from,
        and size(p) bounds |p| up to its own rounding, both up to
        underflow (tol adds 2^-1000)."""
        frame, p, _q = case
        value, size = precise_value(frame, p), Fraction(frame.size(p))
        underflow = Fraction(1, 2**1070)
        assert abs(Fraction(frame.approx(p)) - value) <= Fraction(4.1) * 2**-53 * size + underflow
        assert abs(value) <= size * (1 + Fraction(1, 2**50)) + underflow

    def test_convergents_fall_inside_the_band(self):
        """For the convergents of e with b from 10^9 to 10^12 the float
        sign of b*e - a is wrong for some, and every one of them is sent
        to the exact test."""
        frame = Frame(F5, [F5.one()])
        pairs = [(-a, b) for a, b in convergents(F5, 10**12) if b > 10**9]
        wrong = 0
        for p in pairs:
            t, tol = frame.approx(p), frame.tol(frame.size(p))
            assert -tol <= t <= tol
            wrong += (t > 0) - (t < 0) != frame_sign(frame, p)
        assert wrong > 0


class TestSignOfSurd:
    @given(P=st.integers(-10**9, 10**9), Q=st.integers(-10**9, 10**9))
    def test_against_isqrt(self, P, Q):
        D = 8
        root = isqrt(D * 10**40)
        got = sign_of_surd(P, Q, D)
        # integer bracketing oracle
        val_lo = P * 10**20 + (Q * root if Q >= 0 else Q * (root + 1))
        val_hi = P * 10**20 + (Q * (root + 1) if Q >= 0 else Q * root)
        if val_lo > 0:
            assert got == 1
        elif val_hi < 0:
            assert got == -1
        else:
            assert got == 0


class TestParsePrint:
    @given(x=qnum(F2))
    def test_roundtrip(self, x):
        assert parse_quadnum(str(x), F2) == x

    def test_grammar_examples(self):
        f = F2
        assert parse_quadnum("1/2+1/2*e", f) == f.num(Fraction(1, 2), Fraction(1, 2))
        assert parse_quadnum("-1/2*e", f) == f.num(0, Fraction(-1, 2))
        assert parse_quadnum("sqrt(2)", f) == f.num(1, 1)  # sqrt2 = 1 + eps
        assert parse_quadnum("(1+e)/2", f) == f.num(Fraction(1, 2), Fraction(1, 2))
        assert parse_quadnum("2 - e", f) == f.num(2, -1)

    def test_parse_errors(self):
        for bad in ["", "1+", "x", "1//2", "sqrt(", "(1", "1/0", "e/(e-e)",
                    "(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"]:
            with pytest.raises(ParseError):
                parse_quadnum(bad, F2)

    def test_sqrt_outside_field(self):
        with pytest.raises(NoSquareRoot):
            sqrt_in_field(F2, 3)

    def test_sqrt_of_square(self):
        assert sqrt_in_field(F2, 4) == F2.num(2, 0)

    def test_decimal_negative(self):
        x = F2.num(0, Fraction(-1, 2))  # ~ -0.2071
        assert x.decimal(6).startswith("-0.207106")

    @given(x=st.one_of(qnum(F2), qnum(F5)), digits=st.integers(0, 25), k=st.integers(1, 50))
    def test_decimal_truncates_exactly(self, x, digits, k):
        """The digits of `decimal_of` bracket |x| by exact comparisons, and
        (p + q*e)/d prints the same with a common factor k left in."""
        text = decimal_of(x.field, k * x.p, k * x.q, k * x.d, digits)
        assert text == x.decimal(digits)
        assert text.startswith("-") == (x.sign() < 0)
        whole, _, frac = text.lstrip("-").partition(".")
        assert len(frac) == digits
        m = Fraction(int(whole + frac), 10**digits)
        assert m <= abs(x) < m + Fraction(1, 10**digits)

    def test_decimal_of_zero(self):
        assert decimal_of(F2, 0, 0, 7, 3) == F2.zero().decimal(3) == "0.000"
        assert decimal_of(F2, 0, 0, 1, 0) == "0"

    def test_no_float_view(self):
        """Exact numbers print as decimals but never convert to float."""
        with pytest.raises(TypeError):
            float(F2.eps())


class TestLattice:
    @given(a=fractions, b=fractions)
    def test_in_z_eps(self, a, b):
        x = F2.num(a, b)
        assert x.in_z_eps() == (a.denominator == 1 and b.denominator == 1)

    def test_denominator_lcm(self):
        xs = [F2.num(Fraction(1, 2), Fraction(1, 3)), F2.num(Fraction(1, 5), 0)]
        assert denominator(xs) == 30

    def test_class_of(self):
        x = F2.num(Fraction(3, 2), Fraction(-1, 2))
        assert class_of(x, 2) == (1, 1)
        assert class_of(F2.num(1, 1), 1) == (0, 0)

    def test_class_of_rejects_finer_denominator(self):
        with pytest.raises(NotInLattice):
            class_of(F2.num(Fraction(1, 3), 0), 2)

    @given(x=qnum(F2), y=st.integers(-5, 5), z=st.integers(-5, 5))
    def test_class_invariant_under_z_eps_shift(self, x, y, z):
        q = x.a.denominator * x.b.denominator
        shifted = x + F2.num(y, z)
        assert class_of(x, q) == class_of(shifted, q)
