"""Exact arithmetic in a real quadratic field Q(e).

A field is described by the minimal equation A*x^2 + B*x + C = 0 of its
generator e, together with a branch flag selecting the root
e = (-B + branch*sqrt(D))/(2A), D = B^2 - 4AC.  Numbers are stored as
exact rational coordinates (a, b) in the basis {1, e}; this makes
membership in Z[e] = Z + eZ a coordinate check and keeps Galois
conjugation closed-form:  e' = -B/A - e, so  (a + b e)' = (a - bB/A) - b e.

All ordering decisions reduce to the exact sign of an integer expression
P + Q*sqrt(D), written once in `_sign_diff`.  `QuadNum.sign` calls it
after clearing denominators; loops call it through a `Frame`, which keeps
numbers as integer pairs.  A `Frame` also gives a float filter: the loops
compare float images of their pairs and call `Frame.cmp` only when the
float margin is within the proven error bound `Frame.tol`, so a float
never decides a case the bound cannot settle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Tuple

from .errors import (
    DegenerateField,
    FieldMismatch,
    NoSquareRoot,
    NotInLattice,
    ParseError,
)

__all__ = [
    "FieldDesc",
    "QuadNum",
    "Frame",
    "make_field",
    "sqrt_in_field",
    "denominator",
    "class_of",
    "parse_quadnum",
]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def sign_of_surd(P: int, Q: int, D: int) -> int:
    """Exact sign of P + Q*sqrt(D) for integers P, Q and non-square D > 0."""
    if Q == 0:
        return (P > 0) - (P < 0)
    if P == 0:
        return (Q > 0) - (Q < 0)
    if P > 0 and Q > 0:
        return 1
    if P < 0 and Q < 0:
        return -1
    # P and Q have opposite signs: compare |P| and |Q|*sqrt(D) exactly.
    lhs, rhs = P * P, Q * Q * D
    if lhs == rhs:
        # would mean sqrt(D) rational
        return 0
    bigger_is_P = lhs > rhs
    if bigger_is_P:
        return 1 if P > 0 else -1
    return 1 if Q > 0 else -1


@dataclass(frozen=True)
class FieldDesc:
    """Real quadratic field given by A*e^2 + B*e + C = 0 and a root branch."""

    A: int
    B: int
    C: int
    branch: int  # +1 or -1: e = (-B + branch*sqrt(D)) / (2A)

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    @cached_property
    def _surd(self) -> Tuple[int, int, int, int]:
        """(2A, B, branch, D), the constants of `_sign_diff`."""
        return (2 * self.A, self.B, self.branch, self.disc)

    @cached_property
    def _ratios(self) -> Tuple[Fraction, Fraction]:
        """(B/A, C/A), so that e^2 = -(B/A)*e - C/A."""
        return (Fraction(self.B, self.A), Fraction(self.C, self.A))

    def zero(self) -> "QuadNum":
        return QuadNum(Fraction(0), Fraction(0), self)

    def one(self) -> "QuadNum":
        return QuadNum(Fraction(1), Fraction(0), self)

    def eps(self) -> "QuadNum":
        return QuadNum(Fraction(0), Fraction(1), self)

    def rational(self, value) -> "QuadNum":
        return QuadNum(Fraction(value), Fraction(0), self)

    def num(self, a, b=0) -> "QuadNum":
        return QuadNum(Fraction(a), Fraction(b), self)

    def __repr__(self):
        sgn = "+" if self.branch > 0 else "-"
        return f"FieldDesc({self.A}x^2+{self.B}x+{self.C}=0, branch {sgn})"


def make_field(A: int, B: int, C: int, branch: int = 1) -> FieldDesc:
    """Normalize (A, B, C) and return the descriptor of the field of e.

    Raises DegenerateField when the root is rational or complex.
    """
    if A == 0:
        raise DegenerateField("leading coefficient must be nonzero")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if A < 0:
        # flipping all signs keeps the roots, but swaps which branch is which
        A, B, C = -A, -B, -C
        branch = -branch
    g = math.gcd(math.gcd(abs(A), abs(B)), abs(C))
    A, B, C = A // g, B // g, C // g
    disc = B * B - 4 * A * C
    if disc <= 0 or _is_square(disc):
        raise DegenerateField(f"discriminant {disc} gives no real irrational root")
    return FieldDesc(A, B, C, branch)


def _sign_diff(k: Tuple[int, int, int, int], p: Tuple[int, int],
               q: Tuple[int, int]) -> int:
    """Exact sign of (p0 - q0) + (p1 - q1)*e for integers, with k = field._surd.

    2A*(a + b*e) = (2A*a - B*b) + branch*b*sqrt(D), and make_field makes A > 0.
    """
    A2, B, branch, D = k
    a, b = p[0] - q[0], p[1] - q[1]
    return sign_of_surd(A2 * a - B * b, branch * b, D)


@dataclass(frozen=True)
class QuadNum:
    """Element a + b*e of a real quadratic field, with exact rationals a, b."""

    a: Fraction
    b: Fraction
    field: FieldDesc

    # -- construction helpers -------------------------------------------------

    def _wrap(self, a: Fraction, b: Fraction) -> "QuadNum":
        return QuadNum(a, b, self.field)

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self._wrap(Fraction(other), Fraction(0))
        return NotImplemented

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._wrap(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._wrap(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ba, ca = self.field._ratios
        # reduce e^2 = -(B/A) e - C/A
        cross = self.b * o.b
        a = self.a * o.a - cross * ca
        b = self.a * o.b + self.b * o.a - cross * ba
        return self._wrap(a, b)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero QuadNum")
        c = self.conjugate()
        return self._wrap(c.a / n, c.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- Galois structure -----------------------------------------------------

    def conjugate(self) -> "QuadNum":
        """Image under sqrt(D) -> -sqrt(D), re-expressed in the {1, e} basis."""
        return self._wrap(self.a - self.b * self.field._ratios[0], -self.b)

    def norm(self) -> Fraction:
        """x * x' as a rational."""
        ba, ca = self.field._ratios
        return self.a * self.a - self.a * self.b * ba + self.b * self.b * ca

    # -- exact ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value a + b*e; -1, 0 or +1."""
        a, b = self.a, self.b
        d = math.lcm(a.denominator, b.denominator)
        p = (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
        return _sign_diff(self.field._surd, p, (0, 0))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return (
                self.field == other.field and self.a == other.a and self.b == other.b
            )
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:  # equal to the rational a, so hash like it
            return hash(self.a)
        return hash((self.a, self.b, self.field))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- lattice --------------------------------------------------------------

    def in_z_eps(self) -> bool:
        """True iff the number lies in Z[e] = Z + eZ."""
        return self.a.denominator == 1 and self.b.denominator == 1

    # -- numeric views --------------------------------------------------------

    def _approx(self) -> Fraction:
        """Rational approximation within 1 of the true value."""
        f = self.field
        scale = 1 << (abs(self.b.numerator).bit_length() + 64)
        sq = math.isqrt(f.disc * scale * scale)  # floor(scale*sqrt(D))
        eps = Fraction(-f.B * scale + f.branch * sq, 2 * f.A * scale)
        return self.a + self.b * eps

    def floor(self) -> int:
        """Exact floor of the real value."""
        n = math.floor(self._approx())
        while self._cmp(n + 1) >= 0:
            n += 1
        while self._cmp(n) < 0:
            n -= 1
        return n

    def frac(self) -> "QuadNum":
        return self - self.floor()

    def decimal(self, digits: int = 20) -> str:
        """Decimal approximation to `digits` places, truncated (display only)."""
        s = self.sign()
        if s == 0:
            return "0." + "0" * digits if digits else "0"
        x = self if s > 0 else -self
        whole, frac = divmod((x * 10**digits).floor(), 10**digits)
        body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
        return body if s > 0 else "-" + body

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bterm = f"{abs(self.b)}*e" if abs(self.b) != 1 else "e"
        if self.a == 0:
            return bterm if self.b > 0 else f"-{bterm}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {bterm}"

    def __repr__(self):
        return f"QuadNum({self})"


class Frame:
    """Numbers a + b*e as integer pairs (L*a, L*b), with L the common
    denominator of `xs`.  Pairs add and subtract as integers; `cmp(p, q)`
    is the exact sign of p - q: -1, 0 or +1 as p <, = or > q.

    Float filter.  `approx(p)` = p0/L + (p1/L)*ef is the float image of a
    pair, with `ef` = float(e._approx()); loops inline this expression.
    Dividing first keeps the floats near the real values, so pairs of any
    size convert.  `size(p)` = |p0|/L + |p1|/L * E with
    E = |ef|*(1 + 2^-50) + 2^-11, and `tol(s)` bounds the float error of a
    margin built from approx values whose sizes sum to at most s.

    Derivation, with u = 2^-53.  `_approx` is within 2^-66 of e and its
    float is correctly rounded, so |ef - e| <= u|e| + 2^-65; hence |e| <= E
    and u|e| + 2^-65 <= u*E.  In approx(p) the two divisions, the product
    and the sum each round with relative error at most u, so with a = p0/L
    and b = p1/L the error of the product is at most |b|*E*u*((1+u)^2 + 2
    + u) <= 3.01u|b|E, the final sum is at most 1.01*size(p) in magnitude,
    and |approx(p) - (a + b*e)| <= u|a| + 3.01u|b|E + 1.01u*size(p)
    <= 4.1u*size(p).  A margin adds or subtracts at most three approx
    values in at most two more roundings, each of a value below 1.01*s,
    so its error is below (4.1 + 2.03)u*s < 8u*s; computing `size` in
    floats moves s by a few u.  `tol` keeps a safety factor of 8 on that:
    tol(s) = 64u*s = 2^-47*s, plus 2^-1000 for results that underflow.
    So a margin t > tol(s) or t < -tol(s) has the sign of the exact
    difference, and `cmp` decides every other case.
    """

    __slots__ = ("field", "L", "cmp", "ef", "_e_size")

    def __init__(self, field: FieldDesc, xs):
        self.field = field
        self.L = denominator(xs)
        # bound once so that a comparison in a loop is a single Python call
        self.cmp = partial(_sign_diff, field._surd)
        self.ef = float(field.eps()._approx())
        self._e_size = abs(self.ef) * (1 + 2.0**-50) + 2.0**-11

    def pair(self, x: QuadNum) -> Tuple[int, int]:
        a, b = self.L * x.a, self.L * x.b
        if a.denominator != 1 or b.denominator != 1:
            raise NotInLattice(f"{self.L}*({x}) is not in Z[e]")
        return (a.numerator, b.numerator)

    def point(self, p: Tuple[int, int]) -> QuadNum:
        return QuadNum(Fraction(p[0], self.L), Fraction(p[1], self.L), self.field)

    def sign(self, p: Tuple[int, int]) -> int:
        """Exact sign of the number with pair p."""
        return self.cmp(p, (0, 0))

    def approx(self, p: Tuple[int, int]) -> float:
        """Float image of the number with pair p, within tol(size(p))."""
        return p[0] / self.L + p[1] / self.L * self.ef

    def size(self, *pairs: Tuple[int, int]) -> float:
        """The largest |p0|/L + |p1|/L * E over `pairs`; it bounds |p|."""
        return max(abs(p0) / self.L + abs(p1) / self.L * self._e_size for p0, p1 in pairs)

    def tol(self, size: float) -> float:
        """Error bound of a float margin whose terms' sizes sum to `size`."""
        return size * 2.0**-47 + 2.0**-1000


def sqrt_in_field(field: FieldDesc, n: int) -> QuadNum:
    """The positive square root of the integer n, when it lies in the field.

    In the {1, e} basis a root of n satisfies b*(2Aa - Bb) = 0 and
    a^2 - b^2 C/A = n, hence either b = 0 (n a perfect square) or
    a = bB/(2A) with b^2 = 4A^2 n / D.
    """
    if n < 0:
        raise NoSquareRoot("negative argument")
    if _is_square(n):
        return field.rational(math.isqrt(n))
    b2 = Fraction(4 * field.A * field.A * n, field.disc)
    num, den = b2.numerator, b2.denominator
    if not (_is_square(num) and _is_square(den)):
        raise NoSquareRoot(f"sqrt({n}) is not in {field}")
    b = Fraction(math.isqrt(num), math.isqrt(den))
    a = b * Fraction(field.B, 2 * field.A)
    x = QuadNum(a, b, field)
    return x if x.sign() > 0 else -x


def denominator(xs) -> int:
    """Least q >= 1 with q*x in Z[e] for every x in the list."""
    xs = list(xs)
    if not xs:
        raise ValueError("empty list")
    return math.lcm(*(d for x in xs for d in (x.a.denominator, x.b.denominator)))


def class_of(x: QuadNum, q: int):
    """Residue class (i, j) of x in (1/q)Z[e] / Z[e], 0 <= i, j < q."""
    qa, qb = q * x.a, q * x.b
    if qa.denominator != 1 or qb.denominator != 1:
        raise NotInLattice(f"{q}*({x}) is not in Z[e]")
    return (int(qa) % q, int(qb) % q)


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[eE](?![a-zA-Z0-9_])|sqrt|[()+\-*/])")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected input at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for exact-number expressions.

    Grammar: expr := term (('+'|'-') term)*
             term := unary (('*'|'/') unary)*
             unary := ['+'|'-'] atom
             atom := INT | 'e' | 'sqrt' '(' INT ')' | '(' expr ')'
    """

    def __init__(self, tokens, field: FieldDesc):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def expr(self) -> QuadNum:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> QuadNum:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> QuadNum:
        if self.peek() in ("+", "-"):
            op = self.next()
            value = self.unary()
            return value if op == "+" else -value
        return self.atom()

    def atom(self) -> QuadNum:
        tok = self.next()
        if tok.isdigit():
            return self.field.rational(int(tok))
        if tok in ("e", "E"):
            return self.field.eps()
        if tok == "sqrt":
            self.expect("(")
            arg = self.next()
            if not arg.isdigit():
                raise ParseError("sqrt() takes a nonnegative integer")
            self.expect(")")
            return sqrt_in_field(self.field, int(arg))
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok!r}")


def parse_quadnum(text: str, field: FieldDesc) -> QuadNum:
    """Parse an exact expression like "1/2 - 3/2*e" or "(1-sqrt(2))/2"."""
    parser = _Parser(_tokenize(text), field)
    try:
        value = parser.expr()
    except (ZeroDivisionError, RecursionError) as exc:  # 1/0, or nesting too deep
        raise ParseError(f"cannot evaluate {text[:40]!r}: {exc}") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.tokens[parser.pos:]!r}")
    return value
