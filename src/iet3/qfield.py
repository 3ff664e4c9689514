"""Exact arithmetic in a real quadratic field Q(e).

A field is described by the minimal equation A*x^2 + B*x + C = 0 of its
generator e, together with a branch flag selecting the root
e = (-B + branch*sqrt(D))/(2A), D = B^2 - 4AC.  A number (p + q*e)/d is
stored as integers with d > 0 and gcd(p, q, d) = 1, so equal numbers have
equal fields, Z[e] = Z + eZ is d = 1, and a = p/d, b = q/d are views.
Ring operations are integer formulas with A*e^2 = -B*e - C; conjugation
is closed-form: e' = -B/A - e, so (p + q*e)' = (A*p - B*q - A*q*e)/A.

All ordering decisions reduce to the exact sign of an integer expression
P + Q*sqrt(D), written once in `_sign_diff`.  `QuadNum` calls it on its
integers; loops call it through a `Frame`, which keeps numbers as integer
pairs over one denominator.  A `Frame` also gives a float filter: the
loops compare float images of their pairs and call `Frame.cmp` only when
the float margin is within the proven error bound `Frame.tol`, so a float
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
    "decimal_of",
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
    # P and Q have opposite signs, and P^2 != Q^2*D as sqrt(D) is irrational
    if P * P > Q * Q * D:
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

    def zero(self) -> "QuadNum":
        return QuadNum(0, 0, 1, self)

    def one(self) -> "QuadNum":
        return QuadNum(1, 0, 1, self)

    def eps(self) -> "QuadNum":
        return QuadNum(0, 1, 1, self)

    def rational(self, value) -> "QuadNum":
        return self.num(value)

    def num(self, a, b=0) -> "QuadNum":
        """a + b*e for rationals a, b (anything `Fraction` accepts)."""
        a, b = Fraction(a), Fraction(b)
        return QuadNum(a.numerator * b.denominator, b.numerator * a.denominator,
                       a.denominator * b.denominator, self)

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


def _floor(k: Tuple[int, int, int, int], p: int, q: int, d: int) -> int:
    """Exact floor of (p + q*e)/d = (P + Q*sqrt(D))/(2A*d), d > 0, k = field._surd,
    P = 2A*p - B*q, Q = branch*q: as Q*sqrt(D) is 0 or irrational, it is the
    floor of (P + floor(Q*sqrt(D)))/(2A*d), with floor(Q*sqrt(D)) from isqrt."""
    A2, B, branch, D = k
    Q = branch * q
    r = math.isqrt(Q * Q * D)
    return (A2 * p - B * q + (r if Q >= 0 else -r - 1)) // (A2 * d)


class QuadNum:
    """Immutable element (p + q*e)/d of a real quadratic field; the
    constructor divides out gcd(p, q, d) and makes d > 0."""

    __slots__ = ("p", "q", "d", "field")

    def __init__(self, p: int, q: int, d: int, field: FieldDesc):
        if d == 0:
            raise ZeroDivisionError("division by zero QuadNum")
        g = math.gcd(p, q, d) if d > 0 else -math.gcd(p, q, d)
        _set = object.__setattr__
        _set(self, "p", p // g)
        _set(self, "q", q // g)
        _set(self, "d", d // g)
        _set(self, "field", field)

    def __setattr__(self, name, *value):
        raise AttributeError(f"QuadNum is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    a = property(lambda self: Fraction(self.p, self.d), doc="p/d, the rational coordinate of 1")
    b = property(lambda self: Fraction(self.q, self.d), doc="q/d, the rational coordinate of e")

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other.numerator, 0, other.denominator, self.field)
        return NotImplemented

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d,
                       self.d * o.d, self.field)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.p, -self.q, self.d, self.field)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.p * o.d - o.p * self.d, self.q * o.d - o.q * self.d,
                       self.d * o.d, self.field)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        # (p + q e)(r + s e), with A e^2 = -B e - C
        cross = self.q * o.q
        return QuadNum(f.A * self.p * o.p - f.C * cross,
                       f.A * (self.p * o.q + self.q * o.p) - f.B * cross,
                       f.A * self.d * o.d, f)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        """x'/(x*x') = (A*p - B*q - A*q*e)*d/n, n = A*p^2 - B*p*q + C*q^2."""
        f, p, q = self.field, self.p, self.q
        n = f.A * p * p - f.B * p * q + f.C * q * q
        return QuadNum((f.A * p - f.B * q) * self.d, -f.A * q * self.d, n, f)

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
        result, base = self.field.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- Galois structure -----------------------------------------------------

    def conjugate(self) -> "QuadNum":
        """Image under sqrt(D) -> -sqrt(D), re-expressed in the {1, e} basis."""
        f = self.field
        return QuadNum(f.A * self.p - f.B * self.q, -f.A * self.q, f.A * self.d, f)

    def norm(self) -> Fraction:
        """x * x' as a rational."""
        f, p, q = self.field, self.p, self.q
        return Fraction(f.A * p * p - f.B * p * q + f.C * q * q, f.A * self.d * self.d)

    # -- exact ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value (p + q*e)/d; -1, 0 or +1."""
        return _sign_diff(self.field._surd, (self.p, self.q), (0, 0))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        # both denominators are positive, so cross-multiplying keeps the sign
        return _sign_diff(self.field._surd, (self.p * o.d, self.q * o.d),
                          (o.p * self.d, o.q * self.d))

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
            return (self.p == other.p and self.q == other.q and self.d == other.d
                    and self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.q == 0:  # equal to the rational a, so hash like it
            return hash(self.a)
        return hash((self.p, self.q, self.d, self.field))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- lattice --------------------------------------------------------------

    def in_z_eps(self) -> bool:
        """True iff the number lies in Z[e] = Z + eZ."""
        return self.d == 1

    # -- numeric views --------------------------------------------------------

    def floor(self) -> int:
        """Exact floor of the real value, by `_floor` on its integers."""
        return _floor(self.field._surd, self.p, self.q, self.d)

    def frac(self) -> "QuadNum":
        return self - self.floor()

    def decimal(self, digits: int = 20) -> str:
        """Decimal approximation to `digits` places, truncated (display only)."""
        return decimal_of(self.field, self.p, self.q, self.d, digits)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bterm = f"{abs(b)}*e" if abs(b) != 1 else "e"
        if a == 0:
            return bterm if b > 0 else f"-{bterm}"
        op = "+" if b > 0 else "-"
        return f"{a} {op} {bterm}"

    def __repr__(self):
        return f"QuadNum({self})"


class Frame:
    """Numbers a + b*e as integer pairs (L*a, L*b), with L the common
    denominator of `xs`.  Pairs add and subtract as integers; `cmp(p, q)`
    is the exact sign of p - q: -1, 0 or +1 as p <, = or > q.

    Float filter.  `approx(p)` = p0/L + (p1/L)*ef is the float image of a
    pair, with `ef` a float of e; loops inline this expression.
    Dividing first keeps the floats near the real values, so pairs of any
    size convert.  `size(p)` = |p0|/L + |p1|/L * E with
    E = |ef|*(1 + 2^-50) + 2^-11, and `tol(s)` bounds the float error of a
    margin built from approx values whose sizes sum to at most s.

    Derivation, with u = 2^-53.  `ef` is the correctly rounded float of
    r = (-B*2^65 + branch*isqrt(D*4^65))/(A*2^66), and |r - e| <= 2^-66,
    so |ef - e| <= u|e| + 2^-65; hence |e| <= E and u|e| + 2^-65 <= u*E.
    In approx(p) the two divisions, the product and the sum each round
    with relative error at most u, so with a = p0/L and b = p1/L the error
    of the product is at most |b|*E*u*((1+u)^2 + 2 + u) <= 3.01u|b|E, the
    final sum is at most 1.01*size(p) in magnitude, and |approx(p) -
    (a + b*e)| <= u|a| + 3.01u|b|E + 1.01u*size(p) <= 4.1u*size(p).  A
    margin adds or subtracts at most three approx values in at most two
    more roundings, each of a value below 1.01*s, so its error is below
    (4.1 + 2.03)u*s < 8u*s; computing `size` in floats moves s by a few u.
    `tol` keeps a safety factor of 8 on that: tol(s) = 64u*s = 2^-47*s,
    plus 2^-1000 for results that underflow.  So a margin t > tol(s) or
    t < -tol(s) has the sign of the exact difference, and `cmp` decides
    every other case.
    """

    __slots__ = ("field", "L", "cmp", "ef", "_e_size")

    def __init__(self, field: FieldDesc, xs):
        self.field = field
        self.L = denominator(xs)
        # bound once so that a comparison in a loop is a single Python call
        self.cmp = partial(_sign_diff, field._surd)
        self.ef = (-field.B * 2**65 + field.branch * math.isqrt(field.disc << 130)) / (field.A << 66)
        self._e_size = abs(self.ef) * (1 + 2.0**-50) + 2.0**-11

    def pair(self, x: QuadNum) -> Tuple[int, int]:
        k, r = divmod(self.L, x.d)
        if r:
            raise NotInLattice(f"{self.L}*({x}) is not in Z[e]")
        return (k * x.p, k * x.q)

    def point(self, p: Tuple[int, int]) -> QuadNum:
        return QuadNum(p[0], p[1], self.L, self.field)

    def approx(self, p: Tuple[int, int]) -> float:
        """Float image of the number with pair p, within tol(size(p))."""
        return p[0] / self.L + p[1] / self.L * self.ef

    def size(self, *pairs: Tuple[int, int]) -> float:
        """The largest |p0|/L + |p1|/L * E over `pairs`; it bounds |p|."""
        return max(abs(p0) / self.L + abs(p1) / self.L * self._e_size for p0, p1 in pairs)

    def tol(self, size: float) -> float:
        """Error bound of a float margin whose terms' sizes sum to `size`."""
        return size * 2.0**-47 + 2.0**-1000


def decimal_of(field: FieldDesc, p: int, q: int, d: int, digits: int = 20) -> str:
    """Decimal of (p + q*e)/d, d > 0, truncated to `digits` places (display
    only): the floor of |x|*10^digits by `_floor`.  p, q, d need no common
    factor removed, so a loop prints its integers without a `QuadNum`."""
    s = -1 if _sign_diff(field._surd, (p, q), (0, 0)) < 0 else 1  # zero prints as 0.00...0
    whole, frac = divmod(_floor(field._surd, s * p * 10**digits, s * q * 10**digits, d),
                         10**digits)
    body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return body if s > 0 else "-" + body


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
    A = field.A
    g = math.gcd(4 * A * A * n, field.disc)
    num, den = 4 * A * A * n // g, field.disc // g
    if not (_is_square(num) and _is_square(den)):
        raise NoSquareRoot(f"sqrt({n}) is not in {field}")
    # b = s/t and a = b*B/(2A), so the root is s*(B + 2A*e)/(2A*t)
    s, t = math.isqrt(num), math.isqrt(den)
    x = QuadNum(s * field.B, 2 * A * s, 2 * A * t, field)
    return x if x.sign() > 0 else -x


def denominator(xs) -> int:
    """Least q >= 1 with q*x in Z[e] for every x in the list."""
    xs = list(xs)
    if not xs:
        raise ValueError("empty list")
    # k*(p + q*e)/d is in Z[e] iff d divides k, as gcd(p, q, d) = 1
    return math.lcm(*(x.d for x in xs))


def class_of(x: QuadNum, q: int):
    """Residue class (i, j) of x in (1/q)Z[e] / Z[e], 0 <= i, j < q."""
    k, r = divmod(q, x.d)
    if r:
        raise NotInLattice(f"{q}*({x}) is not in Z[e]")
    return (k * x.p % q, k * x.q % q)


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
