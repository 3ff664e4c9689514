"""The normalized exchange of three intervals and orbit coding.

The map acts on [c, c+l) with discontinuities d1 = c+l-1+eps, d2 = c+eps:

    T(x) = x + 1-eps    on I1 = [c, d1)         letter A
    T(x) = x + 1-2*eps  on I2 = [d1, d2)        letter B
    T(x) = x - eps      on I3 = [d2, c+l)       letter C

Valid parameters satisfy eps in (0,1), 1 > l > max(1-eps, eps) and
0 in [c, c+l); all intervals are left-closed right-open.

`step` and `inverse_step` act on QuadNums and are the plain reference.
Every loop instead runs `OrbitCoder`, which keeps points as integer pairs
of a `qfield.Frame`: a step is an integer addition and a letter at most
two comparisons with the cuts.  Floats only filter these comparisons: a
float margin inside the frame's error bound is decided by the exact
`Frame.cmp`.  `code_orbit` is its word-level wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, Iterator, Optional, Tuple

from .errors import OutOfDomain, RationalSlope
from .qfield import FieldDesc, Frame, QuadNum

__all__ = ["IetSpec", "make_spec", "normalize", "step", "inverse_step", "code_orbit",
           "non_degenerate", "OrbitCoder", "orbit_window"]

LETTERS = "ABC"


@dataclass(frozen=True)
class IetSpec:
    eps: QuadNum
    l: QuadNum
    c: QuadNum
    raw: Optional[Tuple[QuadNum, QuadNum, QuadNum, QuadNum]] = None

    @property
    def field(self) -> FieldDesc:
        return self.eps.field

    @property
    def d1(self) -> QuadNum:
        return self.c + self.l - 1 + self.eps

    @property
    def d2(self) -> QuadNum:
        return self.c + self.eps

    @property
    def end(self) -> QuadNum:
        return self.c + self.l

    def shifts(self):
        one = self.field.one()
        return (one - self.eps, one - 2 * self.eps, -self.eps)

    def subintervals(self):
        return (
            (self.c, self.d1),
            (self.d1, self.d2),
            (self.d2, self.end),
        )

    def contains(self, x: QuadNum) -> bool:
        return self.c <= x < self.end


def make_spec(eps: QuadNum, l: QuadNum, c: QuadNum, raw=None) -> IetSpec:
    """Validate the parameter constraints and build the spec."""
    if eps.b == 0:
        raise RationalSlope(f"eps = {eps} is rational; the exchange is not minimal")
    zero, one = eps.field.zero(), eps.field.one()
    if not (zero < eps < one):
        raise ValueError(f"eps = {eps} not in (0, 1)")
    if not (l < one and l > eps and l > one - eps):
        raise ValueError(f"l = {l} violates 1 > l > max(1-eps, eps)")
    if not (c <= zero < c + l):
        raise ValueError(f"0 not in [c, c+l) with c = {c}, l = {l}")
    return IetSpec(eps, l, c, raw)


def normalize(alpha1: QuadNum, alpha2: QuadNum, alpha3: QuadNum, x0: QuadNum) -> IetSpec:
    """Reduce raw interval lengths and starting point to (eps, l, c).

    eps = (a1+a2)/mu, l = (a1+a2+a3)/mu, c = -x0/mu with mu = a1+2*a2+a3;
    the coded point becomes 0.
    """
    for alpha in (alpha1, alpha2, alpha3):
        if alpha.sign() <= 0:
            raise ValueError("interval lengths must be positive")
    total = alpha1 + alpha2 + alpha3
    if not (x0 >= 0 and x0 < total):
        raise OutOfDomain(f"x0 = {x0} outside [0, {total})")
    mu = alpha1 + 2 * alpha2 + alpha3
    eps = (alpha1 + alpha2) / mu
    if eps.b == 0:
        raise RationalSlope(f"eps = {eps} is rational; the exchange is not minimal")
    return make_spec(eps, total / mu, -x0 / mu, raw=(alpha1, alpha2, alpha3, x0))


def step(spec: IetSpec, x: QuadNum) -> Tuple[QuadNum, str]:
    """One forward application: (T(x), coding letter of x)."""
    if not spec.contains(x):
        raise OutOfDomain(f"{x} not in [{spec.c}, {spec.end})")
    shifts = spec.shifts()
    if x < spec.d1:
        return x + shifts[0], "A"
    if x < spec.d2:
        return x + shifts[1], "B"
    return x + shifts[2], "C"


def inverse_step(spec: IetSpec, y: QuadNum) -> Tuple[QuadNum, str]:
    """One backward application: (T^-1(y), coding letter of the preimage).

    The images tile [c, c+l) as T(I3) = [c, c+l-eps), T(I2) = [c+l-eps,
    c+1-eps), T(I1) = [c+1-eps, c+l).
    """
    if not spec.contains(y):
        raise OutOfDomain(f"{y} not in [{spec.c}, {spec.end})")
    shifts = spec.shifts()
    if y < spec.end - spec.eps:
        return y - shifts[2], "C"
    if y < spec.c + 1 - spec.eps:
        return y - shifts[1], "B"
    return y - shifts[0], "A"


def non_degenerate(spec: IetSpec) -> bool:
    """True iff l is not in Z[e] (the full-complexity condition)."""
    return not spec.l.in_z_eps()


class OrbitCoder:
    """Exact orbit coding on the integer pairs of a `Frame`.

    The frame holds c, l, eps and any `extra` numbers the caller wants to
    compare orbit points with.  Points are pairs; the letter of a point
    is decided against the cuts d1, d2 (forward) or c+l-eps, c+1-eps
    (backward, where the images tile the domain as T(I3), T(I2), T(I1)).
    """

    def __init__(self, spec: IetSpec, extra: Iterable[QuadNum] = ()):
        self.frame = fr = Frame(spec.field, [spec.c, spec.l, spec.eps, *extra])
        self.c, self.d1, self.d2, self.end, self.b1, self.b2 = (fr.pair(x) for x in (
            spec.c, spec.d1, spec.d2, spec.end, spec.end - spec.eps, spec.c + 1 - spec.eps))
        # forward shifts for letters A, B, C
        self.shift = tuple(fr.pair(s) for s in spec.shifts())

    def forward_points(self, start=(0, 0)) -> Iterator[Tuple[Tuple[int, int], int]]:
        """(T^n(start), index of its letter) for n = 0, 1, ..."""
        fr = self.frame
        cmp, L, ef, d1, d2, shift = fr.cmp, fr.L, fr.ef, self.d1, self.d2, self.shift
        f1, f2 = fr.approx(d1), fr.approx(d2)
        base, step = fr.size(start) + fr.size(d1, d2), fr.size(*shift)
        x, check = start, 0
        for n in count():
            if n == check:  # a pair grows by at most one shift per step
                check = 2 * n + 64
                tol = fr.tol(base + check * step)
            v = x[0] / L + x[1] / L * ef
            if (t := v - f1) < -tol or t <= tol and cmp(x, d1) < 0:
                i = 0
            elif (t := v - f2) < -tol or t <= tol and cmp(x, d2) < 0:
                i = 1
            else:
                i = 2
            yield x, i
            s = shift[i]
            x = (x[0] + s[0], x[1] + s[1])

    def backward_points(self, start=(0, 0)) -> Iterator[Tuple[Tuple[int, int], int]]:
        """(T^-n(start), index of its letter) for n = 1, 2, ..."""
        fr = self.frame
        cmp, L, ef, b1, b2, shift = fr.cmp, fr.L, fr.ef, self.b1, self.b2, self.shift
        f1, f2 = fr.approx(b1), fr.approx(b2)
        base, step = fr.size(start) + fr.size(b1, b2), fr.size(*shift)
        x, check = start, 0
        for n in count():
            if n == check:
                check = 2 * n + 64
                tol = fr.tol(base + check * step)
            v = x[0] / L + x[1] / L * ef
            if (t := v - f1) < -tol or t <= tol and cmp(x, b1) < 0:
                i = 2
            elif (t := v - f2) < -tol or t <= tol and cmp(x, b2) < 0:
                i = 1
            else:
                i = 0
            s = shift[i]
            x = (x[0] - s[0], x[1] - s[1])
            yield x, i

    def forward(self, start=(0, 0)) -> Iterator[str]:
        """Letters u_0, u_1, ... coding the forward orbit."""
        for _x, i in self.forward_points(start):
            yield LETTERS[i]

    def backward(self, start=(0, 0)) -> Iterator[str]:
        """Letters u_-1, u_-2, ... coding the backward orbit."""
        for _x, i in self.backward_points(start):
            yield LETTERS[i]


def code_orbit(spec: IetSpec, frm: int, to: int) -> str:
    """Letters u_frm ... u_{to-1} of the word coding the orbit of 0."""
    if frm > to:
        raise ValueError("empty range must have frm <= to")
    coder = OrbitCoder(spec)
    parts = []
    if frm < 0:
        # u_-1 comes out first; trim to [frm, min(to,0)) and restore order
        back = "".join(islice(coder.backward(), -frm))
        parts.append((back[-to:] if to < 0 else back)[::-1])
    if to > 0:
        parts.append("".join(islice(coder.forward(), to))[max(frm, 0):])
    return "".join(parts)


def orbit_window(spec: IetSpec, radius: int) -> str:
    """The letters at positions [-radius, radius), as one string."""
    return code_orbit(spec, -radius, radius)
