"""The normalized exchange of three intervals and orbit coding.

The map acts on [c, c+l) with discontinuities d1 = c+l-1+eps, d2 = c+eps:

    T(x) = x + 1-eps    on I1 = [c, d1)         letter A
    T(x) = x + 1-2*eps  on I2 = [d1, d2)        letter B
    T(x) = x - eps      on I3 = [d2, c+l)       letter C

Valid parameters satisfy eps in (0,1), 1 > l > max(1-eps, eps) and
0 in [c, c+l); all intervals are left-closed right-open.

`step` and `inverse_step` act on QuadNums and are the plain reference.
Every orbit is instead coded by one kernel, `code`, on the integer pairs
of a `qfield.Frame`: a step is an integer addition and a letter at most
two comparisons with the cuts, and it returns the letters as text.
Floats only filter these comparisons: a float margin inside the frame's
error bound is decided by the exact `Frame.cmp`.  `OrbitCoder.letters`
runs it forward or backward; `OrbitCoder.points` derives the orbit points
from that text as running sums of the moves, so nothing else decides a
letter.  `code_orbit` is the word-level wrapper; `sturmian.sturmian_word`
runs the same kernel on a rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Iterator, List, Optional, Tuple

from .errors import OutOfDomain, RationalSlope
from .qfield import FieldDesc, Frame, QuadNum

__all__ = ["IetSpec", "make_spec", "normalize", "step", "inverse_step", "code_orbit",
           "non_degenerate", "code", "OrbitCoder", "orbit_window"]

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


def code(frame: Frame, start, n: int, cut1, cut2, moves, names: str):
    """(text, end point) of n steps of an exchange with two cuts.

    A point below `cut1` reads names[0] and moves by moves[0], one below
    `cut2` names[1] and moves[1], any other names[2] and moves[2]; points,
    cuts and moves are integer pairs of `frame`.  Each comparison is the
    float margin t = approx(x) - approx(cut) against the frame's error
    bound, with `Frame.cmp` inside it.  A pair grows by at most one move
    per step, so the bound of the chunk of steps k ... 2k + 63 is taken at
    step 2k + 64.  This is the one loop that decides an orbit's letters.
    """
    L, ef, cmp = frame.L, frame.ef, frame.cmp
    f1, f2 = frame.approx(cut1), frame.approx(cut2)
    (a0, a1), (b0, b1), (c0, c1) = moves
    na, nb, nc = names
    base, grow = frame.size(start) + frame.size(cut1, cut2), frame.size(*moves)
    x0, x1 = start
    out, k = [], 0
    append = out.append
    while k < n:
        check = 2 * k + 64
        tol = frame.tol(base + check * grow)
        ntol = -tol
        for _ in range(min(n, check) - k):
            v = x0 / L + x1 / L * ef
            if (t := v - f1) < ntol or t <= tol and cmp((x0, x1), cut1) < 0:
                append(na)
                x0 += a0
                x1 += a1
            elif (t := v - f2) < ntol or t <= tol and cmp((x0, x1), cut2) < 0:
                append(nb)
                x0 += b0
                x1 += b1
            else:
                append(nc)
                x0 += c0
                x1 += c1
        k = check
    return "".join(out), (x0, x1)


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def spec_pairs(one, eps, c, l):
    """The pairs of the cuts (c, d1, d2, c+l) and of the shifts of A, B, C,
    given the pairs of 1, eps, c and l.  Each is an integer combination of
    those four, so given the pairs of lam' * (1, eps, c, l) it returns the
    cuts and shifts scaled by lam'."""
    (u0, u1), (e0, e1), (c0, c1), (l0, l1) = one, eps, c, l
    end = (c0 + l0, c1 + l1)
    cuts = ((c0, c1), (end[0] - u0 + e0, end[1] - u1 + e1), (c0 + e0, c1 + e1), end)
    shifts = ((u0 - e0, u1 - e1), (u0 - 2 * e0, u1 - 2 * e1), (-e0, -e1))
    return cuts, shifts


class OrbitCoder:
    """Exact orbit coding on the integer pairs of a `Frame`.

    The frame holds c, l, eps and any `extra` numbers the caller wants to
    compare orbit points with.  `letters` codes the orbit with `code`: the
    letter of a point is decided against the cuts d1, d2 (forward) or
    c+l-eps, c+1-eps (backward, where the images tile the domain as
    T(I3), T(I2), T(I1)).  Everything else reads its text: `points`
    rebuilds the orbit points as running sums of the moves.
    """

    def __init__(self, spec: IetSpec, extra: Iterable[QuadNum] = ()):
        self.frame = fr = Frame(spec.field, [spec.c, spec.l, spec.eps, *extra])
        # forward shifts for letters A, B, C: 1 - eps, 1 - 2*eps, -eps
        (self.c, self.d1, self.d2, self.end), self.shift = spec_pairs(
            (fr.L, 0), fr.pair(spec.eps), fr.pair(spec.c), fr.pair(spec.l))
        # the backward cuts c+l-eps and c+1-eps
        self.b1, self.b2 = _add(self.end, self.shift[2]), _add(self.c, self.shift[0])
        back = tuple((-s[0], -s[1]) for s in self.shift)
        self._moves = (dict(zip(LETTERS, self.shift)), dict(zip(LETTERS, back)))
        # code's arguments: backward, T^-1 reads C below b1, B below b2, else A
        self._code = ((self.d1, self.d2, self.shift, LETTERS),
                      (self.b1, self.b2, back[::-1], "CBA"))

    def letters(self, n: int, start=(0, 0), back: bool = False) -> Tuple[str, Tuple[int, int]]:
        """(u_0 ... u_{n-1}, T^n(start)) of the orbit of `start`; with
        back=True, (u_-1 ... u_-n, T^-n(start)).  Resuming from the returned
        point continues the same word."""
        return code(self.frame, start, n, *self._code[back])

    def points(self, text: str, start=(0, 0), back: bool = False) -> List[Tuple[int, int]]:
        """The orbit point of each letter of `text`, read from `start` as
        `letters` reads it: T^k(start) for u_k, or T^-k-1(start) for u_-k-1."""
        pts = list(accumulate((self._moves[back][a] for a in text), _add, initial=start))
        return pts[1:] if back else pts[:-1]

    def _chunks(self, start, back):
        """(first point, text) of `letters` read on from `start`, in chunks
        of doubling length."""
        n = 64
        while True:
            text, end = self.letters(n, start, back)
            yield start, text
            start, n = end, 2 * n

    def forward(self, start=(0, 0)) -> Iterator[str]:
        """Letters u_0, u_1, ... of `letters`, streamed in chunks."""
        return chain.from_iterable(text for _x, text in self._chunks(start, False))

    def backward(self, start=(0, 0)) -> Iterator[str]:
        """Letters u_-1, u_-2, ... of `letters`, streamed in chunks."""
        return chain.from_iterable(text for _x, text in self._chunks(start, True))


def code_orbit(spec: IetSpec, frm: int, to: int) -> str:
    """Letters u_frm ... u_{to-1} of the word coding the orbit of 0."""
    if frm > to:
        raise ValueError("empty range must have frm <= to")
    coder = OrbitCoder(spec)
    parts = []
    if frm < 0:
        # u_-1 comes out first; trim to [frm, min(to,0)) and restore order
        back, _ = coder.letters(-frm, back=True)
        parts.append((back[-to:] if to < 0 else back)[::-1])
    if to > 0:
        parts.append(coder.letters(to)[0][max(frm, 0):])
    return "".join(parts)


def orbit_window(spec: IetSpec, radius: int) -> str:
    """The letters at positions [-radius, radius), as one string."""
    return code_orbit(spec, -radius, radius)
