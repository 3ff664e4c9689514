"""The normalized exchange of three intervals and orbit coding.

The map acts on [c, c+l) with discontinuities d1 = c+l-1+eps, d2 = c+eps:

    T(x) = x + 1-eps    on I1 = [c, d1)         letter A
    T(x) = x + 1-2*eps  on I2 = [d1, d2)        letter B
    T(x) = x - eps      on I3 = [d2, c+l)       letter C

Valid parameters satisfy eps in (0,1), 1 > l > max(1-eps, eps) and
0 in [c, c+l); all intervals are left-closed right-open.

`step` and `inverse_step` act on QuadNums and are the plain reference.
Every orbit is instead coded by one kernel, `code`, on the integer pairs
of a `qfield.Frame`, run on the base exchange or on an induced one: each
piece reads a word and moves by one integer translation, and the kernel
returns the words as text.  `read` chooses the exchange: the first
return map to a window around the start point, a level of the nested
induction `_induce` (the Rauzy-type induction of three-interval
exchanges), whose pieces read whole return words, or the base exchange
for short reads.  Floats only filter the comparisons of `code` and
`_induce`: a float margin inside the frame's error bound is decided by
the exact `Frame.cmp`.  `OrbitCoder.letters` runs `read` forward or
backward, so nothing else decides a letter.
`code_orbit` is the word-level wrapper; `sturmian.sturmian_word` runs
`read` on a rotation, `sturmian.sturmian_images_match` runs `_induce` on
two, and `invariance.return_substitution` on the windows of its synthesis.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import chain
from math import inf
from typing import Iterable, Iterator, Optional, Tuple

from .errors import OutOfDomain, RationalSlope
from .qfield import FieldDesc, Frame, QuadNum
from .quadunit import contraction

__all__ = ["IetSpec", "make_spec", "normalize", "step", "inverse_step", "code_orbit",
           "non_degenerate", "code", "read", "OrbitCoder", "orbit_window"]

LETTERS = "ABC"
INDUCE_COST = 32  # a level is induced for reads this many times its mean word; see `read`


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

    def contains(self, x: QuadNum) -> bool:
        return self.c <= x < self.end


def make_spec(eps: QuadNum, l: QuadNum, c: QuadNum, raw=None) -> IetSpec:
    """Validate the parameter constraints and build the spec."""
    if eps.q == 0:
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
    if eps.q == 0:
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


def code(frame: Frame, start, n: int, ends, moves, words, shift):
    """(text, end point) of the first n letters read from `start` by an
    exchange of k pieces.

    A point in [ends[i], ends[i+1]) reads words[i], of at least one letter,
    and moves by moves[i]; points, ends and moves are integer pairs of
    `frame`.  The piece of a point is the place of its float image among
    the inner ends, found by bisection.  It stands when the image clears
    both ends of the piece by the frame's error bound (an end moved by the
    bound is one more rounding, well inside the bound's safety factor);
    otherwise `Frame.cmp` against the k-1 inner ends decides it.  A letter
    moves a point by one of the moves of `shift`, {letter: move}, so a word
    of m letters grows its pair by at most m times the largest, and one
    bound taken at n letters serves the whole read.  Whole words are read
    until n letters are reached, in runs that cannot pass n; the last word
    is cut at n, and the end point is the point before it moved by the
    letters of the cut prefix.  This is the one loop that decides an
    orbit's letters.
    """
    L, ef, cmp = frame.L, frame.ef, frame.cmp
    cuts = ends[1:-1]
    inner = [frame.approx(p) for p in cuts]
    tol = frame.tol(frame.size(start) + frame.size(*cuts) + n * frame.size(*shift.values()))
    edges = [-inf, *inner, inf]
    # each piece: its word, its move and the open range of images it stands for
    table = [(w, m0, m1, lo + tol, hi - tol)
             for w, (m0, m1), lo, hi in zip(words, moves, edges, edges[1:])]
    longest = max(map(len, words))
    x0, x1 = start
    out, k = [], 0
    append = out.append
    while k < n:
        mark = len(out)
        for _ in range((n - k) // longest or 1):
            v = x0 / L + x1 / L * ef
            w, a0, a1, lo, hi = table[bisect(inner, v)]
            if not lo < v < hi:  # an end within the bound
                x = (x0, x1)
                w, a0, a1, lo, hi = table[sum(cmp(x, cut) >= 0 for cut in cuts)]
            append(w)
            x0 += a0
            x1 += a1
        k += sum(map(len, out[mark:]))
    if k > n:  # back over the last word, then on over its first letters
        out[-1] = w = w[:n - k]
        x0 -= a0
        x1 -= a1
        for a, (s0, s1) in shift.items():
            count = w.count(a)
            x0 += count * s0
            x1 += count * s1
    return "".join(out), (x0, x1)


def _induce(frame: Frame, pieces, lo, hi, texts):
    """First return map of the exchange `pieces` to the window [lo, hi).

    `pieces` tile, from left to right, a window that holds [lo, hi); each
    is (start, end, t, n, word): it moves by t and reads n letters.  A part
    of [lo, hi) is pushed through them, cut at every piece end and window
    end it straddles, until it lands in [lo, hi).  Returns the pieces of
    the first return in the same form, each word a tuple of indices into
    `pieces`.  Adjacent parts merge when they read the same letters, so
    equal n and t are not enough (shift_A + shift_C = shift_B), and equal
    index words are more than needed: a part that straddled an end of the
    old window may read the same letters through other pieces, which
    `texts`, the letters of `pieces`, settle.

    Points are integer pairs of `frame`.  A part [x, y) moved by t carries
    u = x + t, v = y + t and t; the floats of u and v, and so the bound
    below, are those of the sums.  u and v are compared through the
    frame's float filter: a margin between float images decides when it
    clears the bound `tol`, and `Frame.cmp` decides inside it.  The piece
    holding u is found by bisection on the float images of the piece ends,
    or, when u lies within the bound of one, by counting with `Frame.cmp`
    the ends at or below u.  A cut's ties are known and not compared: the
    part left of a piece end moves through that piece and the part right
    of it starts the next one; a part that meets the window is cut at hi
    and lo and lands between them, and its parts beyond do not meet it.
    The bound is carried per part.  With s the largest size of an end or
    window end, x and y are window ends or cuts m = end - t', t' an earlier
    translation of the part, so a margin sums sizes of at most
    2 * (s + size(t)); as `tol` is linear in the size, it starts at tol(2s)
    and grows by tol(2 * size) of each move the part takes.
    """
    L, ef, cmp = frame.L, frame.ef, frame.cmp
    ends = [p[1] for p in pieces]
    fends = [frame.approx(p) for p in ends]
    flo, fhi = frame.approx(lo), frame.approx(hi)
    # each piece: its move, its letter count and the bound that the move adds
    steps = [(*s, k, frame.tol(2 * frame.size(s))) for _, _, s, k, _ in pieces]
    last = len(pieces) - 1
    # a part is (u, v, t, tol, n, word, j): j is the piece u starts, None if unknown, -1 if landed
    out, todo = [], [(lo, hi, (0, 0), frame.tol(2 * frame.size(lo, hi, *ends)), 0, (), None)]
    while todo:
        (u0, u1), (v0, v1), (t0, t1), tol, n, word, j = todo.pop()
        fu, fv = u0 / L + u1 / L * ef, v0 / L + v1 / L * ef
        while j != -1:
            if j is None or j > last:  # the piece of u; past the last piece, this raises
                j = bisect(fends, fu)
                if not (j <= last and fends[j] - fu > tol and (j == 0 or fu - fends[j - 1] > tol)):
                    j = sum(cmp((u0, u1), e) >= 0 for e in ends)  # u near an end
                    if j > last:  # the pieces tile a window that holds every part
                        raise AssertionError("a part left the window of the pieces")
            if (d := fv - fends[j]) > tol or d >= -tol and cmp((v0, v1), ends[j]) > 0:
                todo.append((ends[j], (v0, v1), (t0, t1), tol, n, word, j + 1))
                (v0, v1), fv = ends[j], fends[j]
            s0, s1, k, grow = steps[j]
            u0, u1, v0, v1, t0, t1 = u0 + s0, u1 + s1, v0 + s0, v1 + s1, t0 + s0, t1 + s1
            n, word, tol, j = n + k, word + (j,), tol + grow, None
            fu, fv = u0 / L + u1 / L * ef, v0 / L + v1 / L * ef
            # [u, v) meets the window: u < hi and lo < v
            if ((d := fu - fhi) < -tol or d <= tol and cmp((u0, u1), hi) < 0) \
                    and ((d := fv - flo) > tol or d >= -tol and cmp((v0, v1), lo) > 0):
                j = -1
                if (d := fv - fhi) > tol or d >= -tol and cmp((v0, v1), hi) > 0:
                    todo.append((hi, (v0, v1), (t0, t1), tol, n, word, None))
                    (v0, v1), fv = hi, fhi
                if (d := fu - flo) < -tol or d <= tol and cmp((u0, u1), lo) < 0:
                    todo.append((lo, (v0, v1), (t0, t1), tol, n, word, -1))
                    (v0, v1), fv, j = lo, flo, None
        x, y, t = (u0 - t0, u1 - t1), (v0 - t0, v1 - t1), (t0, t1)
        if out and out[-1][2:4] == (t, n) and (out[-1][4] == word or "".join(
                texts[i] for i in out[-1][4]) == "".join(texts[i] for i in word)):
            out[-1] = (out[-1][0], y, t, n, word)
        else:
            out.append((x, y, t, n, word))
    return out


def read(frame: Frame, start, n: int, ends, moves, names: str):
    """(text, end point) of the first n letters read from `start` by the
    exchange whose piece [ends[i], ends[i+1]) reads names[i] and moves by
    moves[i], with `code` run on an induced exchange.

    With Omega = [ends[0], ends[-1]) and M = `contraction(frame.field)`,
    the integer matrix of a unit lam' in (0, 1) with lam * lam' = 1, the
    windows W_k = start + M^k (Omega - start) hold `start` and nest.  The
    first return map to W_k is induced from the one to W_(k-1) by `_induce`,
    W_0 = Omega being the exchange itself; each of its pieces reads a
    return word and moves by one translation, so `code` decides a piece
    per word instead of per letter.  The mean word length on W_k is
    |Omega| / |W_k| = lam^k, and trace(M^k) = lam^k + lam'^k is an integer
    within 1 of it.  Inducing a level pushes each of its few parts through
    about lam pieces, with exact comparisons, at about the cost of coding
    16 to 40 times lam words, so level k is induced only while
    INDUCE_COST * trace(M^k) <= n; level 0 codes letter by letter.
    """
    (m00, m01), (m10, m11) = contraction(frame.field)
    trace = m00 + m11
    before, t = 2, trace  # trace(M^(k-1)) and trace(M^k)
    x0, x1 = start

    def toward(p):  # start + M (p - start)
        a, b = p[0] - x0, p[1] - x1
        return (x0 + m00 * a + m01 * b, x1 + m10 * a + m11 * b)

    words, shift = names, dict(zip(names, moves))
    while INDUCE_COST * t <= n:
        lo, hi = toward(ends[0]), toward(ends[-1])
        pieces = _induce(frame, [(a, b, s, len(w), ()) for a, b, s, w in
                                zip(ends, ends[1:], moves, words)], lo, hi, words)
        ends, moves = [p[0] for p in pieces] + [hi], [p[2] for p in pieces]
        words = ["".join(words[i] for i in p[4]) for p in pieces]
        before, t = t, trace * t - before
    return code(frame, start, n, ends, moves, words, shift)


class OrbitCoder:
    """Exact orbit coding on the integer pairs of a `Frame`.

    The frame holds c, l, eps and any `extra` numbers the caller wants to
    compare orbit points with (lam' * x for a unit lam' of Z[e] needs none:
    its pair is M * pair(x), M the integer matrix of lam').  `letters` codes
    the orbit with `read`, on the exchange with cuts d1, d2 (forward) or
    c+l-eps, c+1-eps (backward; the images tile the domain as T(I3), T(I2),
    T(I1)), or on its first return map to a window around the start point.
    """

    def __init__(self, spec: IetSpec, extra: Iterable[QuadNum] = ()):
        self.frame = fr = Frame(spec.field, [spec.c, spec.l, spec.eps, *extra])
        self.c, self.d1, self.d2, self.end = map(fr.pair, (spec.c, spec.d1, spec.d2, spec.end))
        # forward shifts for letters A, B, C: 1 - eps, 1 - 2*eps, -eps
        shifts = spec.shifts()
        self.shift = tuple(map(fr.pair, shifts))
        # the backward cuts c+l-eps and c+1-eps
        b1, b2 = fr.pair(spec.end + shifts[2]), fr.pair(spec.c + shifts[0])
        back = tuple((-s[0], -s[1]) for s in self.shift)
        # read's arguments: backward, T^-1 reads C below b1, B below b2, else A
        self._read = (((self.c, self.d1, self.d2, self.end), self.shift, LETTERS),
                      ((self.c, b1, b2, self.end), back[::-1], "CBA"))

    def letters(self, n: int, start=(0, 0), back: bool = False) -> Tuple[str, Tuple[int, int]]:
        """(u_0 ... u_{n-1}, T^n(start)) of the orbit of `start`; with
        back=True, (u_-1 ... u_-n, T^-n(start)).  Resuming from the returned
        point continues the same word.  A start outside [c, c+l) has no
        orbit to read and raises OutOfDomain."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        cmp = self.frame.cmp
        if cmp(start, self.c) < 0 or cmp(start, self.end) >= 0:
            raise OutOfDomain(f"{self.frame.point(start)} not in [c, c+l)")
        return read(self.frame, start, n, *self._read[back])

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
