"""Sturmian words, the two projection morphisms to {0,1}, and the
invariance criterion for Sturmian words (slope a Sturm number, intercept
conjugate between the conjugates of slope and co-slope).

The projections sigma01: A->0, B->01, C->1 and sigma10: A->0, B->10,
C->1 send a three-letter exchange word to the Sturmian words with slope
1-eps / intercept -c and slope 1-eps / intercept -(l+c) respectively:
each image codes the orbit of 0 under the rotation by 1-eps from which
the exchange is induced, with the middle letter split as 01 (virtual
region to the right of the domain) or 10 (virtual region to the left);
checking
those identities letter by letter, and checking that the three-letter
decision agrees with the two Sturmian decisions, are the strongest
independent cross-checks of the main decision procedure.

`sturmian_word` decides each letter with the float filter of a
`qfield.Frame`: a float margin inside the frame's error bound is decided
by the exact `Frame.cmp`, so floats never decide a letter on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownLetter
from .iet import IetSpec, OrbitCoder, non_degenerate
from .invariance import decide, is_sturm
from .qfield import Frame, QuadNum

__all__ = ["SturmianSpec", "sturmian_word", "sigma", "sturmian_images_match",
           "yasutomi", "corollary_crosscheck"]

SIGMA_01 = {"A": "0", "B": "01", "C": "1"}
SIGMA_10 = {"A": "0", "B": "10", "C": "1"}


@dataclass(frozen=True)
class SturmianSpec:
    alpha: QuadNum  # slope, irrational in (0, 1)
    x0: QuadNum  # intercept in [0, 1)
    rounding: str = "floor"  # or "ceiling"

    def __post_init__(self):
        if self.alpha.b == 0:
            raise ValueError("slope must be irrational")
        if not (self.alpha.field.zero() < self.alpha < self.alpha.field.one()):
            raise ValueError(f"slope {self.alpha} not in (0, 1)")
        if not (self.x0 >= 0 and self.x0 < 1):
            raise ValueError(f"intercept {self.x0} not in [0, 1)")
        if self.rounding not in ("floor", "ceiling"):
            raise ValueError("rounding must be 'floor' or 'ceiling'")


def sturmian_word(spec: SturmianSpec, n: int) -> str:
    """First n letters u_k = round((k+1)a + x0) - round(ka + x0), exactly.

    Runs on the integer pairs of a Frame: u_k = 1 iff k*a + x0 + a passes
    the next integer, decided by one comparison per letter through the
    frame's float filter, exact inside its bound.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    fr = Frame(spec.alpha.field, [spec.alpha, spec.x0])
    cmp, L, ef, al = fr.cmp, fr.L, fr.ef, fr.pair(spec.alpha)
    strict = spec.rounding == "ceiling"
    # y = k*alpha + x0 - r, scaled by L, where r is the current rounded
    # value; x0 in [0,1) so floor is 0, ceiling is 1 unless x0 == 0
    y = fr.pair(spec.x0 - 1 if strict and spec.x0.sign() > 0 else spec.x0)
    # the rounded value advances when floor: y >= 1; ceiling: y > 0
    # (slope < 1 means at most one advance per step)
    target = (0, 0) if strict else (L, 0)
    ft = fr.approx(target)
    # y gains alpha and loses at most 1 per letter
    base, step = fr.size(y) + fr.size(target), fr.size(al) + fr.size((L, 0))
    out, check = [], 0
    for k in range(n):
        if k == check:
            check = 2 * k + 64
            tol = fr.tol(base + check * step)
        y = (y[0] + al[0], y[1] + al[1])
        t = y[0] / L + y[1] / L * ef - ft
        s = 1 if t > tol else -1 if t < -tol else cmp(y, target)
        if s > 0 or (s == 0 and not strict):
            y = (y[0] - L, y[1])
            out.append("1")
        else:
            out.append("0")
    return "".join(out)


def sigma(variant: str, word: str) -> str:
    """Image of a word over {A,B,C} under sigma01 or sigma10."""
    table = {"01": SIGMA_01, "10": SIGMA_10}.get(variant)
    if table is None:
        raise ValueError("variant must be '01' or '10'")
    try:
        return "".join(table[ch] for ch in word)
    except KeyError as exc:
        raise UnknownLetter(f"letter {exc.args[0]!r} not in ABC") from None


def _frac(x: QuadNum) -> QuadNum:
    return x - x.floor()


def sturmian_images_match(spec3: IetSpec, radius: int) -> bool:
    """Do the sigma images of the exchange word equal the predicted
    Sturmian words (slope 1-eps, intercept -c mod 1; slope 1-eps,
    intercept -(l+c) mod 1) over `radius` letters of the images?"""
    # read until the images (B gives two letters, A and C one) reach radius
    letters, word, length = OrbitCoder(spec3).forward(), [], 0
    while length < radius:
        word.append(next(letters))
        length += len(SIGMA_01[word[-1]])
    word = "".join(word)
    eps, one = spec3.eps, spec3.field.one()
    expected01 = sturmian_word(SturmianSpec(one - eps, _frac(-spec3.c)), radius)
    expected10 = sturmian_word(SturmianSpec(one - eps, _frac(-(spec3.l + spec3.c))), radius)
    return (
        sigma("01", word)[:radius] == expected01
        and sigma("10", word)[:radius] == expected10
    )


def yasutomi(alpha: QuadNum, x0: QuadNum) -> bool:
    """Substitution invariance of the Sturmian word with slope alpha and
    intercept x0 (x0 in Q(alpha) is enforced by the argument type)."""
    if not is_sturm(alpha):
        return False
    conj = alpha.conjugate()
    co = alpha.field.one() - conj
    lo, hi = (conj, co) if conj < co else (co, conj)
    x0c = x0.conjugate()
    return lo <= x0c <= hi


def corollary_crosscheck(spec3: IetSpec) -> bool:
    """Does the three-letter decision agree with the two Sturmian decisions?"""
    if not non_degenerate(spec3):
        raise ValueError("cross-check needs a non-degenerate spec")
    verdict = decide(spec3, synthesize_witness=False).verdict
    one = spec3.field.one()
    both = yasutomi(spec3.eps, _frac(-spec3.c)) and yasutomi(
        one - spec3.eps, _frac(spec3.l + spec3.c)
    )
    return (verdict == "Invariant") == both
