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

`sturmian_word` codes the rotation by the slope with `iet.read`, the
orbit kernel run on the base exchange or on an induced one: a rotation is
an exchange of two pieces, and its first return map to a window around
the intercept reads whole words.  The kernel decides each piece with the
float filter of a `qfield.Frame`, exactly by `Frame.cmp` inside its error
bound, so floats never decide a letter on their own.  Ceiling rounding is
the floor word of the complementary slope and intercept with 0 and 1
swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownLetter
from .iet import IetSpec, OrbitCoder, non_degenerate, read
from .invariance import decide, is_sturm
from .qfield import Frame, QuadNum

__all__ = ["SturmianSpec", "sturmian_word", "sigma", "sturmian_images_match",
           "yasutomi", "corollary_crosscheck"]

_AC = str.maketrans("AC", "01")  # A -> 0 and C -> 1
_NOT_ABC = str.maketrans("", "", "ABC")  # deletes A, B and C


@dataclass(frozen=True)
class SturmianSpec:
    alpha: QuadNum  # slope, irrational in (0, 1)
    x0: QuadNum  # intercept in [0, 1)
    rounding: str = "floor"  # or "ceiling"

    def __post_init__(self):
        if self.alpha.q == 0:
            raise ValueError("slope must be irrational")
        if not (self.alpha.field.zero() < self.alpha < self.alpha.field.one()):
            raise ValueError(f"slope {self.alpha} not in (0, 1)")
        if not (self.x0 >= 0 and self.x0 < 1):
            raise ValueError(f"intercept {self.x0} not in [0, 1)")
        if self.rounding not in ("floor", "ceiling"):
            raise ValueError("rounding must be 'floor' or 'ceiling'")


def sturmian_word(spec: SturmianSpec, n: int) -> str:
    """First n letters u_k = round((k+1)a + x0) - round(ka + x0), exactly.

    For floor rounding u_k = 1 iff frac(ka + x0) >= 1 - a: the coding of
    the rotation y -> y + a mod 1 from x0, the exchange of [0, 1 - a)
    and [1 - a, 1) with the moves a, a - 1, run by `iet.read`.  As
    ceil(z) = -floor(-z), the ceiling word is the floor word of slope
    1 - a and intercept frac(-x0) with 0 and 1 swapped.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    alpha, x0, names = spec.alpha, spec.x0, "01"
    if spec.rounding == "ceiling":
        alpha, x0, names = 1 - alpha, (-x0).frac(), "10"
    fr = Frame(alpha.field, [alpha, x0])
    a = fr.pair(alpha)
    ends, moves = ((0, 0), fr.pair(1 - alpha), (fr.L, 0)), (a, (a[0] - fr.L, a[1]))
    return read(fr, fr.pair(x0), n, ends, moves, names)[0]


def sigma(variant: str, word: str) -> str:
    """Image of a word over {A,B,C} under sigma01 or sigma10."""
    if variant not in ("01", "10"):
        raise ValueError("variant must be '01' or '10'")
    unknown = word.translate(_NOT_ABC)
    if unknown:
        raise UnknownLetter(f"letter {unknown[0]!r} not in ABC")
    return word.replace("B", variant).translate(_AC)  # B's image is the variant


def sturmian_images_match(spec3: IetSpec, radius: int) -> bool:
    """Do the sigma images of the exchange word equal the predicted
    Sturmian words (slope 1-eps, intercept -c mod 1; slope 1-eps,
    intercept -(l+c) mod 1) over `radius` letters of the images?"""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    # each letter has an image of one or two letters, so radius letters reach radius
    word, _ = OrbitCoder(spec3).letters(radius)
    eps, one = spec3.eps, spec3.field.one()
    expected01 = sturmian_word(SturmianSpec(one - eps, (-spec3.c).frac()), radius)
    expected10 = sturmian_word(SturmianSpec(one - eps, (-spec3.l - spec3.c).frac()), radius)
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
    both = yasutomi(spec3.eps, (-spec3.c).frac()) and yasutomi(
        one - spec3.eps, (spec3.l + spec3.c).frac()
    )
    return (verdict == "Invariant") == both
