"""The return walk: the first return map on J = lam' * [c, c+l) read letter
by letter, an oracle for the nested induction of
`invariance.return_substitution`.  For eps' > 1 it walks the
reversal-reduced spec, so on those slopes it also checks the induction's
direct path through an independent identity.

`walk_substitution` walks each K_i = lam' * I_i through the exchange until
it returns to J, keeping it inside the interval of every letter read; its
cost grows like lam.  The walk tests its points through the frame's float
filter, and every margin inside the frame's error bound is decided by the
exact `Frame.cmp`.
"""

from iet3 import OrbitCoder, Substitution, make_spec
from iet3.errors import InvalidUnit, Iet3Error, StepBudgetExceeded
from iet3.iet import LETTERS
from oracles import orbit_points

STEP_BUDGET = 10**6  # cap on the steps of one walk


class StraddlesDiscontinuity(Iet3Error):
    """A tracked interval properly crosses a discontinuity point."""


class NotApplicable(Iet3Error):
    """The reversal reduction asked for a slope with eps' < 0."""


def reduce_by_reversal(spec):
    """Parameters (1-eps, l, c), coding the reversed word up to an A/C swap:
    the reduced exchange is T^-1 with A and C swapped, so its word u* is
    u*_n = swap(u_(-1-n)).  Applicable when eps' > 1; the reduced slope
    has conjugate 1-eps' < 0.
    """
    if not spec.eps.conjugate() > 1:
        raise NotApplicable("reversal reduction needs eps' > 1")
    return make_spec(spec.field.one() - spec.eps, spec.l, spec.c)


def walk_interval(coder, lo, hi, js, je, budget=STEP_BUDGET):
    """Track [lo, hi) through the exchange until it returns inside J = [js, je).

    All four are pairs of `coder.frame`, lo in the domain.  The interval
    moves rigidly, so the walk follows the orbit of lo and keeps hi at the
    fixed offset hi - lo.  Returns the word read and the landing (x, y).
    The overlap and straddle tests use the frame's float filter, with its
    bound for `budget` steps; the containment test runs once, exactly.
    """
    fr = coder.frame
    cmp, L, ef = fr.cmp, fr.L, fr.ef
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    # with y = x + w, the tests of y against js and the right ends of I1,
    # I2, I3 are tests of x against the same cuts less w
    jw, *uw = ((p[0] - w0, p[1] - w1) for p in (js, coder.d1, coder.d2, coder.end))
    fjw, fje, fuw = fr.approx(jw), fr.approx(je), [fr.approx(p) for p in uw]
    # x is at most `budget` shifts from lo
    tol = fr.tol(fr.size(lo) + budget * fr.size(*coder.shift) + fr.size(jw, je, *uw))
    name = []
    for n, (x, i) in enumerate(orbit_points(coder, lo)):
        v = x[0] / L + x[1] / L * ef
        # [x, y) meets J when y > js and x < je
        if n and ((t := v - fjw) > tol or t >= -tol and cmp(x, jw) > 0) \
                and ((t := v - fje) < -tol or t <= tol and cmp(x, je) < 0):
            y = (x[0] + w0, x[1] + w1)
            if cmp(x, js) >= 0 and cmp(y, je) <= 0:
                return "".join(name), (x, y)
            raise StraddlesDiscontinuity("tracked interval straddles an endpoint of J")
        if n == budget:
            raise StepBudgetExceeded(f"return walk exceeded {budget} steps")
        if (t := v - fuw[i]) > tol or t >= -tol and cmp(x, uw[i]) > 0:  # y > right end
            raise StraddlesDiscontinuity("tracked interval crosses a discontinuity of the exchange")
        name.append(LETTERS[i])


def walk_substitution(spec, lam):
    """(homothety_ok, substitution) of the three walks on J = lam' * [c, c+l).

    For eps' > 1 the walks run on the reversal-reduced spec and each image
    comes back reversed, with A and C swapped."""
    conj = lam.conjugate()
    if not 0 < conj < 1:
        raise InvalidUnit(f"lambda' = {conj} is not in (0, 1)")
    reduced = spec.eps.conjugate() > 1
    spec = reduce_by_reversal(spec) if reduced else spec
    # K_i = lam' * I_i must land on lam' * T(I_i), where T(I3), T(I2),
    # T(I1) tile [c, c+l) at c+l-eps and c+1-eps
    scaled = [conj * x for x in (spec.c, spec.d1, spec.d2, spec.end,
                                 spec.end - spec.eps, spec.c + 1 - spec.eps)]
    coder = OrbitCoder(spec, scaled)
    c, d1, d2, end, b1, b2 = (coder.frame.pair(x) for x in scaled)
    names, landed = zip(*(walk_interval(coder, lo, hi, c, end)
                          for lo, hi in ((c, d1), (d1, d2), (d2, end))))
    if reduced:  # phi(A), phi(B), phi(C) are the walks of C, B, A reversed, A and C swapped
        names = [w[::-1].translate(str.maketrans("AC", "CA")) for w in reversed(names)]
    sub = Substitution(("A", "B", "C"), dict(zip("ABC", names)))
    return landed == ((b2, end), (b1, b2), (c, b1)), sub
