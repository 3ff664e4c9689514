"""Deciding substitution invariance of a 3iet word and synthesizing the
substitution as the first return map on a scaled copy of the domain.

The decision itself is three exact sign checks on Galois conjugates.  For
an Invariant verdict `return_substitution` walks each K_i = lam' * I_i
through the exchange until it returns to J = lam' * [c, c+l), keeping it
inside the interval of every letter read; that word is phi(i).  The walk
is the proof: if each K_i lands on lam' * T(I_i) (the homothety check),
the orbit of lam' * x, x in I_i, reads phi(i) and ends at lam' * T(x), so
by induction from 0 = lam' * 0, u = phi(u) on both sides.  J is scaled by
the one unit `synthesize` derives from c and c+l; every orbit walk stops
after `STEP_BUDGET` steps.

The three walks share one `iet.OrbitCoder`; they, the ancestor
search and the block-start check run on its integer points, in a frame
that also holds the lam'-scaled numbers they compare with.  The walk
tests its points through the frame's float filter: floats only filter,
and every margin inside the frame's error bound is decided by the exact
`Frame.cmp`.  The block cut is `Substitution.block_starts`, the one
`verify_fixed_point` makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Dict, Optional, Tuple

from .errors import (InvalidUnit, NotApplicable, OutOfDomain, StepBudgetExceeded,
                     StraddlesDiscontinuity, WitnessRejected)
from .iet import LETTERS, IetSpec, OrbitCoder, make_spec, step
from .qfield import QuadNum, denominator
from .quadunit import ScalingUnit, class_fixing_power, lemma_unit
from .substitution import Substitution

__all__ = [
    "ReturnSystem",
    "DecisionReport",
    "is_sturm",
    "decide",
    "synthesize",
    "return_substitution",
    "ancestor",
    "check_lemma_ancestor",
    "check_block_starts",
    "reduce_by_reversal",
]

STEP_BUDGET = 10**6  # cap on the steps of one orbit walk
_REVERSAL_SWAP = {"A": "C", "B": "B", "C": "A"}


@dataclass(frozen=True)
class ReturnSystem:
    """First return data on J = lam' * [c, c+l)."""

    j_start: QuadNum
    j_end: QuadNum
    subintervals: Tuple[Tuple[QuadNum, QuadNum], ...]  # K1, K2, K3
    return_names: Tuple[str, str, str]
    homothety_ok: bool

    @property
    def return_times(self) -> Tuple[int, int, int]:
        return tuple(len(w) for w in self.return_names)


@dataclass
class DecisionReport:
    verdict: str  # "Invariant" | "NotInvariant" | "Degenerate"
    spec: IetSpec
    conditions: Dict[str, bool] = dc_field(default_factory=dict)
    unit: Optional[ScalingUnit] = None
    return_system: Optional[ReturnSystem] = None
    substitution: Optional[Substitution] = None
    checks: Dict[str, bool] = dc_field(default_factory=dict)
    reversed_reduction: bool = False


def is_sturm(eps: QuadNum) -> bool:
    """eps in (0, 1) and its conjugate outside (0, 1)."""
    if eps.b == 0:
        return False
    zero, one = eps.field.zero(), eps.field.one()
    conj = eps.conjugate()
    return zero < eps < one and not (zero < conj < one)


def reduce_by_reversal(spec: IetSpec) -> IetSpec:
    """Parameters (1-eps, l, c), coding the reversed word up to an A/C swap:
    the reduced exchange is T^-1 with A and C swapped, so its word u* is
    u*_n = swap(u_(-1-n)).  Applicable when eps' > 1; the reduced slope
    has conjugate 1-eps' < 0.
    """
    if not spec.eps.conjugate() > 1:
        raise NotApplicable("reversal reduction needs eps' > 1")
    return make_spec(spec.field.one() - spec.eps, spec.l, spec.c)


def ancestor(spec: IetSpec, j_start: QuadNum, j_end: QuadNum, z0: QuadNum) -> QuadNum:
    """The point of [j_start, j_end) whose return block contains z0.

    Found by backward iteration; the first backward hit of J is the
    ancestor because the forward path from it to z0 avoids J.
    """
    if not spec.contains(z0):
        raise OutOfDomain(f"{z0} not in [{spec.c}, {spec.end})")
    coder = OrbitCoder(spec, (j_start, j_end, z0))
    fr = coder.frame
    js, je, z = fr.pair(j_start), fr.pair(j_end), fr.pair(z0)
    back = coder.backward_points(z)
    for _ in range(STEP_BUDGET):
        if fr.cmp(z, js) >= 0 and fr.cmp(z, je) < 0:
            return fr.point(z)
        z, _letter = next(back)
    raise StepBudgetExceeded(f"no ancestor of {z0} found within {STEP_BUDGET} steps")


def check_lemma_ancestor(spec: IetSpec, unit: ScalingUnit, z0: QuadNum) -> bool:
    """Ancestor-equals-scaling criterion against its sign-check form.

    True iff  anc_J(z0) == lam'*z0  agrees with  z0' <= 0 <= (T(z0))'.
    """
    conj = unit.lam_conj
    j_start, j_end = conj * spec.c, conj * spec.end
    left = ancestor(spec, j_start, j_end, z0) == conj * z0
    tz, _ = step(spec, z0)
    right = z0.conjugate().sign() <= 0 and tz.conjugate().sign() >= 0
    return left == right


def check_block_starts(spec: IetSpec, unit: ScalingUnit, sub: Substitution,
                       window: int = 1000) -> bool:
    """Are the block starts of the substitution decomposition exactly the
    orbit points falling in J = lam' * [c, c+l)?

    True iff, for every n in (-window, window), the blocks sub(u_m) of
    `Substitution.block_starts` spell the orbit word u_n, T^n(0) lies in J
    exactly when a block starts at n, and the started letter names the
    scaled subinterval lam' * I_i containing the point.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    conj = unit.lam_conj
    scaled = [conj * x for x in (spec.c, spec.d1, spec.d2, spec.end)]
    coder = OrbitCoder(spec, scaled)
    cmp = coder.frame.cmp
    # J = [cuts[0], cuts[3]) and lam' * I_i = [cuts[i], cuts[i+1])
    cuts = [coder.frame.pair(x) for x in scaled]
    for points, back in ((islice(coder.forward_points(), window), False),
                         (islice(coder.backward_points(), window - 1), True)):
        points = list(points)
        starts = sub.block_starts("".join(LETTERS[i] for _x, i in points), back)
        if starts is None:
            return False
        for k, (x, _i) in enumerate(points):
            in_j = cmp(x, cuts[0]) >= 0 and cmp(x, cuts[3]) < 0
            if in_j != (k in starts):
                return False
            if in_j:
                i = LETTERS.index(starts[k])
                if not (cmp(x, cuts[i]) >= 0 and cmp(x, cuts[i + 1]) < 0):
                    return False
    return True


def _walk_interval(coder: OrbitCoder, lo, hi, js, je):
    """Track [lo, hi) through the exchange until it returns inside J = [js, je).

    All four are pairs of `coder.frame`, lo in the domain.  The interval
    moves rigidly, so the walk follows the orbit of lo and keeps hi at the
    fixed offset hi - lo.  Returns the word read and the landing (x, y).
    The overlap and straddle tests use the frame's float filter, with its
    bound for STEP_BUDGET steps; the containment test runs once, exactly.
    """
    fr, budget = coder.frame, STEP_BUDGET
    cmp, L, ef = fr.cmp, fr.L, fr.ef
    w0, w1 = hi[0] - lo[0], hi[1] - lo[1]
    # with y = x + w, the tests of y against js and the right ends of I1,
    # I2, I3 are tests of x against the same cuts less w
    jw, *uw = ((p[0] - w0, p[1] - w1) for p in (js, coder.d1, coder.d2, coder.end))
    fjw, fje, fuw = fr.approx(jw), fr.approx(je), [fr.approx(p) for p in uw]
    # x is at most `budget` shifts from lo
    tol = fr.tol(fr.size(lo) + budget * fr.size(*coder.shift) + fr.size(jw, je, *uw))
    name = []
    for n, (x, i) in enumerate(coder.forward_points(lo)):
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


def return_substitution(spec: IetSpec, lam: QuadNum) -> Tuple[ReturnSystem, Substitution]:
    """Return system on J = lam' * [c, c+l), 0 < lam' < 1, and the substitution
    of its return words.  For eps' > 1 the walks run on the reversal-reduced
    spec (same J) and each image comes back reversed, with A and C swapped."""
    conj = lam.conjugate()
    if not 0 < conj < 1:
        raise InvalidUnit(f"lambda' = {conj} is not in (0, 1)")
    reduced = spec.eps.conjugate() > 1
    spec = reduce_by_reversal(spec) if reduced else spec
    # lam' * (c, d1, d2, c+l, c+l-eps, c+1-eps): K_i = lam' * I_i returns
    # to J, and homothety asks that it lands on lam' * T(I_i), where
    # T(I3), T(I2), T(I1) tile [c, c+l) at the last two cuts
    scaled = [conj * x for x in (spec.c, spec.d1, spec.d2, spec.end,
                                 spec.end - spec.eps, spec.c + 1 - spec.eps)]
    coder = OrbitCoder(spec, scaled)
    c, d1, d2, end, b1, b2 = (coder.frame.pair(x) for x in scaled)
    names, landed = zip(*(_walk_interval(coder, lo, hi, c, end)
                          for lo, hi in ((c, d1), (d1, d2), (d2, end))))
    sub = Substitution(("A", "B", "C"), dict(zip("ABC", names)))
    ret = ReturnSystem(scaled[0], scaled[3], tuple(zip(scaled[:3], scaled[1:4])),
                       names, landed == ((b2, end), (b1, b2), (c, b1)))
    if reduced:
        sub = sub.relabel(_REVERSAL_SWAP).reversed_images()
    return ret, sub


def synthesize(spec: IetSpec):
    """Scaling unit, return system and proven substitution for `spec`.

    Requires decide(spec) == Invariant.  The unit is the least power of the
    fundamental unit whose conjugate fixes the classes of c and c+l mod Z[e],
    the classes of every cut the walk compares.  The walks of
    `return_substitution` and the homothety check prove u = phi(u); the
    eigenvector check is an independent recheck.  A witness that fails
    either raises `WitnessRejected`.
    """
    anchors = [spec.c, spec.end]
    unit = class_fixing_power(lemma_unit(spec.field), denominator(anchors), anchors)
    ret, sub = return_substitution(spec, unit.lam)
    if not ret.homothety_ok:
        raise WitnessRejected(f"the return system of lambda = {unit.lam} fails the homothety check")
    if not sub.check_eigenvector(spec.eps, unit.lam):
        raise WitnessRejected(f"the substitution fails the eigenvector check for lambda = {unit.lam}")
    return unit, ret, sub


def decide(spec: IetSpec, synthesize_witness: bool = True) -> DecisionReport:
    """Full decision: verdict, exact condition record, and (when Invariant)
    a synthesized, verified substitution."""
    report = DecisionReport(verdict="NotInvariant", spec=spec)
    if spec.l.in_z_eps():
        report.verdict = "Degenerate"
        return report

    eps_c = spec.eps.conjugate()
    c_c = spec.c.conjugate()
    l_c = spec.l.conjugate()
    one = spec.field.one()
    lo = eps_c if eps_c < one - eps_c else one - eps_c
    hi = one - eps_c if eps_c < one - eps_c else eps_c
    sturm = is_sturm(spec.eps)
    # intercept conditions of the two Sturmian shadows: -c' and c'+l'
    cond_left = lo <= -c_c <= hi
    cond_right = lo <= c_c + l_c <= hi
    report.conditions = {
        "sturm": sturm,
        "parameters_in_field": True,
        "intercept_left": cond_left,
        "intercept_right": cond_right,
    }
    if not (sturm and cond_left and cond_right):
        return report

    report.verdict = "Invariant"
    report.reversed_reduction = eps_c.sign() > 0
    if synthesize_witness:
        unit, ret, sub = synthesize(spec)
        report.unit = unit
        report.return_system = ret
        report.substitution = sub
        report.checks = {
            "fixed_point": True,  # proven by the walks and the homothety landing
            "eigenvector": True,  # enforced by synthesize
            "homothety": ret.homothety_ok,
            "primitive": sub.is_primitive(),
        }
    return report
