"""Deciding substitution invariance of a 3iet word and synthesizing the
substitution as the first return map on a scaled copy of the domain.

The decision itself is three exact sign checks on Galois conjugates.  For
an Invariant verdict `return_substitution` builds the first return map on
J = lam' * [c, c+l), lam = lam0^s, by nested induction: on the windows
lam0'^k * [c, c+l), k = 1, ..., s, of the fundamental unit lam0, each
induced from the one before, so J is the s-th.  Each piece of a level
lies inside one piece of the level before at every step, so inside one
interval I_i at every letter; the letters J's piece K_i reads are phi(i).
The induction is the proof: if each K_i is lam' * I_i and lands on
lam' * T(I_i) (the homothety check), the orbit of lam' * x, x in I_i,
reads phi(i) and ends at lam' * T(x), so by induction from 0 = lam' * 0,
u = phi(u) on both sides.  Nothing here depends on the sign of eps', so
every Sturm slope is induced from its own I_A, I_B, I_C in the same way.
The power s is the one `synthesize` derives from the classes of c and
c+l, and lam is built only once the images, which may total at most
`STEP_BUDGET` letters, are known to fit.

The induction is `iet._induce`, which also gives the orbit coder its
induced exchanges; here it compares the pairs of one `iet.OrbitCoder`
frame, and their images under the integer matrices of units, through the
frame's float filter, with `Frame.cmp` deciding every margin inside the
error bound.  The block-start check reads the coder's text once, moving
an integer pair and its float image letter by letter, and tests each
point's membership in J and in lam' * I_i through the same filter.  The
block cut is `Substitution.block_starts`, the one `verify_fixed_point`
makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Tuple

from .errors import InvalidUnit, StepBudgetExceeded, WitnessRejected
from .iet import LETTERS, IetSpec, OrbitCoder, _induce
from .qfield import QuadNum, denominator
from .quadunit import ScalingUnit, class_fixing_power, contraction, integer_matrix, lemma_unit
from .substitution import Substitution

__all__ = [
    "ReturnSystem",
    "DecisionReport",
    "is_sturm",
    "decide",
    "synthesize",
    "return_substitution",
    "check_block_starts",
]

STEP_BUDGET = 10**6  # cap on the letters of phi, tested before they are spelled


@dataclass(frozen=True)
class ReturnSystem:
    """First return data on J = lam' * [c, c+l), lam = lam0^s.

    `return_times` are |phi(A)|, |phi(B)|, |phi(C)|, the row sums of the
    counts the induction carries; for eps' > 1 they are listed as
    |phi(C)|, |phi(B)|, |phi(A)|, the order that stored reports carry.
    """

    j_start: QuadNum
    j_end: QuadNum
    return_times: Tuple[int, int, int]
    homothety_ok: bool
    levels: int  # s, the windows of the nested induction, J the last


@dataclass
class DecisionReport:
    verdict: str  # "Invariant" | "NotInvariant" | "Degenerate"
    spec: IetSpec
    conditions: Dict[str, bool] = dc_field(default_factory=dict)
    unit: Optional[ScalingUnit] = None
    return_system: Optional[ReturnSystem] = None
    substitution: Optional[Substitution] = None
    checks: Dict[str, bool] = dc_field(default_factory=dict)
    reversed_reduction: bool = False  # eps' > 1, so return_times run C, B, A


def is_sturm(eps: QuadNum) -> bool:
    """eps in (0, 1) and its conjugate outside (0, 1)."""
    if eps.q == 0:
        return False
    zero, one = eps.field.zero(), eps.field.one()
    conj = eps.conjugate()
    return zero < eps < one and not (zero < conj < one)


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
    # J = [cuts[0], cuts[3]) and lam' * I_i = [cuts[i], cuts[i+1]), M * pair(x) for M of lam'
    coder = OrbitCoder(spec)
    (m00, m01), (m10, m11) = integer_matrix(unit.lam_conj)
    cuts = [(m00 * a + m01 * b, m10 * a + m11 * b)
            for a, b in (coder.c, coder.d1, coder.d2, coder.end)]
    fr = coder.frame
    cmp, L, ef = fr.cmp, fr.L, fr.ef
    approx = [fr.approx(p) for p in cuts]
    # every point is within `window` moves of 0
    tol = fr.tol(window * fr.size(*coder.shift) + fr.size(*cuts))
    # a float image outside these is outside J (J's ends moved by the bound
    # are one more rounding, well inside the bound's safety factor)
    out_lo, out_hi = approx[0] - tol, approx[3] + tol

    def below(x, v, j):  # x < cuts[j], by the float margin and exactly inside its bound
        t = v - approx[j]
        return t < -tol or t <= tol and cmp(x, cuts[j]) < 0

    shift = dict(zip(LETTERS, coder.shift))
    moves = ({**shift, " ": (0, 0)}, {a: (-s0, -s1) for a, (s0, s1) in shift.items()})
    for n, back in ((window, False), (window - 1, True)):
        text, _ = coder.letters(n, back=back)
        starts = sub.block_starts(text, back)
        if starts is None:
            return False
        # T^k(0), the point of u_k, is reached by the moves of u_0 ... u_k-1,
        # and T^-k-1(0), that of u_-k-1, by those of u_-1 ... u_-k-1
        taken = text if back else " " + text[:-1]  # " " moves by 0
        keys = iter(starts)  # the block starts, in order: the points in J
        x0 = x1 = 0
        for k, (s0, s1) in enumerate(map(moves[back].__getitem__, taken)):
            x0 += s0
            x1 += s1
            v = x0 / L + x1 / L * ef
            if v < out_lo or v > out_hi:
                continue
            x = (x0, x1)
            if below(x, v, 0) or not below(x, v, 3):  # not in J
                continue
            if k != next(keys, None):
                return False
            i = LETTERS.index(starts[k])
            if below(x, v, i) or not below(x, v, i + 1):
                return False
        if next(keys, n) < n:  # a block starts at a point outside J
            return False
    return True


def return_substitution(spec: IetSpec, s: int) -> Tuple[ReturnSystem, Substitution]:
    """Return system on J = lam' * [c, c+l), lam = lam0^s for the fundamental
    unit lam0 = `lemma_unit` and s >= 1, and the substitution of its return
    words, by nested induction.

    With Omega = [c, c+l), the first return to the window
    W_k = lam0'^k * Omega is induced from the one to W_(k-1) for
    k = 1, ..., s, and J = W_s.  The windows nest as 0 is in Omega.  Each
    is the integer matrix of lam0' applied k times to the coder's own
    pairs, carried through the loop with lam0'^k * (d1, d2, shift_i), which
    W_s's pieces must equal (the homothety check).  A level has a few
    pieces and costs about lam0 times as many steps as the one before,
    however long its words.  Level 0 is the spec's own I_A, I_B, I_C,
    whatever the sign of eps'.  When the homothety check fails,
    `homothety_ok` is False and phi(i) is the return word of the left end
    of lam' * I_i.  An s < 1 raises `InvalidUnit` before any level.
    `StepBudgetExceeded`, naming the level, is raised once a level's words
    total more than STEP_BUDGET letters, before they are spelled; each of
    them occurs in some word of J's first return.  Each piece's letter
    counts are carried as integer sums over its index word, so the
    `Substitution` is built on them without a scan, and of J's words only
    the three images are spelled.
    """
    if s < 1:
        raise InvalidUnit(f"the power s = {s} of the fundamental unit is not at least 1")
    coder = OrbitCoder(spec)
    fr = coder.frame
    ends = (coder.c, coder.d1, coder.d2, coder.end)
    pieces = [(a, b, t, 1, ()) for a, b, t in zip(ends, ends[1:], coder.shift)]  # I_i
    texts = list(LETTERS)  # the letters of each piece
    counts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]  # and their (n_A, n_B, n_C)
    (m00, m01), (m10, m11) = contraction(spec.field)  # pair(lam0' * x) = M' * pair(x)
    scaled = [*ends, *coder.shift]  # lam0'^k * (c, d1, d2, c+l, shift_i)
    for levels in range(1, s + 1):
        scaled = [(m00 * a + m01 * b, m10 * a + m11 * b) for a, b in scaled]
        pieces = _induce(fr, pieces, scaled[0], scaled[3], texts)
        if sum(p[3] for p in pieces) > STEP_BUDGET:
            raise StepBudgetExceeded(f"level {levels} exceeds the step budget of {STEP_BUDGET} letters")
        # a list, not a generator: the generator form grew peak RSS on synth-long
        counts = [tuple(map(sum, zip(*[counts[i] for i in p[4]]))) for p in pieces]
        if levels < s:  # of J's words only the three picked are spelled, below
            texts = ["".join(texts[i] for i in p[4]) for p in pieces]
    cuts, moves = scaled[:4], scaled[4:]
    ok = [p[:3] for p in pieces] == [(cuts[i], cuts[i + 1], moves[i]) for i in range(3)]
    # without the homothety, phi(i) is the return word of the left end of lam' * I_i
    picks = [next(k for k, p in enumerate(pieces) if fr.cmp(x, p[1]) < 0) for x in cuts[:3]]
    rows = [counts[k] for k in picks]
    # for eps' > 1 the times are listed C, B, A, the order stored reports carry
    times = tuple(map(sum, rows[::-1] if spec.eps.conjugate() > 1 else rows))
    ret = ReturnSystem(*map(fr.point, cuts[::3]), times, ok, levels)
    images = ["".join(texts[i] for i in pieces[k][4]) for k in picks]
    return ret, Substitution(("A", "B", "C"), dict(zip("ABC", images)), counts=rows)


def synthesize(spec: IetSpec):
    """Scaling unit, return system and proven substitution for `spec`.

    Requires decide(spec) == Invariant.  The unit is lam = lam0^s for the
    least power s of the fundamental unit lam0 whose conjugate fixes the
    classes of c and c+l mod Z[e]; it is built only once the nested
    induction of `return_substitution` has stayed within the step budget.
    The induction and its homothety check prove u = phi(u); the eigenvector
    check is an independent recheck.  A witness that fails either raises
    `WitnessRejected`.
    """
    anchors = [spec.c, spec.end]
    lam0 = lemma_unit(spec.field)
    s = class_fixing_power(lam0, denominator(anchors), anchors)
    ret, sub = return_substitution(spec, s)
    unit = ScalingUnit(lam0**s, s, lam0)
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
            "fixed_point": True,  # proven by the induction and the homothety landing
            "eigenvector": True,  # enforced by synthesize
            "homothety": ret.homothety_ok,
            "primitive": sub.is_primitive(),
        }
    return report
