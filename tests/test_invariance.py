"""The decision procedure: verdicts and exact conditions, witness
synthesis with its one scaling unit and its nested induction (checked
against the letter-by-letter return walk), the ancestor criterion, block
starts, and, for slopes with conjugate above 1, the reversal reduction
that the walk uses."""

from fractions import Fraction
from itertools import product

import pytest

import iet3.invariance
import iet3.qfield
from conftest import FIELD_SLOPES, convergents, corpus
from iet3 import (OrbitCoder, check_block_starts, code_orbit, decide, is_sturm,
                  make_field, make_spec, parse_quadnum, step,
                  synthesize, ScalingUnit, Substitution)
from iet3.invariance import return_substitution
from iet3.errors import InvalidUnit, OutOfDomain, StepBudgetExceeded, WitnessRejected
from iet3.qfield import sign_of_surd
from oracles import ancestor, check_lemma_ancestor, points
from walk_oracle import (NotApplicable, StraddlesDiscontinuity, reduce_by_reversal, walk_interval,
                         walk_substitution)

F2 = make_field(1, 2, -1, 1)
F5 = make_field(1, 1, -1, 1)  # eps = (sqrt5-1)/2, conjugate < 0
F5R = make_field(1, -3, 1, -1)  # eps = (3-sqrt5)/2, conjugate > 1


@pytest.fixture(scope="module")
def spec():
    return make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                     parse_quadnum("-1/2*e", F2))


@pytest.fixture(scope="module")
def report(spec):
    return decide(spec)


class TestSturm:
    def test_worked_slopes(self):
        assert is_sturm(F2.eps())                      # conjugate < 0
        assert is_sturm(F5R.eps())                     # conjugate > 1
        non = make_field(8, -8, 1, -1).eps()           # (2-sqrt2)/4
        assert not is_sturm(non)
        assert not is_sturm(F2.rational(Fraction(1, 3)))


class TestDecide:
    def test_worked_invariant(self, spec, report):
        assert report.verdict == "Invariant"
        assert all(report.conditions.values())
        assert report.substitution.images == {
            "A": "BBCAC", "B": "BBCBBCAC", "C": "BCAC"}
        assert report.return_system.return_times == (5, 8, 4)
        assert report.unit.s == 1
        assert report.unit.lam == parse_quadnum("5+2*e", F2)
        assert all(report.checks.values())
        assert not report.reversed_reduction

    def test_worked_return_interval(self, report):
        ret = report.return_system
        assert ret.j_start == parse_quadnum("1-5/2*e", F2)
        assert ret.j_end == parse_quadnum("1/2-e", F2)
        assert ret.homothety_ok

    def test_negative_spec(self):
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                       parse_quadnum("-3/2+7/2*e", F2))
        rep = decide(sp)
        assert rep.verdict == "NotInvariant"
        assert rep.conditions["sturm"]
        assert not (rep.conditions["intercept_left"]
                    and rep.conditions["intercept_right"])
        assert rep.substitution is None

    def test_degenerate(self):
        sp = make_spec(F2.eps(), parse_quadnum("-1+4*e", F2),
                       parse_quadnum("-1/2*e", F2))
        assert decide(sp).verdict == "Degenerate"

    def test_non_sturm_slope_never_invariant(self):
        f = make_field(8, -8, 1, -1)
        sp = make_spec(f.eps(), f.num(Fraction(1), Fraction(-1, 2)), f.zero())
        rep = decide(sp)
        assert rep.verdict == "NotInvariant"
        assert not rep.conditions["sturm"]


def count_levels(monkeypatch, induce=iet3.invariance._induce):
    """Route the levels of the nested induction through `induce`; the list
    records each call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return induce(*args)
    monkeypatch.setattr(iet3.invariance, "_induce", counted)
    return calls


def exact_block_starts(spec, unit, sub, window):
    """`check_block_starts` without its float filter: `Frame.cmp` on every
    orbit point the coder's text gives (the reference for the filter)."""
    conj = unit.lam_conj
    scaled = [conj * x for x in (spec.c, spec.d1, spec.d2, spec.end)]
    coder = OrbitCoder(spec, scaled)
    cmp = coder.frame.cmp
    cuts = [coder.frame.pair(x) for x in scaled]
    for n, back in ((window, False), (window - 1, True)):
        text, _ = coder.letters(n, back=back)
        starts = sub.block_starts(text, back)
        if starts is None:
            return False
        for k, x in enumerate(points(coder, text, back=back)):
            in_j = cmp(x, cuts[0]) >= 0 and cmp(x, cuts[3]) < 0
            if in_j != (k in starts):
                return False
            if in_j:
                i = "ABC".index(starts[k])
                if not (cmp(x, cuts[i]) >= 0 and cmp(x, cuts[i + 1]) < 0):
                    return False
    return True


class TestSynthesize:
    def test_verified_witness(self, spec):
        unit, ret, sub = synthesize(spec)
        assert sub.verify_fixed_point(spec, 10**4)
        assert sub.check_eigenvector(spec.eps, unit.lam)
        assert sub.is_primitive()
        assert ret.homothety_ok

    def test_block_starts(self, spec, report):
        assert check_block_starts(spec, report.unit, report.substitution, 1000)
        with pytest.raises(ValueError):  # an empty window would check nothing
            check_block_starts(spec, report.unit, report.substitution, 0)

    def test_block_starts_reject_wrong_substitution(self, spec, report):
        wrong = Substitution(("A", "B", "C"),
                             {"A": "BBCAC", "B": "BCAC", "C": "BBCBBCAC"})
        assert not check_block_starts(spec, report.unit, wrong, 300)

    def test_block_starts_reject_reordered_image(self, spec, report):
        """Image lengths alone do not pass: the B image reversed keeps
        every block start but not the word inside the blocks."""
        images = dict(report.substitution.images)
        images["B"] = images["B"][::-1]
        wrong = Substitution(("A", "B", "C"), images)
        assert not check_block_starts(spec, report.unit, wrong, 1000)

    def test_block_starts_filter_matches_exact_on_corpus(self):
        """The float-filtered block-start check agrees with the exact one on
        every Invariant corpus witness, and on three wrong ones: B's image
        reversed, B's and C's images swapped, and the right images with the
        unit squared, whose smaller J misses some block starts."""
        invariant = [(sp, rep) for sp, rep in ((sp, decide(sp)) for _label, sp in corpus())
                     if rep.verdict == "Invariant"]
        assert len(invariant) == 59
        rejected = [0, 0, 0]
        for sp, rep in invariant:
            unit, images = rep.unit, rep.substitution.images
            assert check_block_starts(sp, unit, rep.substitution, 1000)
            assert exact_block_starts(sp, unit, rep.substitution, 1000)
            squared = ScalingUnit(unit.lam ** 2, 2 * unit.s, unit.gamma)
            for kind, (u, wrong) in enumerate((
                    (unit, dict(images, B=images["B"][::-1])),
                    (unit, dict(images, B=images["C"], C=images["B"])),
                    (squared, images))):
                sub = Substitution(("A", "B", "C"), wrong)
                got = check_block_starts(sp, u, sub, 1000)
                assert got == exact_block_starts(sp, u, sub, 1000)
                rejected[kind] += not got
        # a wrong block can pass as far as the window reaches (47, 34 and 31
        # of the 59 are rejected)
        assert min(rejected) > len(invariant) // 2

    def test_rejected_witness_is_named(self, monkeypatch, spec):
        """A witness that fails a check is rejected after the one ladder
        run of its unit (s = 1: one level), with the check named; no other
        unit is tried."""
        calls = count_levels(monkeypatch)
        monkeypatch.setattr(Substitution, "check_eigenvector", lambda *a: False)
        with pytest.raises(WitnessRejected, match="eigenvector"):
            synthesize(spec)
        assert len(calls) == 1

    def test_lambda_conjugate_outside_unit_interval_refused(self, monkeypatch, spec):
        """J = lam' * [c, c+l), lam = lam0^s, holds 0 and lies in the domain
        only for 0 < lam' < 1, that is for s >= 1; s = 0 (lam' = 1) and
        s = -1 (lam' = lam0) are refused before any level."""
        calls = count_levels(monkeypatch)
        for bad in (0, -1):
            with pytest.raises(InvalidUnit, match="not at least 1"):
                return_substitution(spec, bad)
        assert not calls

    def test_failed_homothety_is_named(self, monkeypatch, spec):
        """A last level whose pieces are not lam' * I_i, moved by
        lam' * shift_i, sets homothety_ok False without raising, and
        `synthesize` rejects it by name after its one ladder run."""
        induce = iet3.invariance._induce

        def nudged(*args):
            (lo, hi, t, n, word), *rest = induce(*args)
            return [(lo, hi, (t[0] + 1, t[1]), n, word), *rest]
        calls = count_levels(monkeypatch, nudged)
        with pytest.raises(WitnessRejected, match="homothety"):
            synthesize(spec)
        assert len(calls) == 1
        ret, _sub = return_substitution(spec, 1)
        assert not ret.homothety_ok

    def test_budget_exhaustion_surfaces(self, monkeypatch):
        """A denominator that forces a huge scaling power (s = 10, lam
        about 3.5e12) fails fast with StepBudgetExceeded, on the integer
        word lengths of a level, instead of spelling its images."""
        monkeypatch.setattr(iet3.invariance, "STEP_BUDGET", 2000)
        sp = make_spec(F5R.eps(), F5R.num(Fraction(7, 10), 0),
                       F5R.num(Fraction(-1, 10), 0))
        with pytest.raises(StepBudgetExceeded):
            decide(sp)

    def test_budget_stops_the_ladder_early(self, monkeypatch):
        """c = -e/10007 needs s = 5003; the windows are induced as they are
        reached, so the budget stops the ladder after a few levels and a
        few exact comparisons, not after one comparison per window."""
        calls = []

        def counted(*args):
            calls.append(args)
            return sign_of_surd(*args)
        monkeypatch.setattr(iet3.qfield, "sign_of_surd", counted)
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2), parse_quadnum("-1/10007*e", F2))
        with pytest.raises(StepBudgetExceeded):
            decide(sp)
        assert len(calls) <= 100

    def test_budget_stops_before_lambda_is_built(self, monkeypatch):
        """c = -e/10007 needs s = 5003; the ladder is driven by s, and
        lam = lam0^s is built only once the induction has stayed within the
        budget, so no power of more than a few levels is ever taken."""
        exponents, power = [], iet3.qfield.QuadNum.__pow__

        def recorded(x, n):
            exponents.append(n)
            return power(x, n)
        monkeypatch.setattr(iet3.qfield.QuadNum, "__pow__", recorded)
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2), parse_quadnum("-1/10007*e", F2))
        with pytest.raises(StepBudgetExceeded):
            decide(sp)
        assert max(exponents, default=0) <= 100

    def test_budget_message_names_level_not_lambda(self):
        """c = -e/40009 gives s of about 2*10^4 and a lam of thousands of
        digits, which the message does not print (Python refuses str(int)
        past 4300 digits); it names the level and the budget."""
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2), parse_quadnum("-1/40009*e", F2))
        with pytest.raises(StepBudgetExceeded, match=f"level .* {iet3.invariance.STEP_BUDGET} "):
            decide(sp)


class TestInduction:
    """The nested induction against the return walk, which reads the
    first return on J letter by letter (tests/walk_oracle.py)."""

    def test_matches_walk_on_corpus(self):
        invariant = [(label, rep) for label, rep in ((label, decide(sp)) for label, sp in corpus())
                     if rep.verdict == "Invariant"]
        assert len(invariant) == 59
        for label, rep in invariant:
            ok, walked = walk_substitution(rep.spec, rep.unit.lam)
            assert rep.return_system.homothety_ok and ok, label
            assert rep.substitution.images == walked.images, label
            assert rep.return_system.levels == rep.unit.s, label

    @pytest.mark.parametrize("texts, merged", [(["A", "C", "B"], False),
                                               (["A", "A", "B"], True)])
    def test_merge_compares_letters(self, texts, merged):
        """On [0, 4), [0, 1) and [1, 2) move by +2 and [2, 4) by -2, so both
        halves of [0, 2) return after two pieces, moved by 0: equal t, equal
        n, index words (0, 2) and (1, 2).  They merge exactly when their
        letters agree."""
        fr = OrbitCoder(make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2), F2.zero())).frame
        x = [(k * fr.L, 0) for k in range(5)]  # the pairs of 0, 1, ..., 4
        pieces = [(x[0], x[1], x[2], 1, ()), (x[1], x[2], x[2], 1, ()),
                  (x[2], x[4], (-x[2][0], 0), 1, ())]
        out = iet3.invariance._induce(fr, pieces, x[0], x[2], texts)
        assert [p[:4] for p in out] == ([(x[0], x[2], (0, 0), 2)] if merged else
                                        [(x[0], x[1], (0, 0), 2), (x[1], x[2], (0, 0), 2)])

    @pytest.mark.parametrize("which", ["spec", "rev_spec"])
    def test_square_of_lambda(self, request, which):
        """lam^2 takes two levels and returns phi^2, on both sides of the
        reversal."""
        sp = request.getfixturevalue(which)
        rep = decide(sp)
        lam2 = rep.unit.lam * rep.unit.lam
        ret, sub = return_substitution(sp, 2 * rep.unit.s)
        ok, walked = walk_substitution(sp, lam2)
        assert ret.homothety_ok and ok
        assert sub.images == walked.images == rep.substitution.power(2).images
        assert ret.levels == 2 * rep.unit.s

    @pytest.mark.parametrize("field, l, c, bound", [(F2, "1/2+1/2*e", "-1/2*e", 5),
                                                    (F5, "1-1/2*e", "-1/3*e", 8)],
                             ids=["worked", "sqrt5-neg"])
    def test_known_ties_not_compared(self, monkeypatch, field, l, c, bound):
        """`_induce` knows where its own cuts put a part, so the exact
        comparisons of a witness's induction stay few.  The bounds are the
        counts of `Frame.cmp` inside `_induce` with the cuts known; when
        every cut end was compared again they were 14 (worked example, one
        level) and 100 (sqrt5-neg, s = 4).  The counts are deterministic:
        IEEE floats on fixed inputs."""
        sp = make_spec(field.eps(), parse_quadnum(l, field), parse_quadnum(c, field))
        rep = decide(sp)
        induce, exact = iet3.invariance._induce, []

        def counted(frame, *args):
            cmp = frame.cmp
            frame.cmp = lambda p, q: exact.append((p, q)) or cmp(p, q)
            try:
                return induce(frame, *args)
            finally:
                frame.cmp = cmp
        monkeypatch.setattr(iet3.invariance, "_induce", counted)
        ret, sub = return_substitution(sp, rep.unit.s)
        assert ret.levels == rep.unit.s and sub == rep.substitution
        assert 0 < len(exact) <= bound


class TestWalkFilter:
    """The oracle walk decides its tests by float margins, exactly inside
    the frame's error bound.  Ends moved off a cut by b*e - a > 0, for
    convergents a/b of e with b up to 10^12, are far below the float error
    of their pairs, so only the exact fallback sees which side they are on."""

    @staticmethod
    def offsets():
        e = F2.eps()
        return [d for d in (b * e - a for a, b in convergents(F2, 10**12)[-8:]) if d.sign() > 0]

    def test_straddled_discontinuity(self, spec):
        coder = OrbitCoder(spec)
        for d in self.offsets():
            hi = coder.frame.pair(spec.d1 + d)  # [c, d1 + d) straddles d1
            with pytest.raises(StraddlesDiscontinuity, match="discontinuity of the exchange"):
                walk_interval(coder, coder.c, hi, coder.c, coder.end)

    def test_overlap_with_j(self, spec):
        """[c, c + 1/100) maps to [x, x + 1/100) with x = c + 1 - e; a J
        ending at x + d overlaps it by d, and the walk must see that at
        its first step instead of running out of its one-step budget."""
        x = spec.c + 1 - spec.eps
        coder = OrbitCoder(spec, [spec.c + Fraction(1, 100), x - Fraction(1, 10)])
        fr = coder.frame
        lo, hi = coder.c, fr.pair(spec.c + Fraction(1, 100))
        for d in self.offsets():
            with pytest.raises(StraddlesDiscontinuity, match="endpoint of J"):
                walk_interval(coder, lo, hi, fr.pair(x - Fraction(1, 10)), fr.pair(x + d),
                              budget=1)


class TestAncestor:
    def test_discontinuity_scales(self, spec, report):
        conj = report.unit.lam_conj
        j_start, j_end = conj * spec.c, conj * spec.end
        for z0 in (spec.d1, spec.d2):
            anc = ancestor(spec, j_start, j_end, z0)
            assert anc == conj * z0

    def test_outside_domain_rejected(self, spec, report):
        conj = report.unit.lam_conj
        j_start, j_end = conj * spec.c, conj * spec.end
        for z0 in (spec.end, spec.c - F2.num(0, Fraction(1, 2))):
            with pytest.raises(OutOfDomain):
                ancestor(spec, j_start, j_end, z0)

    def test_lemma_equivalence_on_orbit(self, spec, report):
        z = F2.zero()
        for _ in range(300):
            assert check_lemma_ancestor(spec, report.unit, z)
            z, _ = step(spec, z)


@pytest.fixture(scope="module")
def rev_spec():
    return make_spec(F5R.eps(), F5R.num(Fraction(1, 2), Fraction(1, 2)),
                     F5R.num(0, Fraction(-1, 2)))


class TestReversal:
    def test_not_applicable_for_negative_conjugate(self, spec):
        with pytest.raises(NotApplicable):
            reduce_by_reversal(spec)

    def test_reduced_slope(self, rev_spec):
        red = reduce_by_reversal(rev_spec)
        assert red.eps == F5R.one() - rev_spec.eps
        assert red.eps.conjugate().sign() < 0
        assert red.l == rev_spec.l and red.c == rev_spec.c

    def test_reduced_word_is_mirror(self, rev_spec):
        """The reduced spec codes the reversed word with A and C swapped,
        letter for letter: u*_n = swap(u_(-1-n)) on both sides of 0, on
        rev_spec and every corpus spec with eps' > 1.  The return walk of
        tests/walk_oracle.py transports its images by this identity."""
        swap = str.maketrans("AC", "CA")

        def mirror(word):
            return word[::-1].translate(swap)
        n = 2000
        reversible = [(label, sp) for label, sp in corpus() if sp.eps.conjugate() > 1]
        assert len(reversible) == 36
        for label, sp in [("rev_spec", rev_spec)] + reversible:
            red = reduce_by_reversal(sp)
            assert code_orbit(red, 0, n) == mirror(code_orbit(sp, -n, 0)), label
            assert code_orbit(red, -n, 0) == mirror(code_orbit(sp, 0, n)), label

    def test_reduced_witness_transports(self):
        """The identity the walk relies on, checked on the direct induction:
        on every Invariant spec of the three reversed slopes with l and c
        in a + b*e, a and b in [-1, 1] with denominators at most 3, the
        images of `return_substitution` are the reduced spec's own witness
        at the same lambda for C, B and A, reversed and with A and C
        swapped, and the return times are the reduced system's."""
        swap = str.maketrans("AC", "CA")
        xs = sorted({Fraction(a, d) for d in (1, 2, 3) for a in range(-d, d + 1)})
        checked = 0
        for label, fargs in FIELD_SLOPES:
            f = make_field(*fargs)
            if not f.eps().conjugate() > 1:
                continue
            grid = [f.num(a, b) for a, b in product(xs, repeat=2)]
            for l, c in product(grid, repeat=2):
                try:
                    sp = make_spec(f.eps(), l, c)
                except ValueError:
                    continue
                if decide(sp, synthesize_witness=False).verdict != "Invariant":
                    continue
                unit, ret, sub = synthesize(sp)
                red_ret, red = return_substitution(reduce_by_reversal(sp), unit.s)
                assert red_ret.homothety_ok, (label, l, c)
                assert sub.images == {a: red.images[b][::-1].translate(swap)
                                      for a, b in zip("ABC", "CBA")}, (label, l, c)
                assert ret.return_times == red_ret.return_times, (label, l, c)
                checked += 1
        assert checked == 604

    def test_one_substitution_per_reversed_decide(self, monkeypatch):
        """On a reversed slope, too, decide builds one Substitution."""
        calls = {"__post_init__": 0}

        def counting(name):
            method = getattr(Substitution, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(Substitution, name, counting(name))
        reversed_specs = 0
        for label, sp in corpus():
            if not sp.eps.conjugate() > 1:
                continue
            before = dict(calls)
            rep = decide(sp)
            if rep.verdict != "Invariant":
                continue
            reversed_specs += 1
            assert rep.reversed_reduction, label
            assert calls["__post_init__"] - before["__post_init__"] == 1, label
        assert reversed_specs == 25

    def test_reversal_synthesis_verifies(self, rev_spec):
        rep = decide(rev_spec)
        assert rep.verdict == "Invariant"
        assert rep.reversed_reduction
        assert all(rep.checks.values())
        assert rep.substitution.verify_fixed_point(rev_spec, 10**4)
        assert rep.substitution.check_eigenvector(rev_spec.eps, rep.unit.lam)
        assert check_block_starts(rev_spec, rep.unit, rep.substitution, 1000)
