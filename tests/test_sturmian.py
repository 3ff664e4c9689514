"""Sturmian words, the two-letter projections of exchange words, the
invariance criterion for Sturmian words, and the agreement between the
three-letter and two-letter decisions."""

import random
from fractions import Fraction

import pytest

import iet3.iet
import iet3.sturmian
from conftest import convergents
from iet3 import (IetSpec, SturmianSpec, complexity, corollary_crosscheck, make_field,
                  make_spec, parse_quadnum, sigma, sturmian_images_match,
                  sturmian_word, yasutomi)
from iet3.errors import OutOfDomain, UnknownLetter
from oracles import letter_images_match, rounding_word

F2 = make_field(1, 2, -1, 1)
F5 = make_field(1, 1, -1, 1)


@pytest.fixture(scope="module")
def spec():
    return make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                     parse_quadnum("-1/2*e", F2))


class TestSturmianWord:
    def test_known_prefix(self):
        assert sturmian_word(SturmianSpec(F2.eps(), F2.zero()), 5) == "00101"

    def test_empty(self):
        assert sturmian_word(SturmianSpec(F2.eps(), F2.zero()), 0) == ""

    def test_letter_frequency_is_slope(self):
        w = sturmian_word(SturmianSpec(F2.eps(), F2.zero()), 10**5)
        assert abs(w.count("1") / 10**5 - 0.41421356) < 0.01 * 0.41421356

    def test_floor_equals_ceiling_for_generic_intercept(self):
        sp_f = SturmianSpec(F2.eps(), parse_quadnum("1/2*e", F2), "floor")
        sp_c = SturmianSpec(F2.eps(), parse_quadnum("1/2*e", F2), "ceiling")
        assert sturmian_word(sp_f, 2000) == sturmian_word(sp_c, 2000)

    def test_floor_and_ceiling_differ_at_lattice_intercept(self):
        """With intercept 0 the orbit hits an integer at n=0, where the
        two rounding conventions disagree."""
        w_f = sturmian_word(SturmianSpec(F2.eps(), F2.zero(), "floor"), 10)
        w_c = sturmian_word(SturmianSpec(F2.eps(), F2.zero(), "ceiling"), 10)
        assert w_f != w_c

    def test_complexity_n_plus_one(self):
        for f, x0 in [(F2, F2.zero()), (F2, parse_quadnum("1/2", F2)),
                      (F5, parse_quadnum("1/3+1/3*e", F5))]:
            w = sturmian_word(SturmianSpec(f.eps(), x0), 4000)
            assert complexity(w, 30) == [1] + [n + 1 for n in range(1, 31)]

    def test_complexity_capped_at_two_intervals(self):
        """A Sturmian word codes a rotation, an exchange of two intervals,
        so its counts stop at n+1 with nothing missed."""
        for f, x0 in [(F2, F2.zero()), (F5, parse_quadnum("1/3+1/3*e", F5))]:
            w = sturmian_word(SturmianSpec(f.eps(), x0), 4000)
            assert complexity(w, 30, intervals=2) == complexity(w, 30) == \
                [1] + [n + 1 for n in range(1, 31)]

    @pytest.mark.parametrize("rounding", ["floor", "ceiling"])
    def test_crossings_within_float_error(self, rounding):
        """Intercepts 1 - e + (b*e - a) for convergents a/b of e, b up to
        10^12, put the first crossing of an integer far below the float
        error of the pairs; the letters must match exact roundings."""
        e = F5.eps()
        for a, b in convergents(F5, 10**12)[-6:]:
            x0 = 1 - e + (b * e - a)
            rnd = (lambda x: x.floor()) if rounding == "floor" else (lambda x: -(-x).floor())
            want = "".join(str(rnd((k + 1) * e + x0) - rnd(k * e + x0)) for k in range(20))
            assert sturmian_word(SturmianSpec(e, x0, rounding), 20) == want

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SturmianSpec(F2.rational(Fraction(1, 2)), F2.zero())  # rational slope
        with pytest.raises(ValueError):
            SturmianSpec(F2.eps(), F2.one())  # intercept out of range


class TestSigma:
    def test_examples(self):
        assert sigma("01", "BCA") == "0110"
        assert sigma("10", "B") == "10"
        assert sigma("01", "") == ""

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            sigma("01", "ABX")

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            sigma("11", "A")

    def test_matches_letter_map(self):
        word = "".join(random.Random(3).choices("ABC", k=10**4))
        for variant in ("01", "10"):
            images = {"A": "0", "B": variant, "C": "1"}
            assert sigma(variant, word) == "".join(images[a] for a in word)


class TestImagesMatch:
    def test_worked_spec(self, spec):
        assert sturmian_images_match(spec, 10**4)

    @pytest.mark.parametrize("radius", [0, -1])
    def test_radius_below_one_rejected(self, spec, radius):
        """Matching no letter is no evidence."""
        with pytest.raises(ValueError, match="radius must be at least 1"):
            sturmian_images_match(spec, radius)

    @pytest.mark.parametrize("radius", [1, 2, 7, 1001])
    def test_letters_match_sturmian_words(self, spec, radius):
        """The sigma images of `radius` letters of the exchange word, read
        by `OrbitCoder.letters`, equal the two Sturmian words read by
        sturmian_word, as the proof says."""
        assert letter_images_match(spec, radius)
        assert sturmian_images_match(spec, radius)

    def test_reads_no_letters(self, spec, monkeypatch):
        """The proof reads no letter of the exchange or Sturmian words."""
        def refuse(*args, **kwargs):
            raise AssertionError("a letter was read")
        monkeypatch.setattr(iet3.sturmian.OrbitCoder, "letters", refuse)
        monkeypatch.setattr(iet3.sturmian, "read", refuse)
        monkeypatch.setattr(iet3.iet, "read", refuse)
        monkeypatch.setattr(iet3.sturmian, "sturmian_word", refuse)
        assert sturmian_images_match(spec, 10**4)

    @pytest.mark.parametrize("rotation", [0, 1])
    @pytest.mark.parametrize("mutation", ["B reversed", "d1 moved", "d2 moved"])
    def test_wrong_induction_refused(self, spec, monkeypatch, rotation, mutation):
        """An induction of either rotation with B's word reversed, or with
        a cut moved by one unit of the frame, is not the exchange."""
        induce, calls = iet3.sturmian._induce, []

        def mutated(*args):
            got = induce(*args)
            calls.append(got)
            if len(calls) - 1 == rotation:
                (c, d1, a, na, wa), (_, d2, b, nb, wb), (_, end, cc, nc, wc) = got
                if mutation == "B reversed":
                    wb = wb[::-1]
                elif mutation == "d1 moved":
                    d1 = (d1[0] + 1, d1[1])
                else:
                    d2 = (d2[0] + 1, d2[1])
                got = [(c, d1, a, na, wa), (d1, d2, b, nb, wb), (d2, end, cc, nc, wc)]
            return got
        monkeypatch.setattr(iet3.sturmian, "_induce", mutated)
        assert not sturmian_images_match(spec, 10**4)
        assert len(calls) == rotation + 1

    def test_hypotheses_checked(self):
        """A hand-built spec outside the hypotheses of the proof is refused:
        0 outside [c, c+l) raises OutOfDomain, as no orbit of 0 is coded,
        and l = 1/2 < 1 - eps, for which no rotation induces the exchange,
        raises make_spec's ValueError."""
        with pytest.raises(OutOfDomain):
            sturmian_images_match(IetSpec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                                          parse_quadnum("1/10", F2)), 10**4)
        with pytest.raises(ValueError, match="violates"):
            sturmian_images_match(IetSpec(F2.eps(), F2.rational(Fraction(1, 2)),
                                          F2.rational(Fraction(-1, 10))), 10**4)

    def test_agrees_with_letters_past_float_range(self):
        """On the sqrt2 and sqrt5 specs with c moved by 10^-400/3, whose
        pairs lie far beyond the float range, the proof agrees with the
        letter comparison at 10^4."""
        tiny = Fraction(1, 3 * 10**400)
        for f, l, c in ((F2, "1/2+1/2*e", "-1/2*e"), (F5, "1-1/2*e", "-1/3*e")):
            sp = make_spec(f.eps(), parse_quadnum(l, f), parse_quadnum(c, f) - tiny)
            assert sturmian_images_match(sp, 10**4) and letter_images_match(sp, 10**4)

    def test_perturbed_intercept_detected(self, spec):
        """Shifting the predicted intercept by 1/7 breaks the match
        within 100 letters."""
        from iet3 import code_orbit
        word = code_orbit(spec, 0, 200)
        img = sigma("01", word)[:100]
        good = (-spec.c).frac()
        bad = good + F2.rational(Fraction(1, 7))
        predicted = sturmian_word(SturmianSpec(F2.one() - spec.eps, bad), 100)
        assert img != predicted
        assert img == sturmian_word(
            SturmianSpec(F2.one() - spec.eps, good), 100)


class TestYasutomi:
    def test_zero_intercept(self):
        assert yasutomi(F2.eps(), F2.zero())

    def test_worked_intercept(self, spec):
        assert yasutomi(F2.eps(), (-spec.c).frac())

    def test_non_sturm_slope(self):
        non = make_field(8, -8, 1, -1).eps()
        assert not yasutomi(non, non.field.zero())

    def test_interval_symmetric_under_slope_reflection(self):
        """The condition interval for slope a and slope 1-a coincide, so
        the verdicts agree on conjugate-reflected intercepts."""
        for f in (F2, F5):
            a = f.eps()
            for num in [f.zero(), f.num(Fraction(1, 2), 0),
                        f.num(Fraction(1, 3), Fraction(1, 3)),
                        f.num(Fraction(9, 10), Fraction(0))]:
                x = num.frac()
                y = (f.one() - x).frac()
                assert yasutomi(a, x) == yasutomi(f.one() - a, y)


class TestCorollary:
    def test_worked_agreement(self, spec):
        assert corollary_crosscheck(spec)

    def test_negative_agreement(self):
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                       parse_quadnum("-3/2+7/2*e", F2))
        assert corollary_crosscheck(sp)

    def test_degenerate_rejected(self):
        sp = make_spec(F2.eps(), parse_quadnum("-1+4*e", F2),
                       parse_quadnum("-1/2*e", F2))
        with pytest.raises(ValueError):
            corollary_crosscheck(sp)


class TestRotationCoding:
    @pytest.mark.parametrize("rounding", ["floor", "ceiling"])
    def test_matches_exact_rounding(self, rounding):
        """450 letters, past the chunk ends of the kernel's error bound
        (steps 64, 192, 448), against round((k+1)e + x0) - round(ke + x0)
        in QuadNums, for x0 = 0 and the near-crossing intercepts of
        test_crossings_within_float_error."""
        e, n = F5.eps(), 450
        rnd = (lambda x: x.floor()) if rounding == "floor" else (lambda x: -(-x).floor())
        for x0 in [F5.zero()] + [1 - e + (b * e - a) for a, b in convergents(F5, 10**12)[-6:]]:
            values = [rnd(k * e + x0) for k in range(n + 1)]
            want = "".join(str(values[k + 1] - values[k]) for k in range(n))
            assert sturmian_word(SturmianSpec(e, x0, rounding), n) == want

    @pytest.mark.parametrize("rounding", ["floor", "ceiling"])
    def test_leveled_words_match_integer_rounding(self, rounding):
        """10^4 letters, which `read` codes on induced rotations (up to
        three levels in sqrt2), against `oracles.rounding_word`, for x0 = 0,
        a generic intercept and a near-crossing one."""
        for f in (F2, F5):
            e = f.eps()
            a, b = convergents(f, 10**12)[-1]
            for x0 in (f.zero(), parse_quadnum("1/3+1/3*e", f), 1 - e + (b * e - a)):
                want = rounding_word(e, x0, 10**4, rounding)
                assert sturmian_word(SturmianSpec(e, x0, rounding), 10**4) == want
