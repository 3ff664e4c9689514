"""Substitutions: morphism mechanics, incidence matrices and their
convention, eigenvalues in the quadratic field, primitivity, fixed-point
verification, and factor complexity."""

import pytest

from conftest import corpus
from iet3 import (OrbitCoder, Substitution, complexity, count_factors, code_orbit, decide,
                  make_field, make_spec, parse_quadnum)
from iet3.errors import NoSquareRoot, UnknownLetter
from iet3.substitution import _matmul
from oracles import eigenvalues, letterwise_block_starts

F2 = make_field(1, 2, -1, 1)
WORKED = Substitution(("A", "B", "C"),
                      {"A": "BBCAC", "B": "BBCBBCAC", "C": "BCAC"})


@pytest.fixture(scope="module")
def spec():
    return make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                     parse_quadnum("-1/2*e", F2))


class TestMorphism:
    def test_apply(self):
        assert WORKED("AC") == "BBCACBCAC"
        assert WORKED("") == ""

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            WORKED("AXB")

    def test_bad_letter_deep_in_long_image(self):
        images = {"A": "BC" * 50_000 + "X" + "AB", "B": "A", "C": "B"}
        with pytest.raises(UnknownLetter, match="'X'"):
            Substitution(("A", "B", "C"), images)

    @pytest.mark.parametrize("text", ["A -> AB\nB -> BA\nAB -> A", "A -> AB\nB -> BAB\nAB -> A",
                                      "A -> AB\nB -> A\nA -> B", " -> A\nA -> A"],
                             ids=["two-character", "two-character-factor", "repeated", "empty"])
    def test_letters_are_single_characters(self, text):
        """A word is read character by character, so a letter of several
        characters would never be applied and would count as a factor of
        the images, and a repeated letter would own two rows."""
        with pytest.raises(UnknownLetter, match="one character"):
            Substitution.from_text(text)

    def test_repeated_letter_with_given_counts(self):
        with pytest.raises(UnknownLetter, match="'A'"):
            Substitution(("A", "B", "A"), {"A": "AB", "B": "A"},
                         counts=[[1, 1, 0], [1, 0, 0], [1, 1, 0]])

    def test_text_round_trip(self):
        text = WORKED.to_text()
        assert "A -> BBCAC" in text
        assert Substitution.from_text(text) == WORKED

    def test_power(self):
        sq = WORKED.power(2)
        assert sq.images["A"] == WORKED(WORKED.images["A"])


class TestIncidence:
    def test_worked_rows(self):
        assert WORKED.incidence() == [[1, 2, 2], [1, 4, 3], [1, 1, 2]]

    def test_composition_convention(self):
        """Row-per-source convention: N of (phi after psi) is N_psi * N_phi."""
        psi = Substitution(("A", "B", "C"), {"A": "AB", "B": "C", "C": "AC"})
        comp = Substitution(("A", "B", "C"),
                            {a: WORKED(psi.images[a]) for a in "ABC"})
        assert comp.incidence() == _matmul(psi.incidence(), WORKED.incidence())

    def test_power_incidence(self):
        assert WORKED.power(2).incidence() == _matmul(WORKED.incidence(),
                                                      WORKED.incidence())

    @staticmethod
    def counted(sub):
        return [[sub.images[a].count(b) for b in sub.alphabet] for a in sub.alphabet]

    def test_counts_on_corpus_witnesses(self):
        witnesses = [(label, rep.substitution) for label, rep in
                     ((label, decide(sp)) for label, sp in corpus())
                     if rep.verdict == "Invariant"]
        assert len(witnesses) == 59
        for label, sub in witnesses:
            assert sub.incidence() == self.counted(sub), label

    @pytest.mark.parametrize("text", ["0 -> 01\n1 -> 12\n2 -> 230\n3 -> 3120"])
    def test_counts_on_text_alphabets(self, text):
        """Four one-character letters."""
        sub = Substitution.from_text(text)
        assert sub.incidence() == self.counted(sub)

    def test_rows_are_copies(self):
        rows = WORKED.incidence()
        rows[0][0] = 99
        rows.append([0, 0, 0])
        assert WORKED.incidence() == [[1, 2, 2], [1, 4, 3], [1, 1, 2]]


class TestGivenCounts:
    """Rows passed as `counts` are checked for shape and length, not rescanned."""

    ROWS = [[1, 2, 2], [1, 4, 3], [1, 1, 2]]

    def test_rows_kept(self):
        sub = Substitution(WORKED.alphabet, WORKED.images, counts=self.ROWS)
        assert sub.incidence() == self.ROWS
        assert sub == WORKED

    @pytest.mark.parametrize("counts", [ROWS[:2], ROWS + [[0, 0, 0]], [[1, 2], [1, 4], [1, 1]],
                                        [[1, 2, 2], [1, 4, 3], [1, 1, 2, 0]]],
                             ids=["two-rows", "four-rows", "short-rows", "long-row"])
    def test_wrong_shape(self, counts):
        with pytest.raises(ValueError, match="rows of 3"):
            Substitution(WORKED.alphabet, WORKED.images, counts=counts)

    def test_row_not_summing_to_length(self):
        """phi(B) has 8 letters; (1, 4, 2) sums to 7."""
        with pytest.raises(ValueError, match="summing"):
            Substitution(WORKED.alphabet, WORKED.images, counts=[[1, 2, 2], [1, 4, 2], [1, 1, 2]])

    @pytest.mark.parametrize("image", ["", 5, None], ids=["empty", "int", "missing"])
    @pytest.mark.parametrize("counts", [None, ROWS], ids=["scanned", "given"])
    def test_bad_image(self, image, counts):
        images = dict(WORKED.images, B=image)
        if image is None:
            del images["B"]
        with pytest.raises(UnknownLetter, match="'B'"):
            Substitution(WORKED.alphabet, images, counts=counts)

    def test_positional_counts_refused(self):
        with pytest.raises(TypeError):
            Substitution(WORKED.alphabet, WORKED.images, self.ROWS)


class TestSpectrum:
    def test_worked_eigenvalues(self):
        vals = eigenvalues(WORKED, F2)
        lam = parse_quadnum("5+2*e", F2)       # 3 + 2*sqrt2
        lam_conj = parse_quadnum("1-2*e", F2)  # 3 - 2*sqrt2
        assert F2.one() in vals
        assert lam in vals and lam_conj in vals
        assert len(vals) == 3

    def test_eigenvalue_outside_field(self):
        fib3 = Substitution(("A", "B", "C"),
                            {"A": "AB", "B": "C", "C": "A"})  # x^3 = x^2 + 1
        with pytest.raises(NoSquareRoot):
            eigenvalues(fib3, F2)

    def test_fibonacci_in_golden_field(self):
        f5 = make_field(1, 1, -1, 1)  # eps = (sqrt5-1)/2
        fib = Substitution(("0", "1"), {"0": "01", "1": "0"})
        vals = eigenvalues(fib, f5)
        assert f5.num(1, 1) in vals   # (1+sqrt5)/2
        assert f5.num(0, -1) in vals  # (1-sqrt5)/2

    def test_eigenvector_identity(self, spec):
        lam = parse_quadnum("5+2*e", F2)
        assert WORKED.check_eigenvector(spec.eps, lam)
        assert not WORKED.check_eigenvector(spec.eps, lam * lam)
        assert not WORKED.check_eigenvector(spec.eps, F2.rational(1) / 2)

    @pytest.mark.parametrize("lam", ["5+2*e", "29+12*e", "3+2*e", "1/2", "5/3+2/3*e", "-5-2*e"])
    @pytest.mark.parametrize("power", [1, 2])
    def test_eigenvector_matches_field_products(self, spec, lam, power):
        """The integer check against N * v = lam' * v in field arithmetic,
        for lam in and outside Z[e]; phi^n has the eigenvalue lam^n."""
        lam = parse_quadnum(lam, F2)
        sub = WORKED.power(power)
        one = F2.one()
        v = (one - spec.eps, one - 2 * spec.eps, -spec.eps)
        want = all(sum(k * y for k, y in zip(row, v)) == lam.conjugate() * x
                   for row, x in zip(sub.incidence(), v))
        assert sub.check_eigenvector(spec.eps, lam) == want
        assert want == (lam == parse_quadnum("5+2*e", F2) ** power)

    def test_eigenvector_rejects_swapped_counts(self, spec):
        """A and C exchanged in the image of A: its row reads (2, 2, 1)."""
        lam = parse_quadnum("5+2*e", F2)
        swapped = Substitution(WORKED.alphabet, dict(WORKED.images, A="BBACA"))
        assert swapped.incidence()[0] == [2, 2, 1]
        assert not swapped.check_eigenvector(spec.eps, lam)

    def test_primitive(self):
        assert WORKED.is_primitive()
        reducible = Substitution(("A", "B", "C"),
                                 {"A": "AB", "B": "BA", "C": "C"})
        assert not reducible.is_primitive()


class TestFixedPoint:
    def test_worked_fixed_point(self, spec):
        assert WORKED.verify_fixed_point(spec, 10**4)

    def test_perturbed_images_fail(self, spec):
        for images in [
            {"A": "BBCAC", "B": "BBCBBCAC", "C": "BCCA"},  # scrambled C
            {"A": "BCAC", "B": "BBCBBCAC", "C": "BCAC"},   # wrong A
        ]:
            bad = Substitution(("A", "B", "C"), images)
            assert not bad.verify_fixed_point(spec, 200)

    def test_images_longer_than_radius(self, spec):
        """Every image of phi^4 is longer than the radius, so only the
        partial first block on each side is there to compare."""
        phi4 = WORKED.power(4)
        assert phi4.verify_fixed_point(spec, 100)
        reversed_images = {a: w[::-1] for a, w in phi4.images.items()}
        assert not Substitution(phi4.alphabet, reversed_images).verify_fixed_point(spec, 100)

    def test_radius_must_be_positive(self, spec):
        with pytest.raises(ValueError):
            WORKED.verify_fixed_point(spec, 0)

    def test_block_starts(self, spec):
        fwd = code_orbit(spec, 0, 20)  # BBCBBCAC BBCBBCAC BCAC
        assert WORKED.block_starts(fwd) == {0: "B", 8: "B", 16: "C"}
        assert WORKED.block_starts(fwd[:10]) == {0: "B", 8: "B"}
        bwd = code_orbit(spec, -9, 0)[::-1]  # u_-1 ... u_-9
        assert WORKED.block_starts(bwd, back=True) == {3: "C", 8: "A"}
        assert WORKED.block_starts("C" + fwd[1:]) is None

    @pytest.mark.parametrize("word, back, starts", [
        ("", False, {}), ("", True, {}),
        ("BBC", False, {0: "B"}),  # shorter than the first image
        ("CAC", True, {3: "C"}),  # shorter than the first mirrored image
        ("BBCBBCACBC", False, None),  # the last, partial block reads BB
        ("CACBCACBBB", True, None),  # the last, partial block reads CACB
        ("BBCBBCACBB", False, {0: "B", 8: "B"}),
    ])
    def test_block_starts_edges(self, word, back, starts):
        assert WORKED.block_starts(word, back) == starts
        assert letterwise_block_starts(WORKED, word, back) == starts

    def test_block_starts_match_letterwise_on_corpus(self):
        """The block cut agrees with the letter-by-letter loop on every
        Invariant corpus witness and on the same witness with B's image
        reversed, forward and backward, for orbit words cut at several
        lengths: around the first image's end and inside later blocks."""
        invariant = [rep for rep in (decide(sp) for _label, sp in corpus())
                     if rep.verdict == "Invariant"]
        assert len(invariant) == 59
        rejected = 0
        for rep in invariant:
            sub = rep.substitution
            wrong = Substitution(sub.alphabet, dict(sub.images, B=sub.images["B"][::-1]))
            coder = OrbitCoder(rep.spec)
            for back in (False, True):
                text, _ = coder.letters(3000, back=back)
                first = len(sub.images[text[0]])
                for n in sorted({1, 2, first - 1, first, first + 1, 100, 1000, 3000}):
                    word = text[:n]
                    assert sub.block_starts(word, back) is not None
                    for phi in (sub, wrong):
                        got = phi.block_starts(word, back)
                        assert got == letterwise_block_starts(phi, word, back), (n, back)
                        rejected += got is None
        assert rejected > 0

    def test_fibonacci_fixed_point(self):
        fib = Substitution(("0", "1"), {"0": "01", "1": "0"})
        w = "0"
        for _ in range(15):
            w = fib(w)
        assert fib(w).startswith(w)


class TestComplexity:
    def test_count_factors(self):
        assert count_factors("ABAB", 2) == 2  # AB, BA
        assert count_factors("AAAA", 3) == 1

    def test_exchange_word_complexity(self, spec):
        w = code_orbit(spec, -2000, 2000)
        assert complexity(w, 12) == [1] + [2 * n + 1 for n in range(1, 13)]
