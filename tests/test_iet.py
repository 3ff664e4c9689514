"""Three-interval exchange: parameter validation, normalization, the
forward/backward step maps, and exact orbit coding."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

import iet3.iet
import iet3.invariance
from conftest import convergents, corpus
from iet3 import (OrbitCoder, SturmianSpec, code_orbit, decide, inverse_step, make_field,
                  make_spec, non_degenerate, normalize, orbit_window, parse_quadnum, step,
                  sturmian_images_match, sturmian_word)
from iet3.errors import OutOfDomain, RationalSlope
from iet3.quadunit import contraction
from oracles import exact_induce, orbit_points, points, subintervals

F2 = make_field(1, 2, -1, 1)
F3 = make_field(1, 2, -2, 1)  # e = sqrt3 - 1
F5 = make_field(1, 1, -1, 1)  # e = (sqrt5 - 1)/2
WORKED_WORD = "BBCBBCACBBCBBCACBCAC"


@pytest.fixture(scope="module")
def spec():
    return make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2),
                     parse_quadnum("-1/2*e", F2))


class TestSpecConstruction:
    def test_worked_geometry(self, spec):
        # d1 = c + l - 1 + eps, d2 = c + eps
        assert spec.d1 == spec.c + spec.l - 1 + spec.eps
        assert spec.d2 == spec.c + spec.eps
        assert spec.shifts() == (1 - spec.eps, 1 - 2 * spec.eps, -spec.eps)
        assert spec.contains(F2.zero())
        assert non_degenerate(spec)

    def test_subintervals_tile_domain(self, spec):
        subs = subintervals(spec)
        assert subs[0][0] == spec.c
        assert subs[0][1] == subs[1][0]
        assert subs[1][1] == subs[2][0]
        assert subs[2][1] == spec.end

    def test_images_tile_domain(self, spec):
        """T is a bijection: the shifted subintervals tile [c, c+l) in
        reversed order (C image first)."""
        subs = subintervals(spec)
        shifts = spec.shifts()
        images = sorted(((lo + shifts[i], hi + shifts[i])
                         for i, (lo, hi) in enumerate(subs)),
                        key=lambda p: p[0])
        assert images[0][0] == spec.c
        assert images[0][1] == images[1][0]
        assert images[1][1] == images[2][0]
        assert images[2][1] == spec.end

    def test_rational_slope_rejected(self):
        with pytest.raises(RationalSlope):
            f = make_field(1, 2, -1, 1)
            one = f.one()
            normalize(one, one, one, f.zero())

    def test_normalize_out_of_domain(self):
        f = F2
        with pytest.raises(OutOfDomain):
            normalize(f.eps(), f.one() - f.eps(), f.eps(), f.num(100, 0))

    def test_normalize_recovers_spec(self, spec):
        """Scale the three lengths and the origin by any positive mu and
        normalization returns the same spec."""
        mu = parse_quadnum("3+e", F2)
        subs = subintervals(spec)
        lengths = [hi - lo for lo, hi in subs]
        # mu_norm = a1 + 2 a2 + a3 scales to 1 when lengths come from a
        # normalized spec, so rescale arbitrarily first
        a1, a2, a3 = (x * mu for x in lengths)
        x0 = -spec.c * mu
        got = normalize(a1, a2, a3, x0)
        assert got.eps == spec.eps
        assert got.l == spec.l
        assert got.c == spec.c


class TestStep:
    def test_worked_orbit_word(self, spec):
        assert code_orbit(spec, 0, 20) == WORKED_WORD

    def test_orbit_window_splices(self, spec):
        w = orbit_window(spec, 50)
        assert len(w) == 100
        assert w[50:] == code_orbit(spec, 0, 50)
        assert w[:50] == code_orbit(spec, -50, 0)

    def test_step_letter_matches_subinterval(self, spec):
        z = F2.zero()
        for _ in range(200):
            nz, letter = step(spec, z)
            idx = "ABC".index(letter)
            lo, hi = subintervals(spec)[idx]
            assert lo <= z < hi
            assert nz == z + spec.shifts()[idx]
            z = nz

    def test_inverse_round_trip(self, spec):
        z = F2.zero()
        for _ in range(200):
            nz, letter = step(spec, z)
            back, back_letter = inverse_step(spec, nz)
            assert back == z and back_letter == letter
            z = nz

    def test_orbit_stays_in_lattice_and_domain(self, spec):
        z = F2.zero()
        for _ in range(300):
            z, _ = step(spec, z)
            assert z.in_z_eps()
            assert spec.contains(z)

    def test_step_out_of_domain(self, spec):
        with pytest.raises(OutOfDomain):
            step(spec, F2.num(50, 0))

    @given(n=st.integers(-80, 80))
    def test_coder_point_matches_iterated_step(self, n):
        f = F2
        sp = make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                       parse_quadnum("-1/2*e", f))
        z = f.zero()
        for _ in range(abs(n)):
            z = step(sp, z)[0] if n > 0 else inverse_step(sp, z)[0]
        # reproduce the point from the coded word's shifts
        sh = sp.shifts()
        w = code_orbit(sp, 0, n) if n >= 0 else code_orbit(sp, n, 0)
        y = f.zero()
        if n >= 0:
            for ch in w:
                y = y + sh["ABC".index(ch)]
        else:
            for ch in reversed(w):
                y = y - sh["ABC".index(ch)]
        assert y == z

    def test_letter_frequencies(self, spec):
        """Frequencies approach the subinterval lengths over the domain."""
        n = 20000
        w = code_orbit(spec, 0, n)
        subs = subintervals(spec)
        for i, ch in enumerate("ABC"):
            length = subs[i][1] - subs[i][0]
            expect = float(Fraction(length.a)) + float(Fraction(length.b)) * (2 ** 0.5 - 1)
            target = expect / float(Fraction(spec.l.a) + Fraction(spec.l.b) * (2 ** 0.5 - 1))
            assert abs(w.count(ch) / n - target) < 0.01


def reference(spec, z, n, back=False):
    """n (point, letter) pairs of the QuadNum maps from z, in the order
    `oracles.orbit_points` yields them."""
    out = []
    for _ in range(n):
        if back:
            z, letter = inverse_step(spec, z)
            out.append((z, letter))
        else:
            nxt, letter = step(spec, z)
            out.append((z, letter))
            z = nxt
    return out


class TestFloatFilter:
    """OrbitCoder decides letters by float margins, exactly inside the
    frame's error bound; it must agree with the QuadNum reference maps."""

    @pytest.mark.parametrize("tiny", [0, Fraction(1, 3 * 10**400)])
    def test_coder_matches_step(self, tiny):
        """sqrt5-neg with l = 1 - e/2 and c = -e/3 (an s = 4 spec whose
        return walks are about 10^5 letters), and the same with c moved
        by 10^-400/3, whose pairs lie far beyond the float range."""
        sp = make_spec(F5.eps(), parse_quadnum("1-1/2*e", F5),
                       parse_quadnum("-1/3*e", F5) - tiny)
        coder, n = OrbitCoder(sp), 300 if tiny else 3000
        for points, back in ((orbit_points(coder), False), (orbit_points(coder, back=True), True)):
            got = [(coder.frame.point(x), "ABC"[i]) for x, i in islice(points, n)]
            assert got == reference(sp, F5.zero(), n, back)

    def test_starts_within_float_error_of_a_cut(self):
        """Orbits started at a cut moved by b*e - a, for convergents a/b of e
        with b up to 10^12: the offset is far below the float error of the
        start's pair, so the first letters need the exact fallback."""
        sp = make_spec(F5.eps(), parse_quadnum("1-1/2*e", F5), parse_quadnum("-1/3*e", F5))
        coder = OrbitCoder(sp)
        cuts = {False: (sp.d1, sp.d2), True: (sp.end - sp.eps, sp.c + 1 - sp.eps)}
        for a, b in convergents(F5, 10**12)[-6:]:
            for back in (False, True):
                for cut in cuts[back]:
                    z = cut + b * F5.eps() - a
                    points = orbit_points(coder, coder.frame.pair(z), back)
                    got = ["ABC"[i] for _x, i in islice(points, 20)]
                    assert got == [letter for _z, letter in reference(sp, z, 20, back)]

    def test_induce_matches_exact_oracle(self, monkeypatch):
        """Every induction of `decide` on the corpus, of letters(10**4) both
        ways, of the two Sturmian words of `sturmian_images_match`, of
        letters(10**4) on the sqrt2 and sqrt5 specs with c moved by
        10^-400/3, and of Sturmian words from intercepts within float error
        of a crossing gives the pieces of the induction with every
        comparison exact; and `Frame.cmp` decides some comparisons there."""
        induce, counts = iet3.iet._induce, {"inductions": 0, "exact": 0}

        def checked(frame, *args):
            cmp = frame.cmp

            def counted(p, q):
                counts["exact"] += 1
                return cmp(p, q)
            frame.cmp = counted
            try:
                got = induce(frame, *args)
            finally:
                frame.cmp = cmp
            assert got == exact_induce(cmp, *args)
            counts["inductions"] += 1
            return got
        monkeypatch.setattr(iet3.iet, "_induce", checked)
        monkeypatch.setattr(iet3.invariance, "_induce", checked)
        specs = [sp for _label, sp in corpus()]
        for sp in specs:
            decide(sp)
            sturmian_images_match(sp, 10**4)
        tiny = Fraction(1, 3 * 10**400)
        specs += [make_spec(f.eps(), parse_quadnum(l, f), parse_quadnum(c, f) - tiny)
                  for f, l, c in ((F2, "1/2+1/2*e", "-1/2*e"), (F5, "1-1/2*e", "-1/3*e"))]
        for sp in specs:
            for back in (False, True):
                OrbitCoder(sp).letters(10**4, back=back)
        for f in (F2, F5):
            a, b = convergents(f, 10**12)[-1]
            for rounding in ("floor", "ceiling"):
                sturmian_word(SturmianSpec(f.eps(), 1 - f.eps() + (b * f.eps() - a), rounding), 10**4)
        assert counts["inductions"] > 1000 and counts["exact"] > 0


class TestKernel:
    """`OrbitCoder.letters`, the one loop that decides orbit letters,
    against the QuadNum maps, across the chunk ends of its error bound
    (steps 64, 192, 448)."""

    @pytest.fixture(scope="class", params=[0, Fraction(1, 3 * 10**400)])
    def twin(self, request):
        """The s = 4 sqrt5-neg spec of TestFloatFilter, and its twin with c
        moved by 10^-400/3, with 1001 reference steps each way."""
        sp = make_spec(F5.eps(), parse_quadnum("1-1/2*e", F5),
                       parse_quadnum("-1/3*e", F5) - request.param)
        return sp, {back: reference(sp, F5.zero(), 1001, back) for back in (False, True)}

    @pytest.mark.parametrize("back", [False, True])
    @pytest.mark.parametrize("n", [63, 64, 65, 191, 192, 193, 1000])
    def test_letters_match_step(self, twin, n, back):
        sp, ref = twin
        coder = OrbitCoder(sp)
        text, end = coder.letters(n, back=back)
        assert text == "".join(letter for _z, letter in ref[back][:n])
        # the reference pairs u_k with T^k(0) forward, u_-k-1 with T^-k-1(0) backward
        assert coder.frame.point(end) == ref[back][n - 1 if back else n][0]
        assert [coder.frame.point(x) for x in points(coder, text, back=back)] == \
            [z for z, _letter in ref[back][:n]]

    @pytest.mark.parametrize("back", [False, True])
    @pytest.mark.parametrize("a, b", [(0, 5), (1, 63), (64, 128), (100, 900)])
    def test_resume_continues_the_word(self, twin, a, b, back):
        coder = OrbitCoder(twin[0])
        head, mid = coder.letters(a, back=back)
        tail, end = coder.letters(b, mid, back=back)
        assert (head + tail, end) == coder.letters(a + b, back=back)

    @pytest.mark.parametrize("back", [False, True])
    def test_streams_read_letters(self, twin, back):
        """The streaming readers join chunks of `letters` (64, 128, ...)."""
        coder = OrbitCoder(twin[0])
        stream = coder.backward() if back else coder.forward()
        assert "".join(islice(stream, 1000)) == coder.letters(1000, back=back)[0]

    @pytest.fixture(scope="class", params=[
        (F2, "1/2+1/2*e", "-1/2*e", 0), (F2, "1/2+1/2*e", "-1/2*e", Fraction(1, 3 * 10**400)),
        (F3, "1-1/3*e", "-1/3", 0),
        (F5, "1-1/2*e", "-1/3*e", 0), (F5, "1-1/2*e", "-1/3*e", Fraction(1, 3 * 10**400))],
        ids=["sqrt2", "sqrt2-twin", "sqrt3", "sqrt5", "sqrt5-twin"])
    def leveled(self, request):
        """A spec per field, and the sqrt2 and sqrt5 ones with c moved by
        10^-400/3, whose pairs lie far beyond the float range.  With `ns`,
        the read lengths INDUCE_COST * trace(M^k) at which `read` starts to
        induce level k, for k = 1 and, in sqrt2 whose unit is the smallest,
        k = 2; and reference steps each way past the last of them."""
        field, l, c, tiny = request.param
        sp = make_spec(field.eps(), parse_quadnum(l, field), parse_quadnum(c, field) - tiny)
        (m00, _), (_, m11) = contraction(field)
        trace = m00 + m11
        ns = [iet3.iet.INDUCE_COST * t for t in (trace, trace * trace - 2)]
        ns = ns if ns[1] < 1200 else ns[:1]
        steps = ns[-1] + 80
        return sp, ns, {back: reference(sp, field.zero(), steps + 1, back)
                        for back in (False, True)}

    @pytest.mark.parametrize("back", [False, True])
    def test_leveled_letters_match_step(self, leveled, back, monkeypatch):
        """Reads at each level's threshold, one letter either side of it, and
        at every length up to 80 letters past the deepest, so that the last
        word is cut at each of its letters and at its end."""
        sp, ns, ref = leveled
        coder = OrbitCoder(sp)
        induced, induce = [], iet3.iet._induce

        def counted(*args):
            induced.append(args)
            return induce(*args)
        monkeypatch.setattr(iet3.iet, "_induce", counted)
        coder.letters(ns[-1], back=back)
        assert len(induced) == len(ns)
        lengths = sorted({n + d for n in ns for d in (-1, 0, 1)} | set(range(ns[-1], ns[-1] + 80)))
        for n in lengths:
            text, end = coder.letters(n, back=back)
            assert text == "".join(letter for _z, letter in ref[back][:n]), n
            assert coder.frame.point(end) == ref[back][n - 1 if back else n][0], n

    @pytest.mark.parametrize("back", [False, True])
    def test_leveled_resume_matches_step(self, leveled, back):
        """A read from a resumed point induces its windows around that point."""
        sp, ns, ref = leveled
        coder = OrbitCoder(sp)
        _, mid = coder.letters(37, back=back)
        text, end = coder.letters(ns[-1] + 40, mid, back=back)
        assert text == "".join(letter for _z, letter in ref[back][37:ns[-1] + 77])
        assert coder.frame.point(end) == ref[back][ns[-1] + (76 if back else 77)][0]

    def test_negative_length_rejected(self, twin):
        with pytest.raises(ValueError, match="nonnegative"):
            OrbitCoder(twin[0]).letters(-3)

    @pytest.mark.parametrize("back", [False, True])
    def test_start_outside_domain_rejected(self, twin, back):
        coder = OrbitCoder(twin[0])
        for x in (coder.end, (coder.c[0] - 1, coder.c[1])):
            with pytest.raises(OutOfDomain):
                coder.letters(1000, x, back=back)

    def test_leveled_starts_within_float_error_of_a_cut(self):
        """The starts of TestFloatFilter's test of that name, on the sqrt2
        spec, read far enough to induce a level: the start's window holds
        the cut, so its first piece needs the exact fallback."""
        sp = make_spec(F2.eps(), parse_quadnum("1/2+1/2*e", F2), parse_quadnum("-1/2*e", F2))
        coder = OrbitCoder(sp)
        (m00, _), (_, m11) = contraction(F2)
        n = iet3.iet.INDUCE_COST * (m00 + m11)
        cuts = {False: (sp.d1, sp.d2), True: (sp.end - sp.eps, sp.c + 1 - sp.eps)}
        for a, b in convergents(F2, 10**12)[-3:]:
            for back in (False, True):
                for cut in cuts[back]:
                    z = cut + b * F2.eps() - a
                    text, _ = coder.letters(n, coder.frame.pair(z), back)
                    assert text == "".join(letter for _z, letter in reference(sp, z, n, back))
