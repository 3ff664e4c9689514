"""Acceptance gate: the nine end-to-end criteria, one test each, printing
an explicit PASS line per criterion (run with -s to see them).

Criteria:
 1. worked-example decision, synthesis, fixed point, eigen-identity
 2. factor complexity 2n+1, stable under doubling the radius
 3. negative decision agrees with the two-letter criterion
 4. three-gap structure and star/orbit correspondence
 5. ancestor-by-iteration vs conjugate-scaling, zero mismatches
 6. scaling-unit properties across five fields; Pell vs brute force
 7. decision == double two-letter criterion over the full corpus
 8. self-verifying synthesis on every invariant corpus spec
 9. Sturmian complexity n+1 and projection identities on the corpus
"""

import time
from math import isqrt

import pytest

from conftest import corpus
from iet3 import (CapSetConfig, SturmianSpec, check_block_starts, complexity, decide,
                  gap_class, generate, make_field, make_spec, orbit_window,
                  parse_quadnum, point_value, solve_pell, star, step,
                  sturmian_images_match, sturmian_word, synthesize, yasutomi)
from iet3.quadunit import PellSolution, ScalingUnit, lemma_unit
from oracles import check_lemma_ancestor


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def worked():
    f = make_field(1, 2, -1, 1)
    return make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                     parse_quadnum("-1/2*e", f))


def test_1_worked_example_end_to_end(worked):
    t0 = time.time()
    rep = decide(worked)
    assert rep.verdict == "Invariant"
    unit, ret, sub = rep.unit, rep.return_system, rep.substitution
    f = worked.field
    assert unit.lam == parse_quadnum("5+2*e", f)  # 3 + 2*sqrt2
    assert unit.s == 1
    assert sub.images == {"A": "BBCAC", "B": "BBCBBCAC", "C": "BCAC"}
    assert sub.verify_fixed_point(worked, 10**4)
    # N (1-eps, 1-2eps, -eps)^T = (3 - 2 sqrt2) (same), exactly
    assert sub.check_eigenvector(worked.eps, unit.lam)
    elapsed = time.time() - t0
    assert elapsed < 5
    report(1, f"base substitution, no ladder retry, {elapsed:.2f}s")


def test_2_complexity_2n_plus_1_stable(worked):
    t0 = time.time()
    expected = [1] + [2 * n + 1 for n in range(1, 31)]
    w = orbit_window(worked, 10**5)
    assert complexity(w, 30) == expected
    w2 = orbit_window(worked, 2 * 10**5)
    assert complexity(w2, 30) == expected
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, f"C(n)=2n+1 for n<=30 at radius 1e5 and 2e5, {elapsed:.1f}s")


def test_3_negative_decision(worked):
    f = worked.field
    sp = make_spec(worked.eps, worked.l, parse_quadnum("-3/2+7/2*e", f))
    rep = decide(sp)
    assert rep.verdict == "NotInvariant"
    assert not yasutomi(sp.eps, (-sp.c).frac())  # the sigma01-side criterion
    from iet3 import corollary_crosscheck
    assert corollary_crosscheck(sp)
    report(3, "NotInvariant, sigma01-side criterion fails, agreement holds")


def test_4_three_gap_structure(worked):
    cfg = CapSetConfig(worked.eps, worked.c, worked.l)
    f = worked.field
    pts = generate(cfg, 10**4)
    allowed = {
        "D2": parse_quadnum("2+e", f),        # 1 + sqrt2
        "D1": parse_quadnum("3+e", f),        # 2 + sqrt2
        "D1+D2": parse_quadnum("5+2*e", f),   # 3 + 2*sqrt2
    }
    for p, q in zip(pts, pts[1:]):
        assert point_value(cfg, q) - point_value(cfg, p) == allowed[gap_class(p, q)]
    origin = pts.index((0, 0))
    z = f.zero()
    for p in pts[origin:origin + 2000]:
        assert star(cfg, p) == z
        z, _ = step(worked, z)
    report(4, "1e4 points, gaps in {1+sqrt2, 2+sqrt2, 3+2sqrt2}, stars = orbit")


def test_5_ancestor_oracle_equivalence(worked):
    from iet3.quadunit import ScalingUnit, class_fixing_power
    lam0 = lemma_unit(worked.field)
    s = class_fixing_power(lam0, 2, [worked.c, worked.end])
    unit = ScalingUnit(lam0 ** s, s, lam0)
    z = worked.field.zero()
    checked = 0
    for _ in range(520):
        assert check_lemma_ancestor(worked, unit, z)
        z, _ = step(worked, z)
        checked += 1
    assert checked >= 500
    report(5, f"{checked} orbit points, zero mismatches")


def test_6_unit_properties_and_pell():
    fields = [(1, 1, -1, 1), (1, 2, -1, 1), (1, 2, -2, 1), (1, 1, -3, 1),
              (1, 1, -4, 1)]
    discs = []
    for fargs in fields:
        f = make_field(*fargs)
        discs.append(f.disc)
        lam0 = lemma_unit(f)
        unit = ScalingUnit(lam=lam0, s=1, gamma=lam0)
        assert unit.is_valid()
        m = unit.mult_matrix()
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1)
    assert sorted(discs) == [5, 8, 12, 13, 17]
    for D in range(2, 51):
        if isqrt(D) ** 2 == D:
            continue
        y = 1
        while True:
            x2 = 1 + D * y * y
            x = isqrt(x2)
            if x * x == x2:
                break
            y += 1
        assert solve_pell(D) == PellSolution(X=x, Y=y, D=D)
    report(6, "unit laws in 5 fields; Pell matches brute force for D<=50")


def test_7_corollary_equivalence_over_corpus():
    t0 = time.time()
    specs = corpus()
    assert len(specs) >= 100
    labels = {label.split("/")[0] for label, _ in specs}
    assert {"sqrt2-neg", "sqrt2-rev", "sqrt2-nonsturm", "sqrt3-neg",
            "sqrt3-rev", "sqrt3-nonsturm", "sqrt5-neg", "sqrt5-rev",
            "sqrt5-nonsturm"} <= labels
    for label, sp in specs:
        rep = decide(sp, synthesize_witness=False)
        one = sp.field.one()
        both = yasutomi(sp.eps, (-sp.c).frac()) and yasutomi(
            one - sp.eps, (sp.l + sp.c).frac())
        assert (rep.verdict == "Invariant") == both, label
    elapsed = time.time() - t0
    assert elapsed < 300
    report(7, f"{len(specs)} specs, full agreement, {elapsed:.1f}s")


def test_8_self_verifying_synthesis():
    t0 = time.time()
    invariant = [(label, sp) for label, sp in corpus()
                 if decide(sp, synthesize_witness=False).verdict == "Invariant"]
    assert invariant
    for label, sp in invariant:
        unit, ret, sub = synthesize(sp)
        assert sub.verify_fixed_point(sp, 10**4), label
        assert ret.homothety_ok, label
        assert check_block_starts(sp, unit, sub, 1000), label
    report(8, f"{len(invariant)} invariant specs synthesized and verified, "
              f"{time.time() - t0:.1f}s")


def test_9_sturmian_sanity():
    t0 = time.time()
    expected = [1] + [n + 1 for n in range(1, 31)]
    for fargs, x0 in [((1, 2, -1, 1), "0"), ((1, 2, -1, 1), "1/2*e"),
                      ((1, 2, -2, 1), "1/3"), ((1, 1, -1, 1), "1/2+1/3*e")]:
        f = make_field(*fargs)
        for alpha in (f.eps(), f.one() - f.eps()):
            w = sturmian_word(SturmianSpec(alpha, parse_quadnum(x0, f)), 4000)
            assert complexity(w, 30) == expected
    for label, sp in corpus():
        assert sturmian_images_match(sp, 10**4), label
    report(9, f"C(n)=n+1 for 8 generated words; projection identities on "
              f"{len(corpus())} specs at radius 1e4, {time.time() - t0:.1f}s")
