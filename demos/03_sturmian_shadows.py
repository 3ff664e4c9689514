"""Two-letter shadows of a three-letter exchange word.

Collapsing the middle letter B to 01 or to 10 projects the exchange word
onto two Sturmian words; the three-letter word is substitution invariant
exactly when both shadows are.  The script checks the projection
identities letter by letter and runs the two-sided criterion on an
invariant and a non-invariant parameter set.

Run:  python demos/03_sturmian_shadows.py
"""

from iet3 import (SturmianSpec, code_orbit, corollary_crosscheck, decide,
                  make_field, make_spec, parse_quadnum, sigma,
                  sturmian_images_match, sturmian_word, yasutomi)


def describe(spec, title):
    print(f"--- {title}")
    word = code_orbit(spec, 0, 30)
    one = spec.field.one()
    print("u           =", word, "...")
    print("sigma01(u)  =", sigma("01", word)[:30], "...")
    print("sigma10(u)  =", sigma("10", word)[:30], "...")
    s01 = SturmianSpec(one - spec.eps, (-spec.c).frac())
    s10 = SturmianSpec(one - spec.eps, (-spec.l - spec.c).frac())
    print("slope 1-eps, intercept -c     :", sturmian_word(s01, 30), "...")
    print("slope 1-eps, intercept -(l+c) :", sturmian_word(s10, 30), "...")
    print("projection identities at radius 1e4:",
          sturmian_images_match(spec, 10**4))
    y1 = yasutomi(spec.eps, (-spec.c).frac())
    y2 = yasutomi(one - spec.eps, (spec.l + spec.c).frac())
    verdict = decide(spec, synthesize_witness=False).verdict
    print(f"two-letter criteria: {y1} and {y2}; three-letter verdict: "
          f"{verdict}; agreement: {corollary_crosscheck(spec)}")
    print()


def main():
    field = make_field(1, 2, -1, 1)
    eps = field.eps()
    l = parse_quadnum("1/2+1/2*e", field)
    describe(make_spec(eps, l, parse_quadnum("-1/2*e", field)),
             "invariant parameters")
    describe(make_spec(eps, l, parse_quadnum("-3/2+7/2*e", field)),
             "non-invariant parameters (shifted origin)")


if __name__ == "__main__":
    main()
