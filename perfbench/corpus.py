"""The benchmark's inputs: the 108-spec corpus and the CLI argument choices.

The corpus is rebuilt here with the same rule as the test suite's fixture
(three real quadratic fields, three slopes each, a small exact grid of
lengths and origins, at most twelve specs per slope), so the benchmark owns
its inputs and does not import from the tests.
"""

from fractions import Fraction

from iet3 import decide, make_field, make_spec, non_degenerate, parse_quadnum

CORPUS_SIZE = 108
CORPUS_INVARIANT = 59
# Specs whose return times all exceed this many letters form synth-long.
LONG_RETURN = 10**4

FIELD_SLOPES = [
    ("sqrt2-neg", (1, 2, -1, 1)),
    ("sqrt2-rev", (1, -4, 2, -1)),
    ("sqrt2-nonsturm", (8, -8, 1, -1)),
    ("sqrt3-neg", (1, 2, -2, 1)),
    ("sqrt3-rev", (1, -4, 1, -1)),
    ("sqrt3-nonsturm", (16, -16, 1, -1)),
    ("sqrt5-neg", (1, 1, -1, 1)),
    ("sqrt5-rev", (1, -3, 1, -1)),
    ("sqrt5-nonsturm", (5, -5, 1, -1)),
]

_GRID = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 2),
         Fraction(-1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)]

_PER_SLOPE = 12

# The worked example of the CLI: eps = sqrt2 - 1, l = sqrt2/2, c = (1-sqrt2)/2.
WORKED_FIELD = "1,2,-1,+"
WORKED_ARGS = ["--field", WORKED_FIELD, "--eps", "e", "--l", "1/2+1/2*e",
               "--c=-1/2*e"]

# Word-parameter choices for the cli workload.  Within each list every
# choice costs the same: a generate window always spans GENERATE_LETTERS
# letters (split differently between the backward and forward orbit), a
# capset call always emits CAPSET_POINTS + 1 points, and the complexity
# specs share the worked example's field and slope.
GENERATE_LETTERS = 100_000
GENERATE_BACK = [0, 25_000, 50_000, 75_000, 100_000]
CAPSET_POINTS = 3000
CAPSET_BACK = [0, 750, 1500, 2250, 3000]
COMPLEXITY_N_MAX = 30
COMPLEXITY_RADIUS = 20_000
COMPLEXITY_SPECS = [
    ("1/2+1/2*e", "-1/2*e"),
    ("1/2+1/2*e", "0"),
    ("1/2+1/2*e", "-1/2"),
    ("1/2+1/2*e", "-1/2+1/2*e"),
]
SWEEP_INVARIANT = 3
SWEEP_NOT_INVARIANT = 3
# The sweep pool holds Invariant specs whose witness is cheap (s = 1).
SWEEP_MAX_RETURN = 100


def build():
    """Deterministic list of (label, IetSpec) pairs, in the test suite's order."""
    out = []
    for label, fargs in FIELD_SLOPES:
        f = make_field(*fargs)
        eps = f.eps()
        one = f.one()
        taken = 0
        for la in _GRID:
            for lb in _GRID:
                if taken >= _PER_SLOPE:
                    break
                l = f.num(la, lb)
                if not (l < one and l > eps and l > one - eps):
                    continue
                for ca in _GRID:
                    for cb in _GRID:
                        if taken >= _PER_SLOPE:
                            break
                        c = f.num(ca, cb)
                        if not (c > -1 and c.sign() <= 0 and (c + l).sign() > 0):
                            continue
                        try:
                            spec = make_spec(eps, l, c)
                        except Exception:
                            continue
                        if not non_degenerate(spec):
                            continue
                        out.append((f"{label}/l={l}/c={c}", spec))
                        taken += 1
    return out


def build_checked():
    """The corpus with its verdicts, after checking its size and make-up."""
    specs = build()
    verdicts = {label: decide(spec, synthesize_witness=False).verdict
                for label, spec in specs}
    invariant = sum(v == "Invariant" for v in verdicts.values())
    if len(specs) != CORPUS_SIZE or invariant != CORPUS_INVARIANT:
        raise RuntimeError(f"corpus has {len(specs)} specs, {invariant} Invariant; "
                           f"expected {CORPUS_SIZE} and {CORPUS_INVARIANT}")
    return specs, verdicts


def worked_spec():
    f = make_field(1, 2, -1, 1)
    return make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f),
                     parse_quadnum("-1/2*e", f))


def spec_args(spec):
    """CLI spec arguments that reproduce `spec` exactly."""
    f = spec.field
    branch = "+" if f.branch > 0 else "-"
    return ["--field", f"{f.A},{f.B},{f.C},{branch}", f"--eps={spec.eps}",
            f"--l={spec.l}", f"--c={spec.c}"]


def sweep_line(spec):
    f = spec.field
    return {"field": [f.A, f.B, f.C, f.branch], "eps": str(spec.eps),
            "l": str(spec.l), "c": str(spec.c)}
