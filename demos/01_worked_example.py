"""End-to-end walkthrough on one exactly-known parameter set.

The exchange has slope eps = sqrt(2)-1, domain length l = sqrt(2)/2 and
origin c = (1-sqrt(2))/2.  The script decides substitution invariance and
prints the synthesized substitution with its scaling unit and return
interval.  The substitution is the first return map on J = lam' * [c, c+l),
built by nested induction on the windows lam0'^k * [c, c+l) of the
fundamental unit lam0, each induced from the one before and the last one J.
The induction also proves it: each lam' * I_i reads the image of its
letter and lands on lam' * T(I_i) (the homothety check), and as
0 = lam' * 0 the orbit word is the fixed point u = phi(u).  The script then
cross-checks that proof against the orbit word itself.

Run:  python demos/01_worked_example.py
"""

from iet3 import (check_block_starts, code_orbit, decide, make_field,
                  make_spec, parse_quadnum)


def main():
    field = make_field(1, 2, -1, 1)  # x^2 + 2x - 1 = 0, e = sqrt(2) - 1
    spec = make_spec(
        field.eps(),
        parse_quadnum("1/2+1/2*e", field),  # sqrt(2)/2
        parse_quadnum("-1/2*e", field),     # (1-sqrt(2))/2
    )
    print("slope     eps =", spec.eps, "~", spec.eps.decimal(12))
    print("length    l   =", spec.l, "~", spec.l.decimal(12))
    print("origin    c   =", spec.c, "~", spec.c.decimal(12))
    print()
    print("orbit word  u =", code_orbit(spec, 0, 40), "...")
    print()

    report = decide(spec)
    print("verdict:", report.verdict)
    for name, value in report.conditions.items():
        print(f"  condition {name}: {value}")
    print()

    unit, ret, sub = report.unit, report.return_system, report.substitution
    print(f"scaling unit  lam = {unit.lam}  ~ {unit.lam.decimal(12)}  "
          f"(power s = {unit.s})")
    print(f"return interval J = [{ret.j_start}, {ret.j_end})  "
          f"(induction levels: {ret.levels})")
    print("substitution:")
    for letter in "ABC":
        print(f"  {letter} -> {sub.images[letter]}")
    print("return times:", ret.return_times)
    print()

    print("homothety, so u = phi(u):", ret.homothety_ok)
    print("u = phi(u) on 1e4 letters each side:", sub.verify_fixed_point(spec, 10**4))
    print("eigen-identity N v = lam' v:",
          sub.check_eigenvector(spec.eps, unit.lam))
    print("block starts in J match:",
          check_block_starts(spec, unit, sub, 1000))


if __name__ == "__main__":
    main()
