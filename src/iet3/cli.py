"""Command-line front end.

Parameters are exact expressions ("1/2 + 1/2*e", "(1-sqrt(2))/2"), never
decimal floats.  Decimal columns in the output are 20-digit previews and
are labeled approximate.  Exit status: 0 for success (and an Invariant
verdict), 1 for NotInvariant/Degenerate, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .capset import CapSetConfig, gap_class, generate as capset_generate
from .errors import Iet3Error, InvalidUnit, StepBudgetExceeded
from .iet import IetSpec, code_orbit, make_spec, normalize, orbit_window
from .invariance import DecisionReport, decide, return_substitution
from .qfield import FieldDesc, QuadNum, decimal_of, make_field, parse_quadnum
from .quadunit import lemma_unit
from .substitution import Substitution, complexity

__all__ = ["main", "build_parser", "report_to_json"]

# bad input: malformed text or JSON, a missing key, a JSON value of the wrong type
_INPUT_ERRORS = (Iet3Error, ValueError, KeyError, TypeError)


def _parse_field(text: str) -> FieldDesc:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ValueError("--field expects A,B,C[,branch]")
    a, b, c = (int(p) for p in parts[:3])
    branches = {"+": 1, "-": -1, "1": 1, "-1": -1}
    if len(parts) == 4 and parts[3] not in branches:
        raise ValueError(f"--field branch must be one of + - 1 -1, got {parts[3]!r}")
    return make_field(a, b, c, branches[parts[3]] if len(parts) == 4 else 1)


def _spec_from_args(args) -> IetSpec:
    field = _parse_field(args.field)
    if args.alpha1 is not None:
        alphas = [parse_quadnum(getattr(args, f"alpha{i}"), field) for i in (1, 2, 3)]
        x0 = parse_quadnum(args.x0 or "0", field)
        return normalize(*alphas, x0)
    if args.eps is None or args.l is None or args.c is None:
        raise ValueError("provide either --eps/--l/--c or --alpha1/--alpha2/--alpha3")
    return make_spec(*(parse_quadnum(text, field) for text in (args.eps, args.l, args.c)))


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # nesting too deep for the decoder is bad input
        raise ValueError("JSON nested too deeply to decode") from None


def _json_value(data: dict, key: str, *kinds):
    """data[key], of one of the types `kinds`, or a ValueError naming the key."""
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    if not isinstance(data[key], kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{key!r} must be {names}, not {type(data[key]).__name__}")
    return data[key]


def _spec_from_json(data) -> IetSpec:
    """The spec of a sweep line or a stored report, whose `field` is either
    [A, B, C(, branch)] or the {A, B, C, branch} object of report_to_json."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, not {type(data).__name__}")
    field = _json_value(data, "field", list, dict)
    if isinstance(field, dict):
        field = [field.get(k) for k in "ABC"] + [field.get("branch", 1)]
    if len(field) not in (3, 4) or not all(type(x) is int for x in field):  # true is an int too
        raise ValueError(f"'field' must hold the integers A, B, C[, branch], not {json.dumps(field)}")
    f = make_field(*field)
    return make_spec(*(parse_quadnum(_json_value(data, key, str), f) for key in ("eps", "l", "c")))


def _num_json(x: QuadNum) -> dict:
    return {"exact": str(x), "approx": x.decimal(20)}


def report_to_json(report: DecisionReport) -> dict:
    spec = report.spec
    f = spec.field
    out = {
        "verdict": report.verdict,
        "field": {"A": f.A, "B": f.B, "C": f.C, "branch": f.branch},
        "eps": str(spec.eps),
        "l": str(spec.l),
        "c": str(spec.c),
        "conditions": report.conditions,
        "approx": {
            "eps": spec.eps.decimal(20),
            "l": spec.l.decimal(20),
            "c": spec.c.decimal(20),
        },
    }
    if spec.raw is not None:
        out["raw"] = [str(x) for x in spec.raw]
    if report.unit is not None:
        out["lambda"] = str(report.unit.lam)
        out["s"] = report.unit.s
        out["reversed_reduction"] = report.reversed_reduction
        rs = report.return_system
        out["J"] = [_num_json(rs.j_start), _num_json(rs.j_end)]
        sub = report.substitution
        out["substitution"] = {a: sub.images[a] for a in sub.alphabet}
        out["return_times"] = list(rs.return_times)
        out["checks"] = report.checks
    return out


def _print_report(report: DecisionReport, fmt: str, out):
    if fmt == "json":
        json.dump(report_to_json(report), out, indent=2)
        out.write("\n")
        return
    spec = report.spec
    print(f"verdict: {report.verdict}", file=out)
    for name, value in (("eps", spec.eps), ("l", spec.l), ("c", spec.c)):
        print(f"  {name} = {value}  (~ {value.decimal(20)})", file=out)
    for key, val in report.conditions.items():
        print(f"  condition {key}: {val}", file=out)
    if report.unit is not None:
        print(f"  lambda = {report.unit.lam}  (power s = {report.unit.s})", file=out)
        rs = report.return_system
        print(
            f"  J = [{rs.j_start}, {rs.j_end})"
            f"  (~ [{rs.j_start.decimal(20)}, {rs.j_end.decimal(20)}))",
            file=out,
        )
        if report.reversed_reduction:
            print("  (eps' > 1, so the return times are listed as |phi(C)|, |phi(B)|, |phi(A)|)", file=out)
        for a in report.substitution.alphabet:
            print(f"  {a} -> {report.substitution.images[a]}", file=out)
        print(f"  return times: {rs.return_times}", file=out)
        for key, val in report.checks.items():
            print(f"  check {key}: {val}", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iet3",
        description="Exact decisions about substitution invariance of "
        "three-interval exchange words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--field", required=True, help="A,B,C[,branch] of the minimal equation")
        p.add_argument("--eps", help="exact slope, e.g. '0+1*e'")
        p.add_argument("--l", help="exact window length")
        p.add_argument("--c", help="exact window start")
        p.add_argument("--alpha1", help="raw interval lengths (alternative input)")
        p.add_argument("--alpha2")
        p.add_argument("--alpha3")
        p.add_argument("--x0", help="raw starting point (with --alpha1..3)")

    def add_output_args(p, formats=False):
        if formats:  # the commands that have a JSON form
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write to this path instead of stdout")

    for name in ("decide", "synthesize"):
        p = sub.add_parser(name, help=f"{name} for one parameter set")
        add_spec_args(p)
        add_output_args(p, formats=True)

    p = sub.add_parser("generate", help="emit letters of the orbit word")
    add_spec_args(p)
    add_output_args(p)
    p.add_argument("--from", dest="frm", type=int, default=0)
    p.add_argument("--to", dest="to", type=int, default=100)

    p = sub.add_parser("verify", help="re-verify a JSON report by rebuilding its return system")
    p.add_argument("--report", required=True, help="path to the JSON report")

    p = sub.add_parser("complexity", help="factor complexity table")
    add_spec_args(p)
    add_output_args(p, formats=True)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--radius", type=int, default=10**5, help="count in letters [-radius, radius)")

    p = sub.add_parser("capset", help="emit cut-and-project points as TSV")
    add_spec_args(p)
    add_output_args(p)
    p.add_argument("--eta", help="exact eta (default: -eps')")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--back", type=int, default=0)

    p = sub.add_parser("sweep", help="decide a line-delimited JSON parameter file")
    p.add_argument("--input", required=True)
    add_output_args(p)
    return parser


def _cmd_decide(args, out) -> int:
    spec = _spec_from_args(args)
    report = decide(spec)
    _print_report(report, args.format, out)
    return 0 if report.verdict == "Invariant" else 1


def _cmd_generate(args, out) -> int:
    spec = _spec_from_args(args)
    print(code_orbit(spec, args.frm, args.to), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    with open(args.report) as handle:
        data = _load_json(handle.read())
    spec = _spec_from_json(data)
    sub = Substitution(("A", "B", "C"), _json_value(data, "substitution", dict))
    lam = parse_quadnum(_json_value(data, "lambda", str), spec.field)
    claims = [_json_value(data, key, kind) for key, kind in
              (("verdict", str), ("s", int), ("return_times", list), ("checks", dict))]
    ok_eig = sub.check_eigenvector(spec.eps, lam)
    try:
        ret, induced = return_substitution(spec, claims[1])
        # the claimed s (claims[1]) is powered only once its induction stayed within budget
        proven = (ret.homothety_ok and induced.images == sub.images
                  and lam == lemma_unit(spec.field) ** claims[1])
        checks = {"fixed_point": proven, "eigenvector": ok_eig,
                  "homothety": ret.homothety_ok, "primitive": sub.is_primitive()}
        # as JSON text, where true is not 1 and 5.0 is not 5
        ok_fix = proven and json.dumps(claims, sort_keys=True) == json.dumps(
            ["Invariant", ret.levels, ret.return_times, checks], sort_keys=True)
    except (InvalidUnit, StepBudgetExceeded):
        ok_fix = False  # s yields no return system to prove the fixed point with
    print(f"fixed_point: {ok_fix}", file=out)
    print(f"eigenvector: {ok_eig}", file=out)
    return 0 if ok_fix and ok_eig else 1


def _cmd_complexity(args, out) -> int:
    if not (args.radius >= 1 and 0 <= args.n_max <= 2 * args.radius):
        raise ValueError("complexity needs --radius >= 1 and 0 <= --n-max <= 2 * radius")
    spec = _spec_from_args(args)
    window = orbit_window(spec, args.radius)
    values = complexity(window, args.n_max, intervals=3)  # a 3iet word has <= 2n+1 factors
    if args.format == "json":
        json.dump({"n_max": args.n_max, "radius": args.radius, "C": values}, out)
        out.write("\n")
    else:
        print("n\tC(n)", file=out)
        for n, value in enumerate(values):
            print(f"{n}\t{value}", file=out)
    return 0


def _cmd_capset(args, out) -> int:
    spec = _spec_from_args(args)
    eta = parse_quadnum(args.eta, spec.field) if args.eta else None
    cfg = CapSetConfig(spec.eps, spec.c, spec.l, eta)
    pts = capset_generate(cfg, args.count, back=args.back)
    eta = cfg.eta  # a + b*eta = (a*eta.d + b*eta.p + b*eta.q*e)/eta.d, printed from integers
    for i, (a, b) in enumerate(pts):
        cls = gap_class((a, b), pts[i + 1]) if i + 1 < len(pts) else "-"
        value = decimal_of(spec.field, a * eta.d + b * eta.p, b * eta.q, eta.d)
        print(f"{a}\t{b}\t{value}\t{cls}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    status = 0
    with open(args.input) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = line  # the raw text, until it parses
            try:
                data = _load_json(line)
                report = decide(_spec_from_json(data))
                record = report_to_json(report)
            except _INPUT_ERRORS as exc:
                record = {"error": str(exc), "input": data}
                status = 2
            json.dump(record, out)
            out.write("\n")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decide": _cmd_decide,
        "synthesize": _cmd_decide,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "complexity": _cmd_complexity,
        "capset": _cmd_capset,
        "sweep": _cmd_sweep,
    }
    out = sys.stdout
    try:
        if getattr(args, "output", None):
            out = open(args.output, "w")
        return handlers[args.command](args, out)
    except (*_INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a window of letters, say, too long to hold
        print("error: out of memory; the requested window is too large", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
