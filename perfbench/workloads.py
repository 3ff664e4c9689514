"""The three workloads as lists of operations, each with a check of its output.

An operation's `run` does the timed work and returns its raw output; its
`check` runs afterwards, outside the timed region, and returns "ok",
"changed" (a witness differs from the golden file but passes the
independent orbit check) or a failure message.  Library functions are
reached through the `iet3` package at call time, so wrappers installed by
the tracer see every call.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import iet3
import iet3.cli

import corpus
import oracle

RADIUS = 10**4          # decide's and `iet3 verify`'s default radius
BLOCK_WINDOW = 1000     # check_block_starts' default window
CHILD_TIMEOUT_S = 120


class Op:
    __slots__ = ("kind", "key", "run", "check")

    def __init__(self, kind, key, run, check):
        self.kind, self.key, self.run, self.check = kind, key, run, check


def execute(op):
    """(seconds, output, error) of one operation; exceptions are failures."""
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # the benchmark keeps going and counts it
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def outcome(op, out, err):
    if err is not None:
        return f"failed: {op.key}: {err}"
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output is a failed operation
        return f"failed: {op.key}: unreadable output ({type(exc).__name__}: {exc})"


# -- spec workloads -----------------------------------------------------------

def double_yasutomi(spec):
    """The verdict predicted by the two Sturmian shadows (Yasutomi's criterion)."""
    one = spec.field.one()
    left, right = -spec.c, spec.l + spec.c
    return (iet3.yasutomi(spec.eps, left - left.floor())
            and iet3.yasutomi(one - spec.eps, right - right.floor()))


def witness(report):
    return {"lambda": str(report.unit.lam), "s": report.unit.s,
            "return_times": list(report.return_system.return_times),
            "image_sha256": oracle.image_digests(report.substitution.images)}


def check_report(label, spec, report, golden, predicted):
    g = golden["specs"][label]
    expected = "Invariant" if predicted else "NotInvariant"
    if report.verdict != expected or g["verdict"] != expected:
        return (f"failed: {label}: verdict {report.verdict}, golden {g['verdict']}, "
                f"double Yasutomi {expected}")
    if report.verdict != "Invariant":
        return "ok"
    got = witness(report)
    if all(got[k] == g[k] for k in got):
        return "ok"
    if oracle.check_images(spec, report.substitution.images) is None:
        return f"failed: {label}: witness differs from golden and fails the orbit check"
    return "changed"


def synth_op(label, spec, golden, predicted):
    return Op("spec", label, lambda: iet3.decide(spec),
              lambda rep: check_report(label, spec, rep, golden, predicted))


def sweep_op(label, spec, golden, predicted):
    def run():
        rep = iet3.decide(spec)
        out = {"report": rep}
        if rep.verdict == "Invariant":
            sub, unit = rep.substitution, rep.unit
            out["fixed_point"] = sub.verify_fixed_point(spec, RADIUS)
            out["eigenvector"] = sub.check_eigenvector(spec.eps, unit.lam)
            out["block_starts"] = iet3.check_block_starts(spec, unit, sub, BLOCK_WINDOW)
        out["images_match"] = iet3.sturmian_images_match(spec, RADIUS)
        out["crosscheck"] = iet3.corollary_crosscheck(spec)
        return out

    def check(out):
        bad = [k for k, v in out.items() if v is False]
        if bad:
            return f"failed: {label}: {', '.join(bad)} returned False"
        return check_report(label, spec, out["report"], golden, predicted)
    return Op("spec", label, run, check)


def spec_ops(workload, golden):
    specs, _verdicts = corpus.build_checked()
    long_labels = {label for label, g in golden["specs"].items()
                   if g["verdict"] == "Invariant"
                   and min(g["return_times"]) > corpus.LONG_RETURN}
    make = synth_op if workload == "synth-long" else sweep_op
    chosen = [(label, spec) for label, spec in specs
              if (label in long_labels) == (workload == "synth-long")]
    return [make(label, spec, golden, double_yasutomi(spec)) for label, spec in chosen]


# -- cli workload -------------------------------------------------------------

def child_env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_child(root, argv):
    """(exit code, stdout, stderr) of `python -m iet3.cli argv`."""
    proc = subprocess.run([sys.executable, "-m", "iet3.cli", *argv], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv):
    """(exit code, stdout, stderr) of iet3.cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = iet3.cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _process_ok(key, result, want_code=0):
    code, _out, err = result
    if "Traceback" in err:
        return f"failed: {key}: traceback on stderr"
    if code != want_code:
        return f"failed: {key}: exit code {code}, expected {want_code}: {err.strip()[:200]}"
    return None


def _check_decide_text(expected, result):
    bad = _process_ok("decide-text", result)
    if bad:
        return bad
    lines = [line.strip() for line in result[1].splitlines()]
    images = dict(line.split(" -> ") for line in lines if " -> " in line)
    times = tuple(expected["return_times"])
    ok = (f"verdict: {expected['verdict']}" in lines
          and images == expected["substitution"]
          and f"return times: {times}" in lines
          and any(line.startswith(f"lambda = {expected['lambda']}  (power s = {expected['s']})")
                  for line in lines))
    return "ok" if ok else "failed: decide-text: report differs from the golden worked example"


def _check_decide_json(expected, result):
    bad = _process_ok("decide-json", result)
    if bad:
        return bad
    data = json.loads(result[1])
    keys = ("verdict", "lambda", "s", "substitution", "return_times", "field", "eps", "l", "c")
    if any(data.get(k) != expected[k] for k in keys) or not all(data["checks"].values()):
        return "failed: decide-json: report differs from the golden worked example"
    return "ok"


def _check_verify(result):
    bad = _process_ok("verify", result)
    if bad:
        return bad
    if result[1] != "fixed_point: True\neigenvector: True\n":
        return f"failed: verify: unexpected output {result[1]!r}"
    return "ok"


def _check_digest(key, want, result):
    bad = _process_ok(key, result)
    if bad:
        return bad
    return "ok" if oracle.digest(result[1]) == want else f"failed: {key}: output digest differs"


def _check_complexity(result):
    bad = _process_ok("complexity", result)
    if bad:
        return bad
    rows = result[1].strip().splitlines()
    values = [int(r.split("\t")[1]) for r in rows[1:]]
    want = [1] + [2 * n + 1 for n in range(1, corpus.COMPLEXITY_N_MAX + 1)]
    return "ok" if values == want else "failed: complexity: C(n) is not 2n+1"


def _check_sweep(lines, golden, result):
    bad = _process_ok("sweep", result)
    if bad:
        return bad
    records = [json.loads(r) for r in result[1].splitlines() if r.strip()]
    if len(records) != len(lines):
        return f"failed: sweep: {len(records)} records for {len(lines)} input lines"
    for (label, _line), rec in zip(lines, records):
        g = golden["specs"][label]
        if rec.get("verdict") != g["verdict"]:
            return f"failed: sweep: {label}: verdict {rec.get('verdict')}"
        if g["verdict"] == "Invariant" and (
                oracle.image_digests(rec["substitution"]) != g["image_sha256"]
                or rec["lambda"] != g["lambda"]):
            return f"failed: sweep: {label}: witness differs from golden"
    return "ok"


class CliInputs:
    """Argument lists and input files of the cli workload, chosen by the seed."""

    def __init__(self, root, run_dir, rng, golden):
        specs, _verdicts = corpus.build_checked()
        worked = golden["cli"]["worked_report"]
        report = os.path.join(run_dir, "report.json")
        with open(report, "w") as handle:
            json.dump(worked, handle)

        by_label = dict(specs)
        cheap = [label for label, g in sorted(golden["specs"].items())
                 if g["verdict"] == "Invariant"
                 and max(g["return_times"]) <= corpus.SWEEP_MAX_RETURN]
        negative = [label for label, g in sorted(golden["specs"].items())
                    if g["verdict"] == "NotInvariant"]
        picked = (rng.sample(cheap, corpus.SWEEP_INVARIANT)
                  + rng.sample(negative, corpus.SWEEP_NOT_INVARIANT))
        rng.shuffle(picked)
        sweep_lines = [(label, corpus.sweep_line(by_label[label])) for label in picked]
        sweep = os.path.join(run_dir, "sweep.jsonl")
        _write_jsonl(sweep, [line for _label, line in sweep_lines])

        # the probe: a valid line, an out-of-domain line (l = 3/2), a valid line
        valid = corpus.sweep_line(corpus.worked_spec())
        probe_lines = [valid, dict(valid, l="3/2"), dict(valid, c="-3/2+7/2*e")]
        self.probe = os.path.join(run_dir, "probe.jsonl")
        self.probe_lines = len(probe_lines)
        _write_jsonl(self.probe, probe_lines)

        gen_back = rng.choice(corpus.GENERATE_BACK)
        cap_back = rng.choice(corpus.CAPSET_BACK)
        cx_l, cx_c = rng.choice(corpus.COMPLEXITY_SPECS)
        w = corpus.WORKED_ARGS
        self.root = root
        self.decide = [
            ("decide-text", ["decide", *w], lambda r: _check_decide_text(worked, r)),
            ("decide-json", ["decide", "--format", "json", *w],
             lambda r: _check_decide_json(worked, r)),
        ]
        rng.shuffle(self.decide)
        gen_digest = golden["cli"]["generate_sha256"][str(gen_back)]
        cap_digest = golden["cli"]["capset_sha256"][str(cap_back)]
        self.batch = [
            ("verify", ["verify", "--report", report], _check_verify),
            ("generate", ["generate", *w, f"--from={-gen_back}",
                          f"--to={corpus.GENERATE_LETTERS - gen_back}"],
             lambda r: _check_digest("generate", gen_digest, r)),
            ("complexity", ["complexity", "--field", corpus.WORKED_FIELD, "--eps", "e",
                            f"--l={cx_l}", f"--c={cx_c}",
                            "--n-max", str(corpus.COMPLEXITY_N_MAX),
                            "--radius", str(corpus.COMPLEXITY_RADIUS)], _check_complexity),
            ("capset", ["capset", *w, "--count", str(corpus.CAPSET_POINTS - cap_back),
                        "--back", str(cap_back)],
             lambda r: _check_digest("capset", cap_digest, r)),
            ("sweep", ["sweep", "--input", sweep],
             lambda r: _check_sweep(sweep_lines, golden, r)),
        ]
        rng.shuffle(self.batch)

    def child_ops(self, commands):
        return [Op("cli", key, lambda argv=argv: run_child(self.root, argv), check)
                for key, argv, check in commands]

    def in_process_ops(self, commands):
        return [Op("cli", key, lambda argv=argv: run_in_process(argv), check)
                for key, argv, check in commands]

    def probe_missing_records(self):
        """Input lines of the probe file that got no output record."""
        _code, out, _err = run_child(self.root, ["sweep", "--input", self.probe])
        return self.probe_lines - sum(1 for line in out.splitlines() if line.strip())


def _write_jsonl(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
