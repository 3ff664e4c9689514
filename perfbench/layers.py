"""Per-layer instrumentation: which library names are wrapped, the isolated
unit-cost timings, and the derivation of every per-layer metric.

Hot leaf functions (sign_of_surd, QuadNum.sign, step, orbit letters) are
counted, not spanned: a span per call would hold millions of tuples and
multiply their cost.  Their unit costs come from isolated timings on fixed
operands taken from the corpus, outside the traced pass.
"""

import glob
import os
import statistics
import subprocess
import sys
import time
import timeit
from itertools import islice

import iet3
from iet3.qfield import sign_of_surd

import corpus
import oracle

CLI_COMMANDS = ("decide", "verify", "generate", "complexity", "capset", "sweep")
STARTUP_REPEATS = 5


def instrument(tracer):
    t = tracer
    t.count("iet3.qfield", "sign_of_surd", "qfield.sign_of_surd.calls")
    t.count("iet3.qfield", "QuadNum.sign", "qfield.quadnum_sign.calls")
    t.span("iet3.quadunit", "class_fixing_power", "quadunit.class_fixing_power")
    t.count_yields("iet3.iet", "OrbitCoder.forward", "iet.orbit_letters")
    t.count_yields("iet3.iet", "OrbitCoder.backward", "iet.orbit_letters")
    t.count("iet3.iet", "step", "iet.step.calls")
    t.count("iet3.iet", "inverse_step", "iet.step.calls")
    t.span("iet3.invariance", "decide", "invariance.decide")
    t.span("iet3.invariance", "synthesize", "invariance.synthesize")
    t.span("iet3.invariance", "_walk_interval", "invariance.walk",
           lambda a, k, result: _add(t, "invariance.return_letters", len(result[0])))
    t.span("iet3.invariance", "check_block_starts", "invariance.check_block_starts")
    t.span("iet3.substitution", "Substitution.verify_fixed_point",
           "substitution.verify_fixed_point", lambda a, k, result: _coverage(t, a, k, result))
    t.span("iet3.substitution", "Substitution.check_eigenvector",
           "substitution.check_eigenvector")
    t.span("iet3.substitution", "complexity", "substitution.complexity")
    t.span("iet3.sturmian", "sturmian_images_match", "sturmian.images_match")
    t.span("iet3.sturmian", "sturmian_word", "sturmian.word",
           lambda a, k, result: _add(t, "sturmian.word_letters", len(result)))
    t.span("iet3.capset", "generate", "capset.generate")
    t.span("iet3.cli", "main", lambda a, k: "cli.main." + a[0][0])  # argv[0]: the command
    t.span("iet3.cli", "_print_report", "cli.format")
    t.span("iet3.cli", "report_to_json", "cli.format")


def _add(tracer, key, n):
    tracer.counts[key] += n


def _coverage(tracer, args, kwargs, passed):
    """Letters verify_fixed_point compared, from the images and the radius.

    verify_fixed_point stacks whole images phi(u_0) phi(u_1) ... (and their
    mirror images leftwards from -1) while they fit within the radius.  For a
    passing call the word there is the fixed point grown from u_0 (and u_-1),
    so the stacking can be replayed on that fixed point without the library.
    """
    sub, spec = args[0], args[1]
    radius = args[2] if len(args) > 2 else kwargs["radius"]
    if not passed:
        tracer.counts["substitution.verify_fixed_point.failed_calls"] += 1
        return
    ex = oracle.Exchange(spec)
    covered = 0
    for first, images in ((next(ex.forward()), sub.images),
                          (next(ex.backward()), {a: w[::-1] for a, w in sub.images.items()})):
        word = first
        while len(word) < radius:
            grown = "".join(_prefix_images(word, images, radius))
            if len(grown) <= len(word):
                break
            word = grown
        pos = 0
        for ch in word:
            if pos + len(images[ch]) > radius:
                break
            pos += len(images[ch])
        covered += pos
    tracer.counts["substitution.verify_fixed_point.letters_covered"] += covered
    if covered == 0:
        tracer.counts["substitution.verify_fixed_point.vacuous_calls"] += 1


def _prefix_images(word, images, limit):
    n = 0
    for ch in word:
        yield images[ch]
        n += len(images[ch])
        if n >= limit:
            return


# -- isolated unit costs --------------------------------------------------------

def _per_call(stmt, number, repeat=5, names=None):
    """Median seconds per call of `stmt` (a callable, or a statement over
    `names`) over `repeat` timings of `number` calls."""
    return statistics.median(
        timeit.repeat(stmt, number=number, repeat=repeat, globals=names)) / number


def unit_operands(specs, golden):
    """Fixed operands: the first synth-long spec in corpus order (surd signs,
    orbit letters), the first Invariant sweep-verify spec (QuadNum steps) and
    the worked example (cut-and-project points)."""
    def is_long(g):
        return g["verdict"] == "Invariant" and min(g["return_times"]) > corpus.LONG_RETURN
    long_spec = next(s for label, s in specs if is_long(golden["specs"][label]))
    step_spec = next(s for label, s in specs
                     if golden["specs"][label]["verdict"] == "Invariant"
                     and not is_long(golden["specs"][label]))
    return long_spec, step_spec, corpus.worked_spec()


def _surd_operands(spec):
    """(P, Q, D) comparing an orbit point 10^4 letters out with a cut of the
    exchange, where P and Q differ in sign (the branch that squares)."""
    ex = oracle.Exchange(spec)
    x, letters = (0, 0), ex.forward()
    for n in range(10**5):
        i = "ABC".index(next(letters))
        if n >= 10**4:
            for cut in ex.cuts:
                d0, d1 = x[0] - cut[0], x[1] - cut[1]
                P, Q = 2 * ex.A * d0 - ex.B * d1, ex.branch * d1
                if P * Q < 0:
                    return P, Q, ex.D
        x = (x[0] + ex.shifts[i][0], x[1] + ex.shifts[i][1])
    raise RuntimeError("no mixed-sign surd operand found")


def unit_costs(specs, golden):
    long_spec, step_spec, worked = unit_operands(specs, golden)
    P, Q, D = _surd_operands(long_spec)
    out = {"qfield.sign_of_surd.ns_per_call": 1e9 * _per_call(
        "sign_of_surd(P, Q, D)", 100_000,
        names={"sign_of_surd": sign_of_surd, "P": P, "Q": Q, "D": D})}

    letters = 20_000
    out["iet.ns_per_letter"] = 1e9 * _per_call(
        lambda: "".join(islice(iet3.OrbitCoder(long_spec).forward(), letters)), 1) / letters

    steps = 200

    def walk():
        z = step_spec.field.zero()
        for _ in range(steps):
            z, _letter = iet3.step(step_spec, z)
    out["iet.step.us_per_call"] = 1e6 * _per_call(walk, 1) / steps

    points = 2000
    cfg = iet3.CapSetConfig(worked.eps, worked.c, worked.l)
    out["capset.us_per_point"] = 1e6 * _per_call(
        lambda: iet3.generate(cfg, points), 1) / (points + 1)
    return out


def startup_ms(root, env):
    """Median wall time of a process that only imports iet3."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import iet3"], cwd=root, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def source_lines(root):
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "iet3", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as handle:
            out[module] = handle.read().count("\n")
    return out


# -- per-layer metrics -------------------------------------------------------------

def layer_values(tracer, costs, startup, lines):
    """Every per-layer value this module can derive, by metric name."""
    tot = tracer.totals()
    c = tracer.counts

    def total_s(name):
        return tot[name][1] if name in tot else 0.0

    walk_letters = c.get("invariance.return_letters", 0)
    walk_ok_s = tot["invariance.walk"][3] if "invariance.walk" in tot else 0.0
    v = {
        "qfield.sign_of_surd.calls": c.get("qfield.sign_of_surd.calls", 0),
        "qfield.quadnum_sign.calls": c.get("qfield.quadnum_sign.calls", 0),
        "quadunit.class_fixing_power.calls":
            tot["quadunit.class_fixing_power"][0] if "quadunit.class_fixing_power" in tot else 0,
        "quadunit.class_fixing_power.s": total_s("quadunit.class_fixing_power"),
        "iet.orbit_letters": c.get("iet.orbit_letters", 0),
        "iet.step.calls": c.get("iet.step.calls", 0),
        "invariance.synthesize.s": total_s("invariance.synthesize"),
        "invariance.return_letters": walk_letters,
        "invariance.us_per_return_letter": 1e6 * walk_ok_s / walk_letters if walk_letters else 0.0,
        "invariance.decide.self_s": tot["invariance.decide"][2] if "invariance.decide" in tot else 0.0,
        "invariance.check_block_starts.s": total_s("invariance.check_block_starts"),
        "substitution.verify_fixed_point.s": total_s("substitution.verify_fixed_point"),
        "substitution.verify_fixed_point.letters_covered":
            c.get("substitution.verify_fixed_point.letters_covered", 0),
        "substitution.verify_fixed_point.vacuous_calls":
            c.get("substitution.verify_fixed_point.vacuous_calls", 0),
        "substitution.check_eigenvector.s": total_s("substitution.check_eigenvector"),
        "substitution.complexity.s": total_s("substitution.complexity"),
        "sturmian.images_match.s": total_s("sturmian.images_match"),
        "sturmian.word_letters": c.get("sturmian.word_letters", 0),
        "capset.generate.s": total_s("capset.generate"),
        "cli.startup_ms": startup,
        "cli.format.self_s": tot["cli.format"][2] if "cli.format" in tot else 0.0,
        "trace.spans": len(tracer.spans),
        "trace.absent_wraps": len(tracer.absent),
    }
    for cmd in CLI_COMMANDS:
        v[f"cli.main.{cmd}.s"] = total_s(f"cli.main.{cmd}")
    v.update(costs)
    for module, n in lines.items():
        v[f"src.lines.{module}"] = n
    v["src.lines.total"] = sum(lines.values())
    return v
