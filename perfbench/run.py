"""Benchmark of the iet3 library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-long --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  synth-long    decide with a witness on the 10 corpus specs whose return
                times exceed 10^4 letters
  sweep-verify  the other 98 corpus specs: decide, re-verify each witness,
                Sturmian cross-checks
  cli           `python -m iet3.cli` child processes, one at a time

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, taken from a pass of the same operations with the
library's layers wrapped (after an identical untraced pass, whose wall
time gives the tracing overhead).  Spans are written to perfbench/out/.
Everything runs in this process on one thread and one CPU, except the
CLI's child processes, which run one at a time on the same CPU.  Times are
normalized to a reference host speed (see hostspeed.py); the raw times are
printed on the `info:` line.  The exit code is 0 only if a result was
printed.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synth-long", "sweep-verify", "cli")
SETUP_REPEATS = 7
CLI_ROUNDS = 5
# enough decide samples for a p90 with TAIL_BEYOND samples beyond it
CLI_MIN_DECIDES = 120
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_BEYOND = 10
SETUP_CALIBRATION_S = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one import plus input build and print the seconds")
    return p.parse_args(argv)


def find_checkout():
    """The checkout root (the working directory), with the library on sys.path."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "iet3", "__init__.py")):
        raise SystemExit(f"error: no iet3 sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(1, HERE)
    return root


def setup(workload, seed, root, run_dir):
    """Import the library and build the workload's inputs from the seed."""
    import workloads  # imports iet3

    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    rng = random.Random(seed)
    if workload == "cli":
        return golden, rng, workloads.CliInputs(root, run_dir, rng, golden)
    return golden, rng, workloads.spec_ops(workload, golden)


def measure_setup(args):
    """Medians (normalized, raw) of the set-up seconds of SETUP_REPEATS fresh
    processes, each timing its own set-up and the host speed around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append([float(v) for v in proc.stdout.split()[-2:]])
    raw, normalized = zip(*times)
    return statistics.median(normalized), statistics.median(raw)


def setup_only(args, root, run_dir):
    speed = hostspeed.HostSpeed()
    speed.sample(SETUP_CALIBRATION_S)
    t0 = time.perf_counter()
    setup(args.workload, args.seed, root, run_dir)
    dt = time.perf_counter() - t0
    speed.sample(SETUP_CALIBRATION_S)
    print(dt, dt * speed.factor())


# -- statistics ---------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples above it (nearest rank), else (100, maximum)."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = -(-p * n // 100) - 1
        k = max(int(k), 0)
        if sum(1 for x in xs[k + 1:] if x > xs[k]) >= TAIL_BEYOND:
            return p, xs[k]
    return 100, xs[-1]


class Tally:
    """Attempted and failed operations, witness changes, failure messages."""

    def __init__(self):
        self.attempted = self.failed = self.changed = 0
        self.messages = []

    def add(self, status):
        self.attempted += 1
        if status == "changed":
            self.changed += 1
        elif status != "ok":
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(status)


# -- untraced runs -------------------------------------------------------------

def timed(op, tally, speed):
    """Run one operation, count its outcome, then sample the host speed in
    proportion to its time.  Returns its seconds."""
    import workloads

    dt, out, err = workloads.execute(op)
    tally.add(workloads.outcome(op, out, err))
    speed.after(dt)
    return dt


def run_specs(ops, rng, seconds, tally, speed):
    """Shuffled passes over the ops until `seconds` have passed and the
    first pass is complete.  Returns per-op samples and the first pass's time."""
    samples = {op.key: [] for op in ops}
    first_pass = None
    deadline = time.perf_counter() + seconds
    while first_pass is None or time.perf_counter() < deadline:
        order = list(ops)
        rng.shuffle(order)
        spent = 0.0
        for op in order:
            if first_pass is not None and time.perf_counter() >= deadline:
                break
            dt = timed(op, tally, speed)
            samples[op.key].append(dt)
            spent += dt
        else:
            if first_pass is None:
                first_pass = spent
    return samples, first_pass


def spec_metrics(ops, samples, first_pass):
    per_spec = [statistics.median(samples[op.key]) for op in ops]
    pct, tail_s = tail(per_spec)
    info = {"ops": sum(len(v) for v in samples.values()), "specs": len(ops),
            "tail_percentile": pct, "latency_samples": len(per_spec)}
    return {
        "ops_per_s": len(ops) / sum(per_spec),
        "op_p50_ms": 1e3 * statistics.median(per_spec),
        "op_tail_ms": 1e3 * tail_s,
        "batch_s": first_pass,
    }, info


def run_cli(inputs, seconds, tally, speed):
    """CLI_ROUNDS rounds, each one batch of commands then repeated decides
    until the round's share of `seconds` is spent (and its share of
    CLI_MIN_DECIDES is reached).  The batch time sums each command's median."""
    import workloads

    decide_ops = inputs.child_ops(inputs.decide)
    batch_ops = inputs.child_ops(inputs.batch)
    workloads.execute(decide_ops[0])  # fills the file cache and the bytecode cache
    start = time.perf_counter()
    latencies = []
    batch = {op.key: [] for op in batch_ops}
    for r in range(CLI_ROUNDS):
        round_end = start + seconds * (r + 1) / CLI_ROUNDS
        round_min = CLI_MIN_DECIDES * (r + 1) // CLI_ROUNDS
        for op in batch_ops:
            batch[op.key].append(timed(op, tally, speed))
        while time.perf_counter() < round_end or len(latencies) < round_min:
            op = decide_ops[len(latencies) % len(decide_ops)]
            latencies.append(timed(op, tally, speed))
    pct, tail_s = tail(latencies)
    info = {"decide_samples": len(latencies), "tail_percentile": pct,
            "batches": CLI_ROUNDS}
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "batch_s": sum(statistics.median(v) for v in batch.values()),
    }, info


# -- traced runs ---------------------------------------------------------------

def run_traced(ops, tally, warm_up):
    """An untraced pass over the ops, then the same pass traced, after an
    optional warm-up pass.  Returns the tracer and the two passes' wall times."""
    import layers
    import tracer as tracer_mod
    import workloads

    for op in ops if warm_up else ():
        tally.add(workloads.outcome(op, *workloads.execute(op)[1:]))
    untraced = 0.0
    for op in ops:
        dt, out, err = workloads.execute(op)
        tally.add(workloads.outcome(op, out, err))
        untraced += dt

    tr = tracer_mod.Tracer()
    layers.instrument(tr)
    results = []
    traced = 0.0
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = tr.root(f"op.{op.kind}", op.run), None
            except Exception as exc:  # counted as a failed operation below
                out, err = None, f"{type(exc).__name__}: {exc}"
            traced += time.perf_counter() - t0
            results.append((op, out, err))
    finally:
        tr.uninstall()
    for op, out, err in results:
        tally.add(workloads.outcome(op, out, err))
    return tr, untraced, traced


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def main(argv=None):
    args = parse_args(argv)
    root = find_checkout()
    os.environ.pop("IET3_STEP_BUDGET", None)  # the library's default step budget
    # one CPU for this process and its children, so that the host-speed
    # samples taken here describe the CPU the child processes run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.setup_only:
            setup_only(args, root, run_dir)
            return 0
        return benchmark(args, root, out_dir, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def benchmark(args, root, out_dir, run_dir):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    setup_s, setup_raw = measure_setup(args) if not args.trace else (None, None)
    golden, rng, inputs = setup(args.workload, args.seed, root, run_dir)
    tally = Tally()
    info = {}
    probe_missing = None
    if args.workload == "cli":
        probe_missing = inputs.probe_missing_records()
        info["sweep_probe_missing_records"] = probe_missing

    if not args.trace:
        speed = hostspeed.HostSpeed()
        speed.sample(SETUP_CALIBRATION_S)
        if args.workload == "cli":
            raw, more = run_cli(inputs, args.seconds, tally, speed)
        else:
            samples, first_pass = run_specs(inputs, rng, args.seconds, tally, speed)
            raw, more = spec_metrics(inputs, samples, first_pass)
        info.update(more)
        factor = speed.factor()
        values = {k: v / factor if k == "ops_per_s" else v * factor
                  for k, v in raw.items()}
        info.update(host_speed_factor=factor, raw=dict(raw, setup_s=setup_raw))
        values["setup_s"] = setup_s
        values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = declared["end_to_end"]
    else:
        values = traced_values(args, root, golden, rng, inputs, tally, probe_missing,
                               out_dir)
        wanted = declared["per_layer"]
        with open(os.path.join(HERE, "design.json")) as handle:
            ref = json.load(handle)["reference_figures"]
        info["unit_costs_vs_reference"] = {
            k: [values[k], ref[k]] for k in values if isinstance(ref.get(k), (int, float))}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        info["absent_metrics"] = missing
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    info.update(witness_changed=tally.changed, failures=tally.messages)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("info: " + json.dumps(info))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def traced_values(args, root, golden, rng, inputs, tally, probe_missing, out_dir):
    import corpus
    import layers
    import workloads

    if args.workload == "cli":
        ops = inputs.in_process_ops(inputs.decide + inputs.batch)
    else:
        ops = list(inputs)
        rng.shuffle(ops)
    # the CLI pass is short enough to warm up first; a spec pass is not,
    # and its first-call costs are small next to its length
    tr, untraced, traced = run_traced(ops, tally, warm_up=args.workload == "cli")

    specs, _verdicts = corpus.build_checked()
    values = layers.layer_values(
        tr, layers.unit_costs(specs, golden),
        layers.startup_ms(root, workloads.child_env(root)), layers.source_lines(root))
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values["golden.witness_changed"] = tally.changed
    values["cli.sweep_probe.missing_records"] = probe_missing or 0

    dump = tr.dump()
    dump.update(workload=args.workload, seed=args.seed, untraced_s=untraced,
                traced_s=traced)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(dump, handle)
    return values


if __name__ == "__main__":
    sys.exit(main())
