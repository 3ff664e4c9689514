"""Regenerate perfbench/golden.json from the library, confirming each entry.

Run from the root of a checkout:

    python3 perfbench/make_golden.py

Every Invariant witness is confirmed with the benchmark's own orbit coder
(oracle.check_images: at least the first whole image on each side of 0),
every verdict against the double Yasutomi criterion, the `generate` outputs
against the same orbit coder, and the `capset` outputs against a direct
lattice enumeration.  The script refuses to write the file if any check fails.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from itertools import islice  # noqa: E402

import iet3  # noqa: E402
from iet3.cli import report_to_json  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def confirm(label, spec, report):
    entry = {"verdict": report.verdict}
    predicted = "Invariant" if workloads.double_yasutomi(spec) else "NotInvariant"
    if report.verdict != predicted:
        raise SystemExit(f"{label}: verdict {report.verdict}, double Yasutomi {predicted}")
    if report.verdict == "Invariant":
        covered = oracle.check_images(spec, report.substitution.images)
        if covered is None:
            raise SystemExit(f"{label}: images disagree with the orbit word")
        entry.update(workloads.witness(report))
        entry["confirmed_letters"] = list(covered)
    return entry


def generate_digests(worked):
    out = {}
    for back in corpus.GENERATE_BACK:
        code, text, err = workloads.run_in_process(
            ["generate", *corpus.WORKED_ARGS, f"--from={-back}",
             f"--to={corpus.GENERATE_LETTERS - back}"])
        ex = oracle.Exchange(worked)
        left = "".join(islice(ex.backward(), back))[::-1]
        right = "".join(islice(ex.forward(), corpus.GENERATE_LETTERS - back))
        if code != 0 or err or text != left + right + "\n":
            raise SystemExit(f"generate --from={-back}: output disagrees with the orbit word")
        out[str(back)] = oracle.digest(text)
    return out


def capset_digests(worked):
    cfg = iet3.CapSetConfig(worked.eps, worked.c, worked.l)
    out = {}
    for back in corpus.CAPSET_BACK:
        count = corpus.CAPSET_POINTS - back
        code, text, err = workloads.run_in_process(
            ["capset", *corpus.WORKED_ARGS, "--count", str(count), "--back", str(back)])
        pts = [tuple(int(v) for v in row.split("\t")[:2]) for row in text.splitlines()]
        bs = [b for _a, b in pts]
        lo, hi = iet3.point_value(cfg, pts[0]), iet3.point_value(cfg, pts[-1])
        direct = [p for p in iet3.lattice_filter(cfg, min(bs) - 2, max(bs) + 2)
                  if lo <= iet3.point_value(cfg, p) <= hi]
        if code != 0 or err or pts != direct or pts[back] != (0, 0):
            raise SystemExit(f"capset --back {back}: points disagree with the lattice")
        out[str(back)] = oracle.digest(text)
    return out


def main():
    specs, _verdicts = corpus.build_checked()
    golden = {"specs": {}}
    for label, spec in specs:
        golden["specs"][label] = confirm(label, spec, iet3.decide(spec))
        print(label, golden["specs"][label]["verdict"], flush=True)
    worked = corpus.worked_spec()
    report = iet3.decide(worked)
    confirm("worked example", worked, report)
    golden["cli"] = {
        "worked_report": report_to_json(report),
        "generate_sha256": generate_digests(worked),
        "capset_sha256": capset_digests(worked),
    }
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
