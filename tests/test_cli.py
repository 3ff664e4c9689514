"""Command-line interface: exit codes, text and JSON reports, the verify
round trip, orbit generation, complexity tables, cut-and-project TSV, and
batch sweeps."""

import hashlib
import json
import time

import pytest

import iet3.cli
import iet3.invariance
import iet3.qfield
from conftest import corpus
from iet3 import Substitution, decide, make_field, parse_quadnum
from iet3.cli import build_parser, main, report_to_json

WORKED = ["--field", "1,2,-1,+", "--eps", "e", "--l", "1/2+1/2*e",
          "--c=-1/2*e"]
NEGATIVE = ["--field", "1,2,-1,+", "--eps", "e", "--l", "1/2+1/2*e",
            "--c=-3/2+7/2*e"]
# s = 4, return times (83881, 135721, 51841)
SQRT5_NEG = ["--field", "1,1,-1,+", "--eps", "e", "--l", "1-1/2*e", "--c=-1/3"]
# eps' > 1, s = 4, images of 60,697 to 158,905 letters
SQRT5_REV = ["--field", "1,-3,1,-", "--eps", "e", "--l", "1-1/2*e", "--c=-1/3*e"]
CHECKS = ("fixed_point", "eigenvector", "homothety", "primitive")  # a report's checks


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_report(tmp_path, capsys, spec_args, edit):
    """Path of the JSON report of `spec_args`, changed by `edit`."""
    _, out, _ = run(["decide", "--format", "json", *spec_args], capsys)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(edit(json.loads(out))))
    return str(path)


class TestDecide:
    def test_invariant_exit_zero(self, capsys):
        code, out, _ = run(["decide", *WORKED], capsys)
        assert code == 0
        assert "verdict: Invariant" in out
        assert "A -> BBCAC" in out
        assert "return times: (5, 8, 4)" in out

    def test_not_invariant_exit_one(self, capsys):
        code, out, _ = run(["decide", *NEGATIVE], capsys)
        assert code == 1
        assert "verdict: NotInvariant" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(["decide", "--format", "json", *WORKED], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "Invariant"
        assert data["field"] == {"A": 1, "B": 2, "C": -1, "branch": 1}
        assert data["eps"] == "e"
        assert data["substitution"] == {
            "A": "BBCAC", "B": "BBCBBCAC", "C": "BCAC"}
        assert data["lambda"] == "5 + 2*e"
        assert data["s"] == 1
        assert data["return_times"] == [5, 8, 4]
        assert all(data["conditions"].values())
        assert all(data["checks"].values())
        assert len(data["J"]) == 2

    def test_raw_lengths_input(self, capsys):
        """The same decision through the unnormalized parameter form."""
        code, out, _ = run([
            "decide", "--field", "1,2,-1,+",
            "--alpha1=-1/2+3/2*e", "--alpha2=1/2-1/2*e",
            "--alpha3=1/2-1/2*e", "--x0=1/2*e"], capsys)
        assert code == 0
        assert "verdict: Invariant" in out

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(["decide", "--field", "1,2,-1,+", "--eps", "e",
                            "--l", "bogus", "--c", "0"], capsys)
        assert code == 2
        assert "error" in err

    def test_degenerate_exit_one(self, capsys):
        code, out, _ = run(["decide", "--field", "1,2,-1,+", "--eps", "e",
                            "--l=-1+4*e", "--c=-1/2*e"], capsys)
        assert code == 1
        assert "Degenerate" in out


def test_decide_reports_unchanged_over_corpus():
    """SHA-256 of the sorted-key JSON reports of `decide` on the 108 corpus
    specs, joined in corpus order, pins every verdict, condition, unit,
    return time and image: work on orbit coding, the induction or
    synthesis must leave them as they are."""
    texts = [json.dumps(report_to_json(decide(spec)), sort_keys=True) for _l, spec in corpus()]
    assert len(texts) == 108
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
        "e541e07b3390bf9a8949ceae3f74f7912565233534dc8ac90af29088f0e337a5"


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        code, out, _ = run(["decide", "--format", "json", *WORKED], capsys)
        path = tmp_path / "report.json"
        path.write_text(out)
        code, out, _ = run(["verify", "--report", str(path)], capsys)
        assert code == 0
        assert "fixed_point: True" in out
        assert "eigenvector: True" in out

    def test_tampered_report_fails(self, tmp_path, capsys):
        _, out, _ = run(["decide", "--format", "json", *WORKED], capsys)
        data = json.loads(out)
        data["substitution"]["A"] = "BCAC"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(["verify", "--report", str(path)], capsys)
        assert code == 1
        assert "fixed_point: False" in out

    def test_swapped_letters_fail(self, tmp_path, capsys):
        """Two adjacent letters swapped in the middle of phi(B), past any
        sampled window, fail: the return walk reads every letter."""
        def swap(data):
            b = data["substitution"]["B"]
            k = next(k for k in range(len(b) // 2, len(b)) if b[k] != b[k + 1])
            data["substitution"]["B"] = b[:k] + b[k + 1] + b[k] + b[k + 2:]
            return data
        path = edited_report(tmp_path, capsys, SQRT5_NEG, swap)
        code, out, err = run(["verify", "--report", path], capsys)
        assert code == 1
        assert out == "fixed_point: False\neigenvector: True\n"
        assert err == ""

    @pytest.mark.parametrize("edit, code", [
        (lambda data: data, 0),
        (lambda data: {**data, "substitution": {**data["substitution"],
                                                "B": data["substitution"]["B"][::-1]}}, 1),
        (lambda data: {**data, "return_times": [len(data["substitution"][a]) for a in "ABC"]}, 1),
    ], ids=["unedited", "phi-B-reversed", "return-times-ABC"])
    def test_reversed_slope_report(self, tmp_path, capsys, edit, code):
        """A report for eps' > 1 is rechecked by the same induction as any
        other.  Its phi(B) reversed passes `verify_fixed_point` on 10^4
        letters, but not verify; its return times are listed as |phi(C)|,
        |phi(B)|, |phi(A)|, and the order A, B, C does not pass."""
        path = edited_report(tmp_path, capsys, SQRT5_REV, edit)
        assert run(["verify", "--report", path], capsys) == \
            (code, f"fixed_point: {code == 0}\neigenvector: True\n", "")

    @pytest.mark.parametrize("power, new_lambda, passes", [
        (2, lambda lam: lam * lam, True),
        (1, lambda lam: lam * lam, False),
        (1, lambda lam: lam.conjugate(), False),
        (1, lambda lam: -lam, False),
        (1, lambda lam: lam / lam / 2, False),
    ], ids=["phi2-lambda2", "phi-lambda2", "phi-conjugate", "phi-minus-lambda", "phi-half"])
    def test_lambda_must_return_the_images(self, tmp_path, capsys, power, new_lambda, passes):
        """The report's images must be the return words of its own s, and
        its lambda must be lam0^s: a lambda with its conjugate outside
        (0, 1), or lambda = 1/2, which is no unit, proves nothing."""
        def edit(data):
            lam = parse_quadnum(data["lambda"], make_field(1, 2, -1, 1))
            sub = Substitution(("A", "B", "C"), data["substitution"]).power(power)
            return {**data, "substitution": sub.images, "lambda": str(new_lambda(lam)),
                    "s": power, "return_times": [len(sub.images[a]) for a in "ABC"]}
        path = edited_report(tmp_path, capsys, WORKED, edit)
        code, out, err = run(["verify", "--report", path], capsys)
        assert code == (0 if passes else 1)
        assert out.startswith(f"fixed_point: {passes}\n")
        assert err == ""

    @pytest.mark.parametrize("claims", [
        {"verdict": "NotInvariant"},
        {"s": 7},
        {"return_times": [1, 1, 1]},
        {"verdict": "NotInvariant", "s": 7, "return_times": [1, 1, 1]},
        {"s": True},
        {"return_times": [5.0, 8.0, 4.0]},
    ], ids=["verdict", "s", "return-times", "all-three", "s-true", "return-times-floats"])
    def test_report_claims_rechecked(self, tmp_path, capsys, claims):
        """The verdict, s and return times a report states are checked
        against the return system its lambda gives."""
        path = edited_report(tmp_path, capsys, WORKED, lambda data: {**data, **claims})
        code, out, err = run(["verify", "--report", path], capsys)
        assert code == 1
        assert out == "fixed_point: False\neigenvector: True\n"
        assert err == ""

    def test_claimed_s_is_never_powered(self, monkeypatch, tmp_path, capsys):
        """A claimed s of 10^6 is induced level by level until the step
        budget stops it; lam0^s is not built, so verify answers at once."""
        exponents, power = [], iet3.qfield.QuadNum.__pow__

        def recorded(x, n):
            exponents.append(n)
            return power(x, n)
        path = edited_report(tmp_path, capsys, WORKED, lambda data: {**data, "s": 10**6})
        monkeypatch.setattr(iet3.qfield.QuadNum, "__pow__", recorded)
        start = time.perf_counter()
        code, out, err = run(["verify", "--report", path], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "fixed_point: False\neigenvector: True\n", "")
        assert max(exponents, default=0) <= 100

    @pytest.mark.parametrize("checks", [
        dict.fromkeys(CHECKS, False),
        {},
        {**dict.fromkeys(CHECKS, True), "primitive": False},
        {**dict.fromkeys(CHECKS, True), "homothety": 1},
        {**dict.fromkeys(CHECKS, True), "verified": True},
    ], ids=["all-false", "empty", "primitive-false", "homothety-one", "extra-key"])
    def test_report_checks_rechecked(self, tmp_path, capsys, checks):
        """The checks a report states must be the ones its witness passes."""
        path = edited_report(tmp_path, capsys, WORKED, lambda data: {**data, "checks": checks})
        code, out, err = run(["verify", "--report", path], capsys)
        assert code == 1
        assert out == "fixed_point: False\neigenvector: True\n"
        assert err == ""

    def test_report_checks_in_any_order(self, tmp_path, capsys):
        def reverse(data):
            return {**data, "checks": dict(reversed(data["checks"].items()))}
        path = edited_report(tmp_path, capsys, WORKED, reverse)
        code, out, _ = run(["verify", "--report", path], capsys)
        assert (code, out) == (0, "fixed_point: True\neigenvector: True\n")

    def test_report_without_checks_exits_two(self, tmp_path, capsys):
        path = edited_report(tmp_path, capsys, WORKED,
                             lambda data: {k: v for k, v in data.items() if k != "checks"})
        code, out, err = run(["verify", "--report", path], capsys)
        assert code == 2
        assert err.startswith("error: ") and "missing key 'checks'" in err
        assert "fixed_point" not in out


class TestGenerate:
    def test_prefix(self, capsys):
        code, out, _ = run(["generate", *WORKED, "--from", "0", "--to", "20"],
                           capsys)
        assert code == 0
        assert out.strip() == "BBCBBCACBBCBBCACBCAC"


class TestComplexity:
    def test_table(self, capsys):
        code, out, _ = run(["complexity", *WORKED, "--n-max", "5",
                            "--radius", "2000"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tC(n)"
        assert [l.split("\t")[1] for l in lines[1:]] == ["1", "3", "5", "7", "9", "11"]

    @pytest.mark.parametrize("radius, n_max", [("0", "30"), ("1", "4"), ("5", "-1")])
    def test_empty_window_refused(self, capsys, radius, n_max):
        """A window too short for the factors asked for is an input error,
        not a table of zeros."""
        code, out, err = run(["complexity", *WORKED, "--radius", radius,
                              "--n-max", n_max], capsys)
        assert code == 2
        assert err.startswith("error: ") and "--radius" in err
        assert out == ""


class TestCapset:
    def test_tsv(self, capsys):
        code, out, _ = run(["capset", *WORKED, "--count", "50"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 51  # s_0 = 0 plus the next 50 points
        assert all(len(r) == 4 for r in rows)
        classes = {r[3] for r in rows}
        assert classes <= {"D1", "D2", "D1+D2", "-"}
        values = [float(r[2]) for r in rows]
        assert values == sorted(values)


class TestSweep:
    def test_batch(self, tmp_path, capsys):
        lines = [
            {"field": [1, 2, -1, 1], "eps": "e", "l": "1/2+1/2*e", "c": "-1/2*e"},
            {"field": [1, 2, -1, 1], "eps": "e", "l": "1/2+1/2*e", "c": "-3/2+7/2*e"},
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        code, out, _ = run(["sweep", "--input", str(path)], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["verdict"] for r in records] == ["Invariant", "NotInvariant"]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(
            {"field": [1, 2, -1, 1], "eps": "e", "l": "1/2+1/2*e",
             "c": "-1/2*e"}) + "\n")
        dest = tmp_path / "out.jsonl"
        code, _, _ = run(["sweep", "--input", str(path),
                          "--output", str(dest)], capsys)
        assert code == 0
        assert json.loads(dest.read_text())["verdict"] == "Invariant"

    def test_bad_line_does_not_stop_batch(self, tmp_path, capsys):
        valid = {"field": [1, 2, -1, 1], "eps": "e", "l": "1/2+1/2*e", "c": "-1/2*e"}
        lines = [valid, dict(valid, l="3/2"), valid]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        code, out, err = run(["sweep", "--input", str(path)], capsys)
        assert code == 2
        assert "Traceback" not in err
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 3
        assert [r.get("verdict") for r in records] == ["Invariant", None, "Invariant"]
        assert records[1]["input"] == lines[1] and "error" in records[1]

    def test_budget_line_does_not_stall_batch(self, tmp_path, capsys):
        """c = -e/40009 needs a unit of thousands of digits; its line gets
        an error record naming the step budget, quickly, and the valid
        line after it is decided."""
        valid = {"field": [1, 2, -1, 1], "eps": "e", "l": "1/2+1/2*e", "c": "-1/2*e"}
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in (dict(valid, c="-1/40009*e"), valid)) + "\n")
        code, out, err = run(["sweep", "--input", str(path)], capsys)
        assert code == 2
        assert "Traceback" not in err
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert f"step budget of {iet3.invariance.STEP_BUDGET} letters" in records[0]["error"]
        assert records[1]["verdict"] == "Invariant"

    def test_unreadable_lines_get_records(self, tmp_path, capsys):
        valid = json.dumps({"field": [1, 2, -1, 1], "eps": "e",
                            "l": "1/2+1/2*e", "c": "-1/2*e"})
        bad = ["{not json", json.dumps({"eps": "e"}), json.dumps([1, 2]),
               json.dumps({"field": [1, 2], "eps": "e", "l": "1", "c": "0"})]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(bad + [valid]) + "\n")
        code, out, _ = run(["sweep", "--input", str(path)], capsys)
        assert code == 2
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 5
        assert all("error" in r for r in records[:4])
        assert records[0]["input"] == "{not json"
        assert records[4]["verdict"] == "Invariant"

    def test_nested_and_boolean_lines_get_records(self, tmp_path, capsys):
        """A line nested too deeply to decode and a field holding JSON's
        true (a Python bool, so an int) each get an error record, and the
        valid line after them is decided."""
        valid = {"field": [1, 2, -1], "eps": "e", "l": "1/2+1/2*e", "c": "-1/2*e"}
        lines = ["[" * 200000, json.dumps(dict(valid, field=[True, 2, -1])),
                 json.dumps(dict(valid, field={"A": True, "B": 2, "C": -1})), json.dumps(valid)]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["sweep", "--input", str(path)], capsys)
        assert code == 2
        assert "Traceback" not in err
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        assert "nested" in records[0]["error"]
        assert all("'field'" in r["error"] for r in records[1:3])
        assert records[3]["verdict"] == "Invariant"

    def test_field_as_report_object(self, tmp_path, capsys):
        """The {A, B, C, branch} object that reports write is accepted too."""
        _, out, _ = run(["decide", "--format", "json", *WORKED], capsys)
        report = json.loads(out)
        line = {k: report[k] for k in ("field", "eps", "l", "c")}
        assert isinstance(line["field"], dict)
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(line) + "\n")
        code, out, _ = run(["sweep", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["substitution"] == report["substitution"]


class TestErrors:
    def test_unit_without_class_cycle(self, monkeypatch, capsys):
        """A scaling candidate that does not permute the residue classes
        (here the non-unit 2) is reported, not raised as a traceback."""
        monkeypatch.setattr(iet3.invariance, "lemma_unit", lambda f: f.rational(2))
        code, _, err = run(["decide", *WORKED], capsys)
        assert code == 2
        assert err.startswith("error: ") and "class orbit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, edit, needle", [
        (["decide", *WORKED, "--eps", "1/0"], None, "division by zero"),
        (["decide", *WORKED, "--eps", "(" * 3000 + "e" + ")" * 3000], None, "recursion"),
        (["decide", *WORKED, "--field", "1,2,-1,x"], None, "+ - 1 -1"),
        (["decide", *WORKED, "--output", "{tmp}/missing/out.txt"], None, "missing"),
        (["verify", "--report", "{tmp}/r.json"], lambda d: dict(d, substitution=5), "'substitution'"),
        (["verify", "--report", "{tmp}/r.json"],
         lambda d: dict(d, substitution=dict(d["substitution"], B=5)), "letter 'B'"),
        (["verify", "--report", "{tmp}/r.json"],
         lambda d: dict(d, substitution=dict(d["substitution"], B=d["substitution"]["B"] + "X")),
         "'X'"),
        (["verify", "--report", "{tmp}/r.json"], lambda d: {**d, "lambda": 5}, "'lambda'"),
        (["verify", "--report", "{tmp}/r.json"],
         lambda d: {k: v for k, v in d.items() if k != "lambda"}, "missing key 'lambda'"),
        (["verify", "--report", "{tmp}/r.json"], lambda d: dict(d, field="1,2,-1"), "'field'"),
        (["verify", "--report", "{tmp}/r.json"], lambda d: dict(d, field=[1, 2]), "'field'"),
        (["verify", "--report", "{tmp}/r.json"],
         lambda d: dict(d, field=dict(d["field"], A=True)), "'field'"),
        (["verify", "--report", "{tmp}/r.json"], lambda d: [d], "JSON object"),
    ], ids=["eps-1/0", "eps-nested", "field-branch", "output-dir",
            "substitution-int", "image-int", "image-foreign", "lambda-int", "lambda-missing",
            "field-str", "field-short", "field-bool", "report-list"])
    def test_bad_input_exits_two(self, tmp_path, capsys, argv, edit, needle):
        """Bad input exits 2 with one error line and no traceback."""
        if edit is not None:
            _, out, _ = run(["decide", "--format", "json", *WORKED], capsys)
            (tmp_path / "r.json").write_text(json.dumps(edit(json.loads(out))))
        code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
        assert code == 2
        assert err.startswith("error: ") and needle in err
        assert "fixed_point" not in out

    @pytest.mark.parametrize("argv, name", [
        (["generate", *WORKED, "--from=0", "--to=100000000000"], "code_orbit"),
        (["complexity", *WORKED, "--radius", "100000000000"], "orbit_window"),
    ], ids=["generate", "complexity"])
    def test_out_of_memory_exits_two(self, monkeypatch, capsys, argv, name):
        """A window too large to hold is reported as an error line with
        exit 2, not a MemoryError traceback."""
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(iet3.cli, name, exhausted)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "too large" in err
        assert "Traceback" not in err and out == ""

    def test_deeply_nested_report(self, tmp_path, capsys):
        """JSON nested past the decoder's recursion limit is bad input."""
        path = tmp_path / "r.json"
        path.write_text("[" * 200000)
        code, out, err = run(["verify", "--report", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "nested" in err
        assert "fixed_point" not in out


def test_only_complexity_takes_a_radius():
    """The fixed-point proof reads whole images, so no command but the
    complexity window has a radius to set."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert {name for name, p in commands.items()
            if "--radius" in p._option_string_actions} == {"complexity"}


def test_format_refused_where_it_has_no_json_form(capsys):
    """--format is an error, not a no-op, on commands whose output has one
    form: generate prints letters, capset TSV and sweep JSONL."""
    with pytest.raises(SystemExit) as exc:
        main(["generate", *WORKED, "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --format json" in err


def test_format_only_where_output_has_two_forms():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert {name for name, p in commands.items()
            if "--format" in p._option_string_actions} == {"decide", "synthesize", "complexity"}
    assert {name for name, p in commands.items()
            if "--output" not in p._option_string_actions} == {"verify"}
