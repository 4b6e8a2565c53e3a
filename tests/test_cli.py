import argparse
import copy
import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addbasis.cli import MAX_TERMS, main, nat_arg
from addbasis.report import RESULT_SCHEMAS, ReportError, jsonable, validate_report
from reference import report_json_schema, report_validator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    validate_report(report)
    return report


class TestBoundParsing:
    def test_plain_and_scientific(self):
        assert nat_arg("100000") == 100000
        assert nat_arg("2.1e5") == 210000
        assert nat_arg("1e3") == 1000

    def test_rejects_fractional(self):
        with pytest.raises(argparse.ArgumentTypeError):
            nat_arg("2.5e0")
        with pytest.raises(argparse.ArgumentTypeError):
            nat_arg("-5")
        with pytest.raises(argparse.ArgumentTypeError):
            nat_arg("nope")
        # non-finite or above 2^64 - 1: rejected before int() can raise
        for text in ("inf", "-Infinity", "NaN", "sNaN", "1e20", "18446744073709551616"):
            with pytest.raises(argparse.ArgumentTypeError):
                nat_arg(text)
        assert nat_arg("18446744073709551615") == 2**64 - 1


class TestCommands:
    def test_order_squares(self, capsys):
        rep = run_json(
            capsys, "order", "--set", "squares", "--bound", "10000", "--hmax", "6"
        )
        result = rep["result"]
        assert result["upper"] == 4 and result["lower"] == 4
        assert result["witness"] == 7 and result["witness_fold"] == 3
        assert "prefix-verified" in result["coverage_label"]

    def test_sumset_singleton(self, capsys):
        rep = run_json(
            capsys, "sumset", "--set", "explicit{0}", "--h", "5", "--bound", "5"
        )
        assert rep["result"]["members"] == [0]
        assert rep["result"]["gaps"] == [1, 2, 3, 4, 5]
        assert rep["result"]["full_coverage"] is False

    def test_sumset_gap_family(self, capsys):
        rep = run_json(
            capsys, "sumset", "--set", "counterexample", "--h", "2", "--bound", "2.1e4"
        )
        assert rep["result"]["gaps"] == [21, 201, 2001, 20001]
        assert rep["result"]["gaps_truncated"] is False

    def test_sumset_limit_truncates(self, capsys):
        rep = run_json(
            capsys, "sumset", "--set", "explicit{0,1}", "--h", "1", "--bound", "50", "--limit", "3"
        )
        assert rep["result"]["members"] == [0, 1]
        assert rep["result"]["members_truncated"] is False
        assert rep["result"]["gaps"] == [2, 3, 4]
        assert rep["result"]["gaps_truncated"] is True

    def test_density_rows(self, capsys):
        rep = run_json(
            capsys,
            "density",
            "--set", "counterexample",
            "--t", "1",
            "--subseq", "2*10^k+1",
            "--terms", "5",
        )
        rows = rep["result"]["rows"]
        assert [r["ratio"] for r in rows] == [
            "10/21",
            "89/201",
            "296/667",
            "8887/20001",
            "88886/200001",
        ]
        assert Fraction(rows[2]["ratio"]) == Fraction(888, 2001)
        assert [r["count"] for r in rows] == [10, 89, 888, 8887, 88886]

    def test_stability(self, capsys):
        rep = run_json(
            capsys,
            "stability",
            "--set", "counterexample",
            "--add", "11,12,13",
            "--h", "3",
            "--subseq", "2*10^k+1",
            "--start", "2",
            "--terms", "3",
            "--bound", "21000",
        )
        assert rep["result"]["survivors"] == [201, 2001, 20001]
        assert rep["result"]["probe_fold"] == 2

    def test_probe(self, capsys):
        rep = run_json(
            capsys,
            "probe",
            "--set", "squares",
            "--h", "4",
            "--subseq", "10^k",
            "--start", "2",
            "--terms", "3",
        )
        assert rep["result"]["h1_strictly_below_one"] is True
        assert rep["result"]["h2_ratio_trending_to_zero"] is False
        assert rep["result"]["h2_fold"] == 2 and rep["result"]["h1_fold"] == 3

    def test_verify_small_bound(self, capsys):
        rep = run_json(capsys, "verify-counterexample", "--bound", "21000")
        assert rep["result"]["overall"] == "PASS"
        names = [c["name"] for c in rep["result"]["claims"]]
        assert names == [
            "order-three",
            "pair-gap-family",
            "density-oscillation",
            "window-nonconvergence",
            "stability-sweep",
        ]


class TestExitCodes:
    def test_verify_bound_too_small(self, capsys):
        code, _, err = run_cli(capsys, "verify-counterexample", "--bound", "1000")
        assert code == 2
        assert "below the minimum" in err

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "sumset", "--set", "primes", "--h", "2", "--bound", "10")
        assert code == 2
        assert "offset" in err

    def test_semantic_error(self, capsys):
        code, _, err = run_cli(capsys, "sumset", "--set", "interval[5,2]", "--h", "2", "--bound", "10")
        assert code == 2

    def test_ceiling_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "100")
        code, _, err = run_cli(capsys, "order", "--set", "squares", "--bound", "200", "--hmax", "4")
        assert code == 2
        assert "ADDBASIS_MAX_BOUND" in err

    def test_negative_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "sumset", "--set", "squares", "--h", "2", "--bound", "10", "--limit", "-1"
        )
        assert code == 2
        assert "nonnegative" in err

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "order", "--set", "squares")
        assert code == 2

    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        import addbasis.cli as cli_mod
        from addbasis import VerificationError

        def boom(*args, **kwargs):
            raise VerificationError("synthetic certificate mismatch")

        monkeypatch.setattr(cli_mod, "order_bounds", boom)
        code, _, err = run_cli(
            capsys, "order", "--set", "squares", "--bound", "10", "--hmax", "2"
        )
        assert code == 3
        assert "verification" in err

    def test_plot_data_rejected_for_order(self, capsys):
        for argv in (
            ["order", "--set", "squares", "--bound", "100", "--hmax", "4"],
            ["sumset", "--set", "squares", "--h", "2", "--bound", "100"],
            ["stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
             "--terms", "2", "--bound", "2100"],
            ["verify-counterexample", "--bound", "21000"],
        ):
            code, out, err = run_cli(capsys, *argv, "--plot-data")
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --plot-data" in err

    def test_huge_subseq_start(self, capsys):
        code, out, err = run_cli(
            capsys, "density", "--set", "squares", "--subseq", "10^k",
            "--start", "1000000", "--terms", "1",
        )
        assert code == 2
        assert out == ""
        assert "64-bit" in err

    def test_fold_count_past_bound(self, capsys):
        # more folds than max(bound, 1) add nothing, so they are refused before any work
        for argv in (
            ["order", "--set", "explicit{1}", "--bound", "10", "--hmax", "200000"],
            ["sumset", "--set", "explicit{0}", "--h", "7", "--bound", "5"],
            ["sumset", "--set", "explicit{0}", "--h", "2", "--bound", "0"],
            # stability and probe compute folds up to h - 1; probe's bound is its last term
            ["stability", "--set", "explicit{1}", "--h", "100000", "--subseq", "k",
             "--terms", "1", "--bound", "10"],
            ["probe", "--set", "squares", "--h", "12", "--subseq", "10^k", "--terms", "1"],
            # density computes fold t; its bound is its last term
            ["density", "--set", "explicit{1}", "--t", "1000000", "--subseq", "k", "--terms", "1"],
            ["density", "--set", "explicit{1}", "--t", "11", "--subseq", "k", "--start", "10",
             "--terms", "1"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "exceeds max(bound, 1)" in err
        for argv in (
            ["order", "--set", "explicit{0}", "--bound", "0", "--hmax", "1"],
            ["stability", "--set", "explicit{1}", "--h", "11", "--subseq", "k",
             "--terms", "1", "--bound", "10"],
            ["probe", "--set", "squares", "--h", "11", "--subseq", "10^k", "--terms", "1"],
            ["density", "--set", "explicit{1}", "--t", "10", "--subseq", "k", "--start", "10",
             "--terms", "1"],
        ):
            assert run_cli(capsys, *argv)[0] == 0

    def test_terms_cap(self, capsys):
        # --terms sets the rows of a report, so it is refused past MAX_TERMS before any fold
        for argv in (
            ["density", "--set", "explicit{1}", "--subseq", "k"],
            ["stability", "--set", "explicit{1}", "--h", "2", "--subseq", "k", "--bound", "2000"],
            ["probe", "--set", "explicit{1}", "--h", "3", "--subseq", "k"],
        ):
            code, out, err = run_cli(capsys, *argv, "--terms", str(MAX_TERMS + 1))
            assert code == 2
            assert out == ""
            assert f"exceeds MAX_TERMS = {MAX_TERMS}" in err
            report = run_json(capsys, *argv, "--terms", str(MAX_TERMS))
            assert report["inputs"]["terms"] == MAX_TERMS

    def test_json_flag_rejected(self, capsys):
        # JSON is the default report, so there is no flag for it
        for argv in (
            ["verify-counterexample", "--bound", "21000"],
            ["sumset", "--set", "squares", "--h", "2", "--bound", "100"],
            ["order", "--set", "squares", "--bound", "100", "--hmax", "4"],
            ["density", "--set", "squares", "--subseq", "10^k", "--terms", "2"],
            ["stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
             "--terms", "2", "--bound", "2100"],
            ["probe", "--set", "squares", "--h", "4", "--subseq", "10^k", "--terms", "2"],
        ):
            code, out, err = run_cli(capsys, *argv, "--json")
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --json" in err

    def test_invalid_report_maps_to_three(self, capsys, monkeypatch):
        import addbasis.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_cmd_order", lambda args: ({"upper": "four"}, 0))
        code, out, err = run_cli(
            capsys, "order", "--set", "squares", "--bound", "10", "--hmax", "2"
        )
        assert code == 3
        assert out == ""
        assert "self-validation" in err
        assert "report.result.upper: 'four'" in err


class TestParserReuse:
    def test_defaults_do_not_leak(self, capsys):
        verify = ("verify-counterexample", "--bound", "21000")
        assert run_json(capsys, *verify, "--seed", "5")["inputs"]["seed"] == 5
        assert run_json(capsys, *verify)["inputs"]["seed"] == 0
        stability = ("stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
                     "--terms", "2", "--bound", "2100")
        assert run_json(capsys, *stability, "--add", "1,2")["result"]["added"] == [1, 2]
        assert run_json(capsys, *stability)["result"]["added"] == []

    def test_parser_built_once(self, capsys, monkeypatch):
        # every call after the first reuses the parser, so none constructs one,
        # the subcommand parsers included
        jobs = (
            ["verify-counterexample", "--bound", "21000"],
            ["sumset", "--set", "squares", "--h", "2", "--bound", "100", "--csv"],
            ["order", "--set", "squares", "--bound", "100", "--hmax", "4"],
            ["density", "--set", "squares", "--subseq", "10^k", "--terms", "2", "--plot-data"],
            ["stability", "--set", "counterexample", "--add", "3", "--h", "3",
             "--subseq", "2*10^k+1", "--terms", "2", "--bound", "2100"],
            ["probe", "--set", "squares", "--h", "4", "--subseq", "10^k", "--terms", "2"],
            ["order", "--set", "squares"],
        )
        run_cli(capsys, *jobs[2])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        codes = [run_cli(capsys, *jobs[i % len(jobs)])[0] for i in range(20)]
        assert built == []
        assert codes == ([0] * 6 + [2]) * 2 + [0] * 6


GOLDEN = Path(__file__).resolve().parent / "golden"
# the JSON goldens, with the masked timing put back as a number
GOLDEN_REPORTS = {
    path.name: {**json.loads(path.read_text()), "timing_ms": 1.5}
    for path in sorted(GOLDEN.glob("*.json"))
}
VALIDATORS = {command: report_validator(command) for command in RESULT_SCHEMAS}

# replacement leaves: every JSON type, the report's own consts and enums, and
# ratios that are malformed, unreduced or newline-terminated
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2**70),
    st.floats(allow_nan=False),
    st.sampled_from(["", "1", "PASS", "FAIL", "order", "density", "1/2", "2/4", "3/1", "0/5",
                     "1/2\n", "01", "1/0", "-1/2", "0.5", "9/10"]),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=2),
    st.dictionaries(st.sampled_from(["k", "n", "extra"]), st.integers(0, 3), max_size=2),
)
KEYS = st.sampled_from(["extra", "k", "ratio", "upper", "detail", "timing_ms"]) | st.text(max_size=3)


def _paths(value, path=()):
    """The path to every node under ``value``: objects, arrays and leaves."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


class TestReportSchema:
    @pytest.fixture
    def density_report(self, capsys):
        return run_json(
            capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "2"
        )

    def test_schemas_are_valid(self):
        # every shape, rendered as JSON Schema by the tests' own helper
        for command in RESULT_SCHEMAS:
            jsonschema.Draft202012Validator.check_schema(report_json_schema(command))

    def test_report_error_is_ours(self):
        # main maps ValueError from a handler to exit 2, the caller's fault;
        # a report that breaks its shape is a fault of ours
        assert not issubclass(ReportError, ValueError)

    def test_unknown_command(self, density_report):
        density_report["command"] = "plot"
        with pytest.raises(ReportError, match="report.command: unknown command 'plot'"):
            validate_report(density_report)

    def test_result_of_another_command(self, density_report):
        density_report["command"] = "order"
        with pytest.raises(ReportError, match="report.result: unexpected key 'max_ratio'"):
            validate_report(density_report)

    def test_extra_result_key(self, density_report):
        density_report["result"]["extra"] = 1
        with pytest.raises(ReportError, match="report.result: unexpected key 'extra'"):
            validate_report(density_report)

    def test_malformed_ratio(self, density_report):
        # "1/2\n" passes a $-anchored pattern; "2/4", "3/1", "0/5" are unreduced
        for bad in ("2/4x", "1/0", "-1/2", "0.5", "", "1/2\n", "2/4", "3/1", "0/5"):
            report = copy.deepcopy(density_report)
            report["result"]["rows"][0]["ratio"] = bad
            with pytest.raises(ReportError, match=r"report\.result\.rows\[0\]\.ratio: .* is not reduced ratio"):
                validate_report(report)

    def test_goldens_pass_both(self):
        for report in GOLDEN_REPORTS.values():
            validate_report(report)
            VALIDATORS[report["command"]].validate(report)

    @settings(max_examples=400)
    @given(data=st.data())
    def test_agrees_with_jsonschema(self, data):
        # one mutation of a golden report: a node replaced by a leaf, a key
        # added or a key removed; both validators must give the same verdict
        name = data.draw(st.sampled_from(sorted(GOLDEN_REPORTS)))
        report = copy.deepcopy(GOLDEN_REPORTS[name])
        command = report["command"]
        kind = data.draw(st.sampled_from(["replace", "add", "remove"]))
        paths = list(_paths(report))
        new = None
        if kind == "replace":
            path = data.draw(st.sampled_from(paths[1:]))
            new = _at(report, path[:-1])[path[-1]] = data.draw(LEAVES)
        else:
            objects = [_at(report, p) for p in paths if isinstance(_at(report, p), dict)]
            obj = data.draw(st.sampled_from([o for o in objects if o or kind == "add"]))
            if kind == "add":
                new = obj[data.draw(KEYS)] = data.draw(LEAVES)
            else:
                del obj[data.draw(st.sampled_from(sorted(obj)))]
        try:
            validate_report(report)
            ours = True
        except ReportError:
            ours = False
        theirs = VALIDATORS[command].is_valid(report)
        # jsonschema takes an integral float such as 0.0 for an integer
        integral = type(new) is float and new.is_integer()
        assert ours == theirs or (integral and theirs and not ours), (kind, new)


@dataclass(frozen=True)
class _Row:
    k: int
    ratio: Fraction


@dataclass(frozen=True)
class _Report:
    label: str
    witness: int | None
    covered: bool
    peak: Fraction
    rows: tuple[_Row, ...]
    added: tuple[int, ...]


class TestJsonable:
    def test_fields_in_order_with_decimals(self):
        rep = _Report("x", None, True, Fraction(8, 9), (_Row(1, Fraction(1, 2)),), (3, 1))
        out = jsonable(rep)
        assert list(out) == [
            "label", "witness", "covered", "peak", "peak_decimal", "rows", "added",
        ]
        assert out == {
            "label": "x",
            "witness": None,
            "covered": True,
            "peak": "8/9",
            "peak_decimal": "0.8888888889",
            "rows": [{"k": 1, "ratio": "1/2", "ratio_decimal": "0.5"}],
            "added": [3, 1],
        }
        # == alone would let True pass as 1
        assert out["covered"] is True

    def test_integral_fraction_field(self):
        assert jsonable(_Row(2, Fraction(4, 2))) == {"k": 2, "ratio": "2", "ratio_decimal": "2"}

    def test_other_values_pass_through(self):
        assert jsonable(None) is None
        assert jsonable(True) is True
        assert jsonable(False) is False
        assert jsonable(7) == 7 and type(jsonable(7)) is int
        assert jsonable("1/2") == "1/2"
        assert jsonable((1, (2, None))) == [1, [2, None]]


class TestOutputs:
    def test_determinism_modulo_timing(self, capsys):
        a = run_json(capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "4")
        b = run_json(capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "4")
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_csv_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "3", "--csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "n", "count", "ratio"]
        assert rows[1][:3] == ["1", "10", "10"]
        assert len(rows) == 4

    def test_csv_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify-counterexample", "--bound", "21000", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "status"]
        assert all(r[1] == "PASS" for r in rows[1:])

    def test_plot_data_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "3", "--plot-data"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 3
        k, n, ratio = lines[0].split()
        assert (k, n) == ("1", "10")

    def test_plot_data_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probe",
            "--set", "squares",
            "--h", "4",
            "--subseq", "10^k",
            "--terms", "2",
            "--plot-data",
        )
        assert code == 0
        assert out.count("# fold") == 2

    def test_sumset_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sumset", "--set", "explicit{0}", "--h", "2", "--bound", "3", "--csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["member", "0"] in rows and ["gap", "1"] in rows

    def test_order_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "--set", "squares", "--bound", "100", "--hmax", "5", "--csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["h", "covered", "first_gap"]
        assert rows[-1][1] == "true"

    def test_probe_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probe",
            "--set", "squares",
            "--h", "4",
            "--subseq", "10^k",
            "--terms", "2",
            "--csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["fold", "k", "n", "count", "ratio"]
        assert {r[0] for r in rows[1:]} == {"2", "3"}

    def test_stability_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stability",
            "--set", "counterexample",
            "--h", "3",
            "--subseq", "2*10^k+1",
            "--terms", "2",
            "--bound", "2100",
            "--csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "n", "in_sumset"]
        assert rows[1] == ["1", "21", "false"]
