import copy
import csv
import io
import json
from fractions import Fraction

import jsonschema
import pytest

from addbasis.cli import MAX_TERMS, main, nat_arg
from addbasis.report import RESULT_SCHEMAS, validate_report


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
        import argparse

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


class TestReportSchema:
    @pytest.fixture
    def density_report(self, capsys):
        return run_json(
            capsys, "density", "--set", "counterexample", "--subseq", "10^k", "--terms", "2"
        )

    def test_schemas_are_valid(self):
        from addbasis.report import report_schema

        for command in RESULT_SCHEMAS:
            schema = report_schema(command)
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_unknown_command(self, density_report):
        density_report["command"] = "plot"
        with pytest.raises(jsonschema.ValidationError):
            validate_report(density_report)

    def test_result_of_another_command(self, density_report):
        density_report["command"] = "order"
        with pytest.raises(jsonschema.ValidationError):
            validate_report(density_report)

    def test_extra_result_key(self, density_report):
        density_report["result"]["extra"] = 1
        with pytest.raises(jsonschema.ValidationError):
            validate_report(density_report)

    def test_malformed_ratio(self, density_report):
        # "1/2\n" passes a $-anchored pattern; "2/4", "3/1", "0/5" are unreduced
        for bad in ("2/4x", "1/0", "-1/2", "0.5", "", "1/2\n", "2/4", "3/1", "0/5"):
            report = copy.deepcopy(density_report)
            report["result"]["rows"][0]["ratio"] = bad
            with pytest.raises(jsonschema.ValidationError):
                validate_report(report)


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
