import argparse
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_parse_parity
from addbasis.cli import MAX_TERMS, int_arg, intlist_arg, main, nat_arg
from addbasis.report import (
    RESULT_SCHEMAS, ReportError, canonical_json, jsonable, plot_data_lines, rows_csv, validate_report,
)
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

    def test_int_lists(self):
        assert intlist_arg(" 1, 2 ,3\t") == (1, 2, 3)
        assert intlist_arg("0,18446744073709551615") == (0, 2**64 - 1)
        for text in ("18446744073709551616", "1,-1", "١٢", "1,٣", "1,,2", "1;2", "1_000", "3,1_2"):
            with pytest.raises(argparse.ArgumentTypeError):
                intlist_arg(text)

    def test_ascii_digits_only(self):
        # int() and Decimal() read other scripts' digits and underscores too
        for text in ("١٠", "٣", "1_000", "2.1e1_0", "1e٣", "10\u00a0"):
            with pytest.raises(argparse.ArgumentTypeError, match="ASCII"):
                nat_arg(text)
        for text in ("١٠", "٣", "1_000", "-1_0", "+٣", "two", "1e3", ""):
            with pytest.raises(argparse.ArgumentTypeError, match="ASCII"):
                int_arg(text)
        assert int_arg("42") == 42
        assert int_arg("-3") == -3  # a negative count is refused by its command
        assert int_arg(" 7\n") == 7


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

    def test_deep_nesting(self, capsys):
        text = "(" * 400 + "squares" + ")" * 400
        code, out, err = run_cli(capsys, "sumset", "--set", text, "--h", "2", "--bound", "100")
        assert (code, out) == (2, "")
        assert err == "error: parentheses nest deeper than 100 (at offset 100)\n"

    def test_long_union(self, capsys):
        text = " | ".join(["squares"] * 5000)
        report = run_json(capsys, "sumset", "--set", text, "--h", "2", "--bound", "100")
        assert report["result"]["popcount"] == 44

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sumset", "--set", "squares", "--h", "-1", "--bound", "10"], "fold count must be >= 0"),
            (["order", "--set", "squares", "--bound", "10", "--hmax", "0"], "h_max must be >= 1"),
            (["density", "--set", "squares", "--t", "-1", "--subseq", "10^k"], "fold count must be >= 0"),
            (["density", "--set", "squares", "--subseq", "10^k", "--start", "25"], "64-bit natural range"),
            (["probe", "--set", "squares", "--h", "2", "--subseq", "10^k"], "h >= 3"),
            (["stability", "--set", "squares", "--h", "1", "--subseq", "k", "--bound", "10"], "h >= 2"),
            (["stability", "--set", "squares", "--h", "3", "--subseq", "10^k", "--bound", "99"],
             "exceeds the probe bound"),
        ],
    )
    def test_library_argument_checks_map_to_two(self, capsys, argv, message):
        # the library entry points refuse these arguments with SemanticError
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err and "internal" not in err

    def test_bad_ceiling_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "lots")
        code, _, err = run_cli(capsys, "order", "--set", "squares", "--bound", "10", "--hmax", "2")
        assert code == 2
        assert "ADDBASIS_MAX_BOUND must be an integer" in err

    @pytest.mark.parametrize("raw", ["١٠٠", "1_000", " 100", "+5", "-1", "1e3", ""])
    def test_ceiling_setting_in_ascii_digits(self, capsys, monkeypatch, raw):
        # int() reads all of these; the numeric options accept none of them
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", raw)
        code, out, err = run_cli(capsys, "order", "--set", "squares", "--bound", "10", "--hmax", "2")
        assert (code, out) == (2, "")
        assert "ADDBASIS_MAX_BOUND must be an integer" in err

    def test_ceiling_setting_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "100")
        report = run_json(capsys, "order", "--set", "squares", "--bound", "100", "--hmax", "4")
        assert report["result"]["upper"] == 4
        code, out, err = run_cli(capsys, "order", "--set", "squares", "--bound", "101", "--hmax", "4")
        assert (code, out) == (2, "")
        assert "exceeds the configured ceiling 100" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sumset", "--set", "squares", "--h", "2", "--bound", "1000"],
            ["order", "--set", "squares", "--bound", "1000", "--hmax", "4"],
            ["density", "--set", "squares", "--t", "2", "--subseq", "10^k", "--terms", "3"],
        ],
    )
    def test_out_of_memory_maps_to_two(self, capsys, monkeypatch, argv):
        # a fold too large for this process is the size of the input, not a
        # fault of ours, so it exits 2 with one line and no report
        import addbasis.sumset as sumset_module

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 238. MiB")

        monkeypatch.setattr(sumset_module, "pair_sumset", out_of_memory)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]} ran out of memory; a lower bound may fit\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-counterexample", "--bound", "2.1e5"],
            ["sumset", "--set", "squares", "--h", "2", "--bound", "1e5", "--limit", "100000"],
        ],
    )
    def test_closed_stdout_maps_to_two(self, argv):
        # a reader that exits before reading the report is the caller's doing:
        # exit 2 with one line, and no traceback or "Exception ignored" when
        # the interpreter flushes stdout at exit
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "addbasis.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: stdout was closed before the report was written\n"

    def test_library_value_error_maps_to_three(self, capsys, monkeypatch):
        # a ValueError from inside the kernels is a fault of ours, not of the
        # input: pair_sumset's bound check, and from_runs on the gap path
        import addbasis.sumset as sumset_module

        kernel = sumset_module.pair_sumset
        monkeypatch.setattr(
            sumset_module, "pair_sumset", lambda p, q, bound, **k: kernel(p, q, bound + 1, **k)
        )
        code, out, err = run_cli(capsys, "order", "--set", "squares", "--bound", "100", "--hmax", "4")
        assert (code, out) == (3, "")
        assert err.startswith("error: internal failure: bound mismatch")
        monkeypatch.undo()
        monkeypatch.setattr(sumset_module, "SHIFT_OR_NUMPY_WORDS", 0)
        monkeypatch.setattr(sumset_module, "GAP_TEST_WORDS", 0)
        monkeypatch.setattr(sumset_module, "_gap_runs", lambda *args: [(5, 3)])
        code, out, err = run_cli(capsys, "sumset", "--set", "squares", "--h", "3", "--bound", "1000")
        assert (code, out) == (3, "")
        assert "runs must be sorted" in err

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

    def test_add_checked_by_argparse(self, capsys):
        # past 2^64 - 1, or in non-ASCII digits, --add is a usage error
        stability = ("stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
                     "--terms", "2", "--bound", "2100")
        for add in ("18446744073709551616", "١٢", "3,١٢"):
            code, out, err = run_cli(capsys, *stability, "--add", add)
            assert (code, out) == (2, "")
            assert "argument --add" in err
        assert run_json(capsys, *stability, "--add", " 12 , 3")["result"]["added"] == [3, 12]

    def test_numeric_options_in_ascii_digits(self, capsys):
        sumset = ["sumset", "--set", "squares", "--h", "1", "--bound", "10"]
        density = ["density", "--set", "squares", "--subseq", "10^k", "--terms", "2"]
        stability = ["stability", "--set", "counterexample", "--h", "3", "--subseq", "2*10^k+1",
                     "--terms", "2", "--bound", "2100"]
        probe = ["probe", "--set", "squares", "--h", "3", "--subseq", "10^k", "--terms", "2"]
        for argv, option in (
            (["sumset", "--set", "squares", "--h", "1", "--bound", "١٠", "--limit", "٥"], "--bound"),
            (["sumset", "--set", "squares", "--h", "1", "--bound", "1_000"], "--bound"),
            ([*sumset, "--limit", "1_0"], "--limit"),
            (["sumset", "--set", "squares", "--h", "١", "--bound", "10"], "--h"),
            (["order", "--set", "squares", "--bound", "100", "--hmax", "٣"], "--hmax"),
            (["order", "--set", "squares", "--bound", "100", "--hmax", "1_0"], "--hmax"),
            ([*density, "--t", "٢"], "--t"),
            ([*density, "--start", "1_0"], "--start"),
            ([*probe[:-2], "--terms", "٢"], "--terms"),
            ([*stability, "--add", "1_000"], "--add"),
            (["verify-counterexample", "--bound", "2.1e5", "--seed", "٧"], "--seed"),
            (["verify-counterexample", "--bound", "2_100_000"], "--bound"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"argument {option}" in err, (argv, err)
        assert run_json(capsys, "sumset", "--set", "squares", "--h", "1", "--bound", "1e1")[
            "result"
        ]["bound"] == 10
        assert run_json(capsys, *probe)["result"]["h"] == 3

    def test_non_ascii_digits(self, capsys):
        for argv, message in (
            (["sumset", "--set", "powers(٢)", "--h", "1", "--bound", "10"],
             "unexpected character '٢' (at offset 7)"),
            (["density", "--set", "squares", "--subseq", "١٠^k"], "cannot parse subsequence"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert message in err

    def test_huge_subseq_start(self, capsys):
        code, out, err = run_cli(
            capsys, "density", "--set", "squares", "--subseq", "10^k",
            "--start", "1000000", "--terms", "1",
        )
        assert code == 2
        assert out == ""
        assert "64-bit" in err

    def test_subseq_literal_past_int_digit_limit(self, capsys):
        # int() refuses a decimal literal of more than 4,300 digits with a
        # plain ValueError, which main would report as its own failure
        nines = "9" * 5000
        for subseq in (f"{nines}*k", f"{nines}^k", f"k+{nines}", f"2*10^k-{nines}"):
            for argv in (
                ["density", "--set", "squares", "--subseq", subseq, "--terms", "2"],
                ["probe", "--set", "squares", "--h", "3", "--subseq", subseq, "--terms", "2"],
                ["stability", "--set", "squares", "--h", "3", "--subseq", subseq,
                 "--terms", "2", "--bound", "100"],
            ):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, ""), (argv[0], subseq[-8:], err)
                assert "subsequence literal too long" in err

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


class TestOnePass:
    def test_matches_parse_args(self):
        # the one-pass parse against build_parser().parse_args: exit code,
        # stdout, stderr and parsed attributes, on the README's commands, the
        # argvs of this file, the bench's invalid inputs and the edge cases
        assert len(check_parse_parity.readme_argvs()) == 8
        assert len(check_parse_parity.cli_test_argvs()) > 50
        assert check_parse_parity.mismatches(check_parse_parity.corpus()) == []

    def test_one_parse_per_call(self, capsys, monkeypatch):
        # a valid call is parsed once, by its command's own parser
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in (
            ["verify-counterexample", "--bound", "21000", "--csv"],
            ["sumset", "--set", "squares", "--h", "2", "--bound", "100"],
            ["order", "--set", "squares", "--bound", "100", "--hmax", "4"],
            ["density", "--set", "squares", "--subseq", "10^k", "--terms", "2", "--plot-data"],
            ["stability", "--set", "counterexample", "--add", "3", "--h", "3",
             "--subseq", "2*10^k+1", "--terms", "2", "--bound", "2100"],
            ["probe", "--set", "squares", "--h", "4", "--subseq", "10^k", "--terms", "2"],
        ):
            calls.clear()
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert calls == [f"addbasis {argv[0]}"]

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        argv = ["addbasis", "sumset", "--set", "explicit{0}", "--h", "2", "--bound", "3"]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["result"]["gaps"] == [1, 2, 3]
        monkeypatch.setattr(sys, "argv", ["addbasis", "--help"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("usage: addbasis")


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


def _mismatch_message(report):
    with pytest.raises(ReportError) as raised:
        validate_report(report)
    return str(raised.value)


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

    # mismatches below the top level, each message pinned word for word
    @pytest.mark.parametrize(
        "golden, edit, message",
        [
            ("sumset-counterexample.json", lambda r: r["result"]["members"].__setitem__(3, -1),
             "report.result.members[3]: -1 is not natural"),
            ("sumset-counterexample.json", lambda r: r["result"]["members"].__setitem__(3, True),
             "report.result.members[3]: True is not natural"),
            ("order-squares.json", lambda r: r["result"]["scan"][1].__setitem__("first_gap", "x"),
             "report.result.scan[1].first_gap: 'x' is not natural or None"),
            ("verify-counterexample.json", lambda r: r["result"]["claims"][0].__setitem__("status", "MAYBE"),
             "report.result.claims[0].status: 'MAYBE' is not 'PASS' or 'FAIL'"),
            ("order-squares.json", lambda r: r["result"]["scan"][1].pop("covered"),
             "report.result.scan[1]: missing key 'covered'"),
            ("verify-counterexample.json", lambda r: r["result"]["claims"][0].pop("detail"),
             "report.result.claims[0]: missing key 'detail'"),
            ("order-squares.json", lambda r: r.__setitem__("timing_ms", -1.0),
             "report.timing_ms: -1.0 is not nonnegative number"),
            ("density-counterexample.json", lambda r: r["result"]["rows"][2].__setitem__("count", 1.0),
             "report.result.rows[2].count: 1.0 is not natural"),
            ("order-squares.json", lambda r: r["result"].__setitem__("scan", {}),
             "report.result.scan: {} is not an array"),
            ("order-squares.json", lambda r: r["result"].__setitem__("scan", [1]),
             "report.result.scan[0]: 1 is not an object"),
        ],
    )
    def test_nested_mismatch_messages(self, golden, edit, message):
        report = copy.deepcopy(GOLDEN_REPORTS[golden])
        edit(report)
        assert _mismatch_message(report) == message

    def test_first_mismatch_wins(self):
        # faults are reported in the report's key order (the golden's keys
        # are sorted) and, within an array, in item order
        report = copy.deepcopy(GOLDEN_REPORTS["order-squares.json"])
        report["result"]["upper"] = "four"
        report["result"]["scan"][3]["covered"] = 1
        report["result"]["scan"][2]["h"] = -2
        assert _mismatch_message(report) == "report.result.scan[2].h: -2 is not natural"
        report["result"]["scan"][2]["h"] = 3
        assert _mismatch_message(report) == "report.result.scan[3].covered: 1 is not bool"
        report["result"]["scan"][3]["covered"] = True
        assert _mismatch_message(report) == "report.result.upper: 'four' is not natural or None"

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


# JSON values as json.dumps takes them: string keys, tuples as arrays
JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028", "é", "\U0001f600"])
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**70, -(2**70), -0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


class TestCanonicalJson:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_bools_beside_ints(self):
        value = {"b": [True, 1, False, 0], "i": [1, 0, 2**70, -(2**70)], "t": (True,), "e": [[], {}, ()]}
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_leaf_subclasses(self):
        # reports hold only the exact leaf types (validate_report checks
        # ``type(value) is ...``), so a subclass is refused, though json.dumps
        # writes it
        class Text(str):
            pass

        for value in ({"e": [IntEnum("E", "A B")(2)]}, {"s": Text("q\n")}, [type("F", (float,), {})("-inf")]):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                canonical_json(value)

    def test_goldens_reencode(self):
        for path in sorted(GOLDEN.glob("*.json")):
            text = path.read_text()
            assert canonical_json(json.loads(text)) == text

    @pytest.mark.parametrize("value", [{1, 2}, b"x", Fraction(1, 2), {"a": [frozenset()]}])
    def test_unserializable_values_raise(self, value):
        with pytest.raises(TypeError) as ours:
            canonical_json(value)
        with pytest.raises(TypeError) as theirs:
            json.dumps(value, sort_keys=True, indent=2)
        assert str(ours.value) == str(theirs.value)


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


def reference_csv(report):
    """``report``'s rows as ``csv.writer`` writes them, built from the
    report's fields without ``report.rows_csv``."""
    result = report["result"]
    command = report["command"]

    def density(rows, *fold):
        return [[*fold, r["k"], r["n"], r["count"], r["ratio_decimal"]] for r in rows]

    if command == "density":
        rows = [["k", "n", "count", "ratio"], *density(result["rows"])]
    elif command == "probe":
        rows = [
            ["fold", "k", "n", "count", "ratio"],
            *density(result["h2_rows"], result["h2_fold"]),
            *density(result["h1_rows"], result["h1_fold"]),
        ]
    elif command == "stability":
        rows = [["k", "n", "in_sumset"]]
        rows += [[v["k"], v["n"], str(v["in_sumset"]).lower()] for v in result["verdicts"]]
    elif command == "order":
        # csv.writer writes None as an empty cell
        rows = [["h", "covered", "first_gap"]]
        rows += [[r["h"], str(r["covered"]).lower(), r["first_gap"]] for r in result["scan"]]
    elif command == "sumset":
        rows = [["kind", "n"]]
        rows += [["member", n] for n in result["members"]] + [["gap", n] for n in result["gaps"]]
    else:
        rows = [["claim", "status"], *([c["name"], c["status"]] for c in result["claims"])]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestRowViews:
    """``--csv`` and ``--plot-data`` against references built from the JSON
    report of the same command, byte for byte."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--set", "counterexample", "--subseq", "2*10^k+1", "--terms", "5"],
            ["probe", "--set", "squares", "--h", "4", "--subseq", "10^k", "--start", "2", "--terms", "3"],
            ["stability", "--set", "counterexample", "--add", "11,12,21", "--h", "3",
             "--subseq", "2*10^k+1", "--terms", "4", "--bound", "2.1e5"],
            ["order", "--set", "squares", "--bound", "100", "--hmax", "6"],
            ["sumset", "--set", "counterexample", "--h", "2", "--bound", "300", "--limit", "50"],
            ["verify-counterexample", "--bound", "21000"],
        ],
    )
    def test_csv_matches_csv_writer(self, capsys, argv):
        report = run_json(capsys, *argv)
        expected = reference_csv(report)
        assert rows_csv(report) == expected
        code, out, _ = run_cli(capsys, *argv, "--csv")
        assert (code, out) == (0, expected)

    def test_plot_data_density(self, capsys):
        argv = ["density", "--set", "counterexample", "--subseq", "2*10^k+1", "--terms", "5"]
        report = run_json(capsys, *argv)
        expected = "".join(f"{r['k']} {r['n']} {r['ratio_decimal']}\n" for r in report["result"]["rows"])
        assert plot_data_lines(report) == expected
        code, out, _ = run_cli(capsys, *argv, "--plot-data")
        assert (code, out) == (0, expected)
