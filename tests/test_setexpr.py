import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    BlockFamily,
    BoundCeilingError,
    Explicit,
    Interval,
    ParseError,
    Powers,
    SemanticError,
    Union,
    expr_runs,
    family_blocks,
    materialize,
    parse_set_expr,
    setexpr,
)
from reference import _iroot, contains, to_text
from strategies import set_exprs


class TestParse:
    def test_paperfamily(self):
        assert parse_set_expr("paperfamily(10,10,2,2)") == BlockFamily(10, 10, 2, 2)

    def test_explicit_singleton(self):
        assert parse_set_expr("explicit{0}") == Explicit((0,))

    def test_augmented_powers(self):
        assert parse_set_expr("powers(2) + {3}") == Union(Powers(2), Explicit((3,)))

    def test_aliases(self):
        assert parse_set_expr("counterexample") == COUNTEREXAMPLE
        assert parse_set_expr("squares") == Powers(2)
        assert parse_set_expr("cubes") == Powers(3)

    def test_union_left_associates(self):
        got = parse_set_expr("squares | cubes | explicit{5}")
        assert got == Union(Union(Powers(2), Powers(3)), Explicit((5,)))
        assert got.terms == (Powers(2), Powers(3), Explicit((5,)))

    def test_parenthesized_set(self):
        got = parse_set_expr("( squares | cubes ) + {7}")
        assert got.terms == (Powers(2), Powers(3), Explicit((7,)))

    def test_whitespace_insensitive(self):
        a = parse_set_expr(" interval [ 2 , 9 ] |  explicit { 1 , 4 } ")
        assert a == parse_set_expr("interval[2,9]|explicit{1,4}")

    def test_explicit_normalizes(self):
        assert parse_set_expr("explicit{4,1,4,1}") == Explicit((1, 4))

    def test_empty_explicit(self):
        assert parse_set_expr("explicit{}") == Explicit(())

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_set_expr("interval[5")
        assert exc.value.offset == 10
        with pytest.raises(ParseError) as exc:
            parse_set_expr("powers(2) @")
        assert exc.value.offset == 10

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_set_expr("primes")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_set_expr("squares cubes")

    def test_semantic_interval(self):
        with pytest.raises(SemanticError) as exc:
            parse_set_expr("interval[5,2]")
        assert exc.value.offset == 0

    def test_semantic_family_params(self):
        # mult*base + offset must stay within base**2
        with pytest.raises(SemanticError):
            parse_set_expr("paperfamily(10,10,20,2)")

    @given(set_exprs)
    def test_round_trip(self, expr):
        # set_exprs nests unions, and Union splices them into one
        terms = expr.terms if isinstance(expr, Union) else ()
        assert not any(isinstance(term, Union) for term in terms)
        assert parse_set_expr(to_text(expr)) == expr

    def test_right_nested_union_round_trips(self):
        expr = Union(Powers(2), Union(Powers(3), Explicit((1,))))
        assert parse_set_expr(to_text(expr)) == expr

    def test_nested_augment_round_trips(self):
        expr = Union(Union(Powers(2), Explicit((3,))), Explicit((5,)))
        assert parse_set_expr(to_text(expr)) == expr
        assert parse_set_expr("(powers(2) + {3}) + {5}") == expr


# (text, error type, message, offset) for malformed inputs, as the parser
# reports them; literals of more than 20 digits are left to TestLimits
PARSE_ERRORS = [
    ("", ParseError, "expected a set expression", 0),
    ("   ", ParseError, "expected a set expression", 3),
    ("primes", ParseError, "unknown set constructor 'primes'", 0),
    ("@", ParseError, "unexpected character '@'", 0),
    ("squares @", ParseError, "unexpected character '@'", 8),
    ("squares\t\n@", ParseError, "unexpected character '@'", 9),
    ("squares |  é", ParseError, "unexpected character 'é'", 11),
    ("powers(٢) | explicit{١٢}", ParseError, "unexpected character '٢'", 7),
    ("Squares", ParseError, "unexpected character 'S'", 0),
    ("squares cubes", ParseError, "unexpected trailing input 'cubes'", 8),
    ("squares | squares )", ParseError, "unexpected trailing input ')'", 18),
    # explicit
    ("explicit(1)", ParseError, "expected '{', found '('", 8),
    ("explicit{1 2}", ParseError, "expected punct, found '2'", 11),
    ("explicit{1,2", ParseError, "unexpected end of input", 12),
    ("explicit{1,2 | squares", ParseError, "expected '}', found '|'", 13),
    ("explicit", ParseError, "unexpected end of input", 8),
    ("explicit{", ParseError, "unexpected end of input", 9),
    ("explicit{1,", ParseError, "unexpected end of input", 11),
    ("explicit{1,}", ParseError, "expected int, found '}'", 11),
    ("explicit{,}", ParseError, "expected int, found ','", 9),
    # interval
    ("interval(1,2)", ParseError, "expected '[', found '('", 8),
    ("interval[1 2]", ParseError, "expected punct, found '2'", 11),
    ("interval[1]", ParseError, "expected ',', found ']'", 10),
    ("interval[1,2,3]", ParseError, "expected ']', found ','", 12),
    ("interval[,2]", ParseError, "expected int, found ','", 9),
    ("interval[1,2", ParseError, "unexpected end of input", 12),
    ("interval[1,2 | squares", ParseError, "expected ']', found '|'", 13),
    ("interval", ParseError, "unexpected end of input", 8),
    ("interval[", ParseError, "unexpected end of input", 9),
    ("interval[1,", ParseError, "unexpected end of input", 11),
    # powers
    ("powers[2]", ParseError, "expected '(', found '['", 6),
    ("powers()", ParseError, "expected int, found ')'", 7),
    ("powers(2,3)", ParseError, "expected ')', found ','", 8),
    ("powers(2 3)", ParseError, "expected punct, found '3'", 9),
    ("powers(2", ParseError, "unexpected end of input", 8),
    ("powers(2 | squares", ParseError, "expected ')', found '|'", 9),
    ("powers", ParseError, "unexpected end of input", 6),
    ("powers(", ParseError, "unexpected end of input", 7),
    # paperfamily
    ("paperfamily{10,10,2,2}", ParseError, "expected '(', found '{'", 11),
    ("paperfamily(10 10,2,2)", ParseError, "expected punct, found '10'", 15),
    ("paperfamily(10,10,2)", ParseError, "expected ',', found ')'", 19),
    ("paperfamily(10,10,2,2,2)", ParseError, "expected ')', found ','", 21),
    ("paperfamily(10,10,2,2]", ParseError, "expected ')', found ']'", 21),
    ("paperfamily(10,10,2,2", ParseError, "unexpected end of input", 21),
    ("paperfamily", ParseError, "unexpected end of input", 11),
    ("paperfamily(", ParseError, "unexpected end of input", 12),
    ("paperfamily(10,", ParseError, "unexpected end of input", 15),
    # augmentation
    ("squares +", ParseError, "unexpected end of input", 9),
    ("squares + 3", ParseError, "expected punct, found '3'", 10),
    ("squares + {}", ParseError, "expected int, found '}'", 11),
    ("squares + {1,}", ParseError, "expected int, found '}'", 13),
    ("squares + {1 2}", ParseError, "expected punct, found '2'", 13),
    ("squares + {1", ParseError, "unexpected end of input", 12),
    ("squares + {1} + {2}", ParseError, "unexpected trailing input '+'", 14),
    # parentheses and unions
    ("()", ParseError, "expected a set expression, found ')'", 1),
    ("(", ParseError, "expected a set expression", 1),
    ("(squares", ParseError, "unexpected end of input", 8),
    ("((squares)", ParseError, "unexpected end of input", 10),
    ("squares)", ParseError, "unexpected trailing input ')'", 7),
    ("(squares))", ParseError, "unexpected trailing input ')'", 9),
    ("( | squares)", ParseError, "expected a set expression, found '|'", 2),
    ("squares |", ParseError, "expected a set expression", 9),
    ("| squares", ParseError, "expected a set expression, found '|'", 0),
    ("squares ||cubes", ParseError, "expected a set expression, found '|'", 9),
    # semantic errors: at the atom, or at the "+" of an augmentation
    ("interval[5,2]", SemanticError, "interval requires lo <= hi, got [5,2]", 0),
    ("squares | interval[5,2]", SemanticError, "interval requires lo <= hi, got [5,2]", 10),
    (
        "paperfamily(10,10,20,2)",
        SemanticError,
        "family requires mult*base + offset <= base**2, got 20*10+2 > 10**2",
        0,
    ),
    ("paperfamily(2,10,2,2)", SemanticError, "family base must be >= 3, got 2", 0),
    ("paperfamily(10,0,2,2)", SemanticError, "family head_end must be >= 1, got 0", 0),
    ("paperfamily(10,10,0,2)", SemanticError, "family mult must be >= 1, got 0", 0),
    ("powers(0)", SemanticError, "powers exponent must be >= 1, got 0", 0),
    ("cubes | (squares | powers(0))", SemanticError, "powers exponent must be >= 1, got 0", 19),
    (
        "explicit{18446744073709551616}",
        SemanticError,
        "explicit element exceeds the 64-bit natural range: 18446744073709551616",
        0,
    ),
    (
        "interval[0,18446744073709551616]",
        SemanticError,
        "interval endpoint exceeds the 64-bit natural range: 18446744073709551616",
        0,
    ),
    (
        "(squares | cubes) + {18446744073709551616}",
        SemanticError,
        "explicit element exceeds the 64-bit natural range: 18446744073709551616",
        18,
    ),
]

# every character the grammar uses, plus whitespace
_NAMES = ["explicit", "interval", "powers", "paperfamily", "counterexample", "squares", "cubes"]
_grammar_texts = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(_NAMES + list("[]{}(),|+")),
            st.integers(0, 2**70).map(str),
            st.sampled_from([" ", "\t", "\n"]),
        ),
        max_size=24,
    ).map("".join),
    st.text(alphabet="".join(sorted(set("".join(_NAMES)))) + "0123456789[]{}(),|+ \t\n"),
)


class TestParseErrors:
    @pytest.mark.parametrize("text, kind, message, offset", PARSE_ERRORS)
    def test_error(self, text, kind, message, offset):
        with pytest.raises((ParseError, SemanticError)) as exc:
            parse_set_expr(text)
        assert (type(exc.value), exc.value.message, exc.value.offset) == (kind, message, offset)
        assert str(exc.value) == f"{message} (at offset {offset})"

    @given(_grammar_texts)
    def test_parses_or_raises_with_offset(self, text):
        try:
            expr = parse_set_expr(text)
        except (ParseError, SemanticError) as exc:
            assert 0 <= exc.offset <= len(text)
        else:
            assert parse_set_expr(to_text(expr)) == expr


class TestLimits:
    def test_nesting_up_to_the_limit(self):
        depth = setexpr.MAX_NESTING
        assert parse_set_expr("(" * depth + "squares" + ")" * depth) == Powers(2)

    @pytest.mark.parametrize("depth", [setexpr.MAX_NESTING + 1, 400, 5000])
    def test_nesting_past_the_limit(self, depth):
        text = "cubes | " + "(" * depth + "squares" + ")" * depth
        with pytest.raises(ParseError) as exc:
            parse_set_expr(text)
        limit = setexpr.MAX_NESTING
        assert exc.value.message == f"parentheses nest deeper than {limit}"
        assert exc.value.offset == len("cubes | ") + limit

    def test_union_of_any_length(self):
        expr = parse_set_expr(" | ".join(["squares"] * 5000) + " | explicit{2}")
        assert expr_runs(expr, 100) == expr_runs(Union(Powers(2), Explicit((2,))), 100)

    def test_deep_tree_built_directly(self):
        expr = Explicit((0,))
        for i in range(1, 5001):
            expr = Union(Explicit((2 * i,)), Union(expr, Explicit((2 * i + 1,))))
        assert len(expr.terms) == 10001
        assert expr_runs(expr, 10**6) == [(0, 0), (2, 10001)]

    def test_long_union_repr_hash_eq(self):
        text = " | ".join(["squares"] * 5000)
        a, b = parse_set_expr(text), parse_set_expr(text)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == f"Union(terms=({', '.join(['Powers(exponent=2)'] * 5000)}))"

    def test_deep_tree_repr_hash_eq(self):
        a = b = Explicit((0,))
        for i in range(1, 5001):
            a = Union(Explicit((i,)), a)
            b = Union(Explicit((i,)), b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    @pytest.mark.parametrize(
        "text, digits, offset",
        [
            ("explicit{" + "1" * 21 + "}", 21, 9),
            ("explicit{" + "0" * 20 + "1}", 21, 9),
            ("squares + {1," + "9" * 5000 + "}", 5000, 13),
            ("interval[0," + "9" * 4301 + "]", 4301, 11),
            ("powers(" + "9" * 30 + ")", 30, 7),
            ("paperfamily(10,10,2," + "9" * 21 + ")", 21, 20),
        ],
        ids=["explicit", "leading-zeros", "augment", "interval", "powers", "paperfamily"],
    )
    def test_literals_past_20_digits(self, text, digits, offset):
        with pytest.raises(SemanticError) as exc:
            parse_set_expr(text)
        message = f"integer literal of {digits} digits exceeds the 64-bit natural range"
        assert (exc.value.message, exc.value.offset) == (message, offset)

    @pytest.mark.parametrize(
        "text, what, offset",
        [
            ("powers(2) | powers(18446744073709551616)", "powers exponent", 12),
            ("paperfamily(18446744073709551616,10,2,2)", "family parameter", 0),
        ],
    )
    def test_parameters_past_64_bits(self, text, what, offset):
        with pytest.raises(SemanticError) as exc:
            parse_set_expr(text)
        message = f"{what} exceeds the 64-bit natural range: 18446744073709551616"
        assert (exc.value.message, exc.value.offset) == (message, offset)

    def test_integers_up_to_64_bits(self):
        top = 2**64 - 1
        assert parse_set_expr(f"powers({top})") == Powers(top)
        assert parse_set_expr(f"explicit{{{top}}} + {{{top}}}") == Union(Explicit((top,)), Explicit((top,)))
        assert parse_set_expr(f"paperfamily({top},{top},1,0)") == BlockFamily(top, top, 1, 0)
        with pytest.raises(SemanticError):
            Powers(2**64)
        with pytest.raises(SemanticError):
            BlockFamily(2**64, 10, 2, 2)

    @pytest.mark.parametrize("k", [2, 3, 5, 31, 32, 63, 64, 65, 1000])
    def test_powers_runs_match_integer_roots(self, k):
        bounds = [*range(10), 10**6, 2**31] + ([2**64 - 1] if k >= 5 else [])
        for bound in bounds:
            members = [i for lo, hi in expr_runs(Powers(k), bound) for i in range(lo, hi + 1)]
            assert members == [r**k for r in range(_iroot(bound, k) + 1)], bound

    def test_huge_exponent_stops_at_the_bound(self):
        # 2**k for a 64-bit k, or a 30-digit one, exhausts memory: run the
        # checks in a child under an address-space limit and a timeout, not
        # in this process
        script = (
            "from addbasis import Powers, expr_runs\n"
            "from addbasis.cli import main\n"
            "assert expr_runs(Powers(2**64 - 1), 2**64 - 1) == [(0, 1)]\n"
            "assert expr_runs(Powers(10**19), 10) == [(0, 1)]\n"
            "code = main(['sumset', '--set', 'powers(18446744073709551615)', '--h', '1', '--bound', '10'])\n"
            "assert code == 0, code\n"
            "code = main(['sumset', '--set', 'powers(' + '9' * 30 + ')', '--h', '1', '--bound', '10'])\n"
            "assert code == 2, code\n"
        )
        src = os.path.dirname(os.path.dirname(setexpr.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            ["bash", "-c", 'ulimit -v 2000000 && exec timeout 60 "$0" -c "$1"', sys.executable, script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"]["members"] == [0, 1]

class TestConstruction:
    def test_interval_invariant(self):
        with pytest.raises(SemanticError):
            Interval(4, 1)

    def test_negative_elements(self):
        with pytest.raises(SemanticError):
            Explicit((-1,))

    def test_union_needs_two_terms(self):
        for terms in ((), (Powers(2),)):
            with pytest.raises(SemanticError):
                Union(*terms)

    def test_family_defaults_are_counterexample(self):
        assert BlockFamily() == COUNTEREXAMPLE


class TestMaterialize:
    def test_counterexample_prefix(self):
        bits = materialize(COUNTEREXAMPLE, 25)
        assert bits.to_list() == list(range(0, 11)) + [22, 23, 24, 25]

    def test_squares_prefix(self):
        assert materialize(Powers(2), 10).to_list() == [0, 1, 4, 9]

    def test_empty_explicit(self):
        assert materialize(Explicit(()), 100).popcount() == 0

    def test_powers_one_is_full(self):
        # one run, not one big-integer OR per element
        assert materialize(Powers(1), 10**6).is_full()

    def test_longhand_blocks_at_1e4(self):
        longhand = (
            list(range(0, 11))
            + list(range(22, 101))
            + list(range(202, 1001))
            + list(range(2002, 10001))
        )
        assert materialize(COUNTEREXAMPLE, 10**4).to_list() == longhand

    def test_stable_rematerialization(self):
        a = materialize(COUNTEREXAMPLE, 3000)
        b = materialize(COUNTEREXAMPLE, 3000)
        assert a == b

    def test_ceiling_guard(self, monkeypatch):
        monkeypatch.setenv("ADDBASIS_MAX_BOUND", "1000")
        with pytest.raises(BoundCeilingError):
            materialize(Powers(2), 1001)
        materialize(Powers(2), 1000)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            materialize(Powers(2), -1)

    @given(set_exprs, set_exprs, st.integers(0, 600))
    def test_union_is_bitwise_or(self, a, b, bound):
        u = materialize(Union(a, b), bound)
        assert u.mask == materialize(a, bound).mask | materialize(b, bound).mask

    @given(set_exprs, st.lists(st.integers(0, 600), min_size=1, max_size=6), st.integers(0, 600))
    def test_augment_is_bitwise_or(self, a, extra, bound):
        aug = materialize(Union(a, Explicit(tuple(extra))), bound)
        expected = materialize(a, bound).mask
        for x in extra:
            if x <= bound:
                expected |= 1 << x
        assert aug.mask == expected


class TestExprRuns:
    def test_examples(self):
        assert expr_runs(COUNTEREXAMPLE, 25) == [(0, 10), (22, 25)]
        assert expr_runs(Powers(2), 10) == [(0, 1), (4, 4), (9, 9)]
        assert expr_runs(Powers(1), 7) == [(0, 7)]
        assert expr_runs(Explicit(()), 7) == []
        assert expr_runs(Interval(8, 9), 7) == []
        # overlapping and adjacent pieces merge
        expr = parse_set_expr("interval[0,5] | interval[3,9] | explicit{10,12} + {20}")
        assert expr_runs(expr, 15) == [(0, 10), (12, 12)]
        # the blocks [0,4], [5,16], [17,64] of this family touch
        assert expr_runs(BlockFamily(4, 4, 1, 1), 20) == [(0, 20)]

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            expr_runs(Powers(2), -1)

    @given(set_exprs, st.integers(0, 3000))
    def test_normalized_and_exact(self, expr, bound):
        runs = expr_runs(expr, bound)
        assert all(lo <= hi <= bound for lo, hi in runs)
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
        members = [i for lo, hi in runs for i in range(lo, hi + 1)]
        assert members == materialize(expr, bound).to_list()
        assert members == [n for n in range(bound + 1) if contains(expr, n)]


class TestContains:
    def test_counterexample_spots(self):
        assert not contains(COUNTEREXAMPLE, 21)
        assert contains(COUNTEREXAMPLE, 100)
        assert contains(Powers(3), 8)
        assert not contains(Powers(3), 9)
        assert not contains(COUNTEREXAMPLE, -3)

    @given(set_exprs)
    def test_agrees_with_materialize(self, expr):
        bound = 10**4
        bits = materialize(expr, bound)
        members = set(bits.members())
        for n in range(bound + 1):
            assert contains(expr, n) == (n in members)

    def test_large_block_membership(self):
        # far beyond any materialization window
        assert contains(COUNTEREXAMPLE, 10**15)
        assert not contains(COUNTEREXAMPLE, 2 * 10**15 + 1)


class TestFamilyBlocks:
    def test_block_examples(self):
        # a block is listed once its lower end is reached; ends are not clipped
        assert list(family_blocks(COUNTEREXAMPLE, 201)) == [(0, 10), (22, 100)]
        assert list(family_blocks(COUNTEREXAMPLE, 202))[-1] == (202, 1000)
        assert list(family_blocks(COUNTEREXAMPLE, -1)) == []

    def test_blocks_iterator(self):
        assert list(family_blocks(COUNTEREXAMPLE, 250)) == [
            (0, 10),
            (22, 100),
            (202, 1000),
        ]
