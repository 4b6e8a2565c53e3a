import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis import (
    COUNTEREXAMPLE,
    Augment,
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
)
from reference import contains, to_text
from strategies import set_exprs


class TestParse:
    def test_paperfamily(self):
        assert parse_set_expr("paperfamily(10,10,2,2)") == BlockFamily(10, 10, 2, 2)

    def test_explicit_singleton(self):
        assert parse_set_expr("explicit{0}") == Explicit((0,))

    def test_augmented_powers(self):
        assert parse_set_expr("powers(2) + {3}") == Augment(Powers(2), (3,))

    def test_aliases(self):
        assert parse_set_expr("counterexample") == COUNTEREXAMPLE
        assert parse_set_expr("squares") == Powers(2)
        assert parse_set_expr("cubes") == Powers(3)

    def test_union_left_associates(self):
        got = parse_set_expr("squares | cubes | explicit{5}")
        assert got == Union(Union(Powers(2), Powers(3)), Explicit((5,)))

    def test_parenthesized_set(self):
        got = parse_set_expr("( squares | cubes ) + {7}")
        assert got == Augment(Union(Powers(2), Powers(3)), (7,))

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
        assert parse_set_expr(to_text(expr)) == expr

    def test_right_nested_union_round_trips(self):
        expr = Union(Powers(2), Union(Powers(3), Explicit((1,))))
        assert parse_set_expr(to_text(expr)) == expr

    def test_nested_augment_round_trips(self):
        expr = Augment(Augment(Powers(2), (3,)), (5,))
        assert parse_set_expr(to_text(expr)) == expr


class TestConstruction:
    def test_interval_invariant(self):
        with pytest.raises(SemanticError):
            Interval(4, 1)

    def test_negative_elements(self):
        with pytest.raises(SemanticError):
            Explicit((-1,))

    def test_augment_needs_elements(self):
        with pytest.raises(SemanticError):
            Augment(Powers(2), ())

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
        aug = materialize(Augment(a, tuple(extra)), bound)
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
