"""Hypothesis strategies for random small set expressions."""

from hypothesis import strategies as st

from addbasis import BlockFamily, Explicit, Interval, Powers, Union

explicit_exprs = st.lists(st.integers(0, 300), max_size=20).map(
    lambda xs: Explicit(tuple(xs))
)

interval_exprs = st.tuples(st.integers(0, 300), st.integers(0, 60)).map(
    lambda t: Interval(t[0], t[0] + t[1])
)

powers_exprs = st.integers(2, 5).map(Powers)


@st.composite
def family_exprs(draw):
    base = draw(st.integers(4, 12))
    head = draw(st.integers(1, 12))
    mult = draw(st.integers(1, 3))
    offset = draw(st.integers(0, min(6, base * base - mult * base)))
    return BlockFamily(base, head, mult, offset)


atoms = st.one_of(explicit_exprs, interval_exprs, powers_exprs, family_exprs())

set_exprs = st.recursive(
    atoms,
    lambda children: st.lists(children, min_size=2, max_size=3).map(lambda t: Union(*t)),
    max_leaves=4,
)
