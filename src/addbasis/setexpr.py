"""Structured-set expressions over the naturals and their exact prefixes.

Expression grammar (ASCII, whitespace-insensitive)::

    set     := term ( "|" term )*                      union
    term    := atom ( "+" "{" intlist "}" )?           finite augmentation
    atom    := "explicit" "{" intlist? "}"
             | "interval" "[" int "," int "]"
             | "powers" "(" int ")"
             | "paperfamily" "(" int "," int "," int "," int ")"
             | "counterexample"       alias for paperfamily(10,10,2,2)
             | "squares" | "cubes"    aliases for powers(2), powers(3)
             | "(" set ")"
    intlist := int ( "," int )*

``paperfamily(b,c,m,s)`` denotes the union of a head block ``[0, c]`` with
geometrically growing blocks ``[m*b^(n-1)+s, b^n]`` for ``n >= 2``.  The
``counterexample`` alias is the instance whose three-fold sumset covers every
prefix we test while its counting-function density oscillates instead of
converging.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitset import PrefixBitset, runs_mask

U64_MAX = 2**64 - 1
DEFAULT_BOUND_CEILING = 2**31
MAX_BOUND_ENV = "ADDBASIS_MAX_BOUND"


class ParseError(ValueError):
    """Text that does not match the grammar; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class SemanticError(ValueError):
    """Well-formed syntax denoting an invalid set (e.g. interval lo > hi)."""

    def __init__(self, message: str, offset: int | None = None):
        text = message if offset is None else f"{message} (at offset {offset})"
        super().__init__(text)
        self.message = message
        self.offset = offset


class BoundCeilingError(ValueError):
    """Materialization bound above the configured memory ceiling."""


def bound_ceiling() -> int:
    """Largest allowed materialization bound; override via ADDBASIS_MAX_BOUND."""
    raw = os.environ.get(MAX_BOUND_ENV)
    if raw is None:
        return DEFAULT_BOUND_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_BOUND_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{MAX_BOUND_ENV} must be >= 0, got {value}")
    return value


def check_bound(bound: int) -> None:
    """Refuse a negative bound, or one above ``bound_ceiling()``: the memory
    guard for anything that allocates O(bound) space."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    ceiling = bound_ceiling()
    if bound > ceiling:
        raise BoundCeilingError(
            f"bound {bound} exceeds the configured ceiling {ceiling}; "
            f"set {MAX_BOUND_ENV} to raise it"
        )


def _check_naturals(items, what: str) -> tuple[int, ...]:
    for x in items:
        if x < 0:
            raise SemanticError(f"{what} must be nonnegative, got {x}")
        if x > U64_MAX:
            raise SemanticError(f"{what} exceeds the 64-bit natural range: {x}")
    return tuple(sorted(set(items)))


class SetExpr:
    """Base class for expression nodes; all nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Explicit(SetExpr):
    """A finite set given by listing its elements."""

    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "elements", _check_naturals(self.elements, "explicit element")
        )


@dataclass(frozen=True)
class Interval(SetExpr):
    """The integers in ``[lo, hi]``, inclusive on both ends."""

    lo: int
    hi: int

    def __post_init__(self):
        _check_naturals((self.lo, self.hi), "interval endpoint")
        if self.lo > self.hi:
            raise SemanticError(f"interval requires lo <= hi, got [{self.lo},{self.hi}]")


@dataclass(frozen=True)
class Powers(SetExpr):
    """The k-th powers ``{n^k : n in N}``."""

    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise SemanticError(f"powers exponent must be >= 1, got {self.exponent}")


@dataclass(frozen=True)
class BlockFamily(SetExpr):
    """Head block ``[0, head_end]`` plus blocks ``[mult*base^(n-1)+offset, base^n]``.

    The parameter constraint ``mult*base + offset <= base**2`` makes block 2
    nonempty and, by growth, every later block as well.
    """

    base: int = 10
    head_end: int = 10
    mult: int = 2
    offset: int = 2

    def __post_init__(self):
        if self.base < 3:
            raise SemanticError(f"family base must be >= 3, got {self.base}")
        if self.head_end < 1:
            raise SemanticError(f"family head_end must be >= 1, got {self.head_end}")
        if self.mult < 1:
            raise SemanticError(f"family mult must be >= 1, got {self.mult}")
        if self.offset < 0:
            raise SemanticError(f"family offset must be >= 0, got {self.offset}")
        if self.mult * self.base + self.offset > self.base * self.base:
            raise SemanticError(
                "family requires mult*base + offset <= base**2, got "
                f"{self.mult}*{self.base}+{self.offset} > {self.base}**2"
            )


@dataclass(frozen=True)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class Augment(SetExpr):
    """A set together with finitely many extra elements."""

    base: SetExpr
    extra: tuple[int, ...]

    def __post_init__(self):
        extra = _check_naturals(self.extra, "augmentation element")
        if not extra:
            raise SemanticError("augmentation requires at least one element")
        object.__setattr__(self, "extra", extra)


COUNTEREXAMPLE = BlockFamily(10, 10, 2, 2)
SQUARES = Powers(2)
CUBES = Powers(3)


def family_blocks(params: BlockFamily, upto: int) -> Iterator[tuple[int, int]]:
    """Blocks ``(lo, hi)`` with ``lo <= upto``, in index order (ends unclipped)."""
    if upto < 0:
        return
    yield 0, params.head_end
    n = 2
    while True:
        lo = params.mult * params.base ** (n - 1) + params.offset
        if lo > upto:
            return
        yield lo, params.base**n
        n += 1


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[a-z]+)|(?P<int>\d+)|(?P<punct>[][|+{}(),]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect_kind: str | None = None, expect_text: str | None = None):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, text, offset = tok
        if expect_kind is not None and kind != expect_kind:
            raise ParseError(f"expected {expect_kind}, found {text!r}", offset)
        if expect_text is not None and text != expect_text:
            raise ParseError(f"expected {expect_text!r}, found {text!r}", offset)
        self.pos += 1
        return tok

    def _build(self, offset: int, ctor, *args) -> SetExpr:
        try:
            return ctor(*args)
        except SemanticError as exc:
            raise SemanticError(exc.message, offset) from None

    def parse(self) -> SetExpr:
        node = self._set()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def _set(self) -> SetExpr:
        node = self._term()
        while (tok := self._peek()) is not None and tok[1] == "|":
            self._next()
            node = Union(node, self._term())
        return node

    def _term(self) -> SetExpr:
        node = self._atom()
        tok = self._peek()
        if tok is not None and tok[1] == "+":
            offset = tok[2]
            self._next()
            self._next("punct", "{")
            items = self._intlist()
            self._next("punct", "}")
            node = self._build(offset, Augment, node, tuple(items))
        return node

    def _intlist(self, allow_empty: bool = False) -> list[int]:
        items = []
        tok = self._peek()
        if allow_empty and tok is not None and tok[1] == "}":
            return items
        items.append(int(self._next("int")[1]))
        while (tok := self._peek()) is not None and tok[1] == ",":
            self._next()
            items.append(int(self._next("int")[1]))
        return items

    def _int(self) -> int:
        return int(self._next("int")[1])

    def _atom(self) -> SetExpr:
        tok = self._peek()
        if tok is None:
            raise ParseError("expected a set expression", len(self.text))
        kind, text, offset = tok
        if kind == "punct" and text == "(":
            self._next()
            node = self._set()
            self._next("punct", ")")
            return node
        if kind != "name":
            raise ParseError(f"expected a set expression, found {text!r}", offset)
        self._next()
        if text == "explicit":
            self._next("punct", "{")
            items = self._intlist(allow_empty=True)
            self._next("punct", "}")
            return self._build(offset, Explicit, tuple(items))
        if text == "interval":
            self._next("punct", "[")
            lo = self._int()
            self._next("punct", ",")
            hi = self._int()
            self._next("punct", "]")
            return self._build(offset, Interval, lo, hi)
        if text == "powers":
            self._next("punct", "(")
            k = self._int()
            self._next("punct", ")")
            return self._build(offset, Powers, k)
        if text == "paperfamily":
            self._next("punct", "(")
            params = [self._int()]
            for _ in range(3):
                self._next("punct", ",")
                params.append(self._int())
            self._next("punct", ")")
            return self._build(offset, BlockFamily, *params)
        if text == "counterexample":
            return COUNTEREXAMPLE
        if text == "squares":
            return SQUARES
        if text == "cubes":
            return CUBES
        raise ParseError(f"unknown set constructor {text!r}", offset)


def parse_set_expr(text: str) -> SetExpr:
    """Parse an expression; raises ParseError / SemanticError with offsets."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation


def merge_runs(runs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Runs ``(lo, hi)`` given in ascending ``lo`` order, merged where they
    overlap or touch: the same integers as sorted, non-adjacent runs."""
    out: list[tuple[int, int]] = []
    for lo, hi in runs:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _clipped_runs(expr: SetExpr, bound: int) -> Iterator[tuple[int, int]]:
    # runs of the set within [0, bound], unsorted and possibly overlapping
    if isinstance(expr, Explicit):
        yield from ((x, x) for x in expr.elements if x <= bound)
    elif isinstance(expr, Interval):
        if expr.lo <= bound:
            yield expr.lo, min(expr.hi, bound)
    elif isinstance(expr, Powers):
        if expr.exponent == 1:
            yield 0, bound
            return
        n = 0
        while (v := n**expr.exponent) <= bound:
            yield v, v
            n += 1
    elif isinstance(expr, BlockFamily):
        for lo, hi in family_blocks(expr, bound):
            yield lo, min(hi, bound)
    elif isinstance(expr, Union):
        yield from _clipped_runs(expr.left, bound)
        yield from _clipped_runs(expr.right, bound)
    elif isinstance(expr, Augment):
        yield from _clipped_runs(expr.base, bound)
        yield from ((x, x) for x in expr.extra if x <= bound)
    else:
        raise TypeError(f"not a SetExpr: {expr!r}")


def expr_runs(expr: SetExpr, bound: int) -> list[tuple[int, int]]:
    """Exact prefix of the denoted set over ``[0, bound]`` as normalized runs.

    Each element of a set of powers is a point run, except that ``powers(1)``
    is the single run ``[0, bound]``.  No memory ceiling applies: the cost is
    in the number of runs, not in the bound.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return merge_runs(sorted(_clipped_runs(expr, bound)))


def materialize(expr: SetExpr, bound: int) -> PrefixBitset:
    """Exact prefix of the denoted set over ``[0, bound]``.

    The mask is filled from ``expr_runs`` in O(bound/8 + runs).
    Deterministic: materializing twice yields identical bit vectors.
    """
    check_bound(bound)
    return PrefixBitset(bound, runs_mask(expr_runs(expr, bound), bound))
