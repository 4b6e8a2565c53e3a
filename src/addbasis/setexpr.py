"""Structured-set expressions over the naturals and their exact prefixes.

Expression grammar (ASCII, whitespace-insensitive)::

    set     := term ( "|" term )*                      union
    term    := atom ( "+" "{" intlist "}" )?           atom | explicit{intlist}
    atom    := "explicit" "{" intlist? "}"
             | "interval" "[" int "," int "]"
             | "powers" "(" int ")"
             | "paperfamily" "(" int "," int "," int "," int ")"
             | "counterexample"       alias for paperfamily(10,10,2,2)
             | "squares" | "cubes"    aliases for powers(2), powers(3)
             | "(" set ")"
    intlist := int ( "," int )*

The parser reads the bracketed constructors from one table, ``_ATOMS``.
Integers lie in ``[0, 2^64 - 1]``, parentheses nest at most ``MAX_NESTING``
deep, and a union may have any number of terms.  Every expression is one
atom or one flat ``Union`` of atoms: ``Union`` splices in the terms of any
union it is given, so a finite augmentation ``A ∪ F`` is
``Union(A, Explicit(F))``.

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

from .bitset import PrefixBitset, mask_size, runs_bytes

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
    """Well-formed input that is refused: syntax denoting an invalid set (e.g.
    interval lo > hi), or an argument outside what a command accepts."""

    def __init__(self, message: str, offset: int | None = None):
        text = message if offset is None else f"{message} (at offset {offset})"
        super().__init__(text)
        self.message = message
        self.offset = offset


class BoundCeilingError(ValueError):
    """Materialization bound above the configured memory ceiling, or a
    ceiling setting that is not a natural number in ASCII digits."""


def bound_ceiling() -> int:
    """Largest allowed materialization bound; override via ADDBASIS_MAX_BOUND."""
    raw = os.environ.get(MAX_BOUND_ENV)
    if raw is None:
        return DEFAULT_BOUND_CEILING
    # in ASCII digits alone, as the numeric options are written
    if not (raw.isascii() and raw.isdigit()):
        raise BoundCeilingError(f"{MAX_BOUND_ENV} must be an integer in ASCII digits, got {raw!r}")
    return int(raw)


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
        _check_naturals((self.exponent,), "powers exponent")


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
        _check_naturals((self.base, self.head_end, self.mult, self.offset), "family parameter")


@dataclass(frozen=True, init=False)
class Union(SetExpr):
    """The union of two or more atoms; a union among the terms is spliced
    in, so no union holds another."""

    terms: tuple[SetExpr, ...]

    def __init__(self, *terms: SetExpr):
        flat: list[SetExpr] = []
        for term in terms:
            if isinstance(term, Union):
                flat += term.terms
            else:
                flat.append(term)
        if len(flat) < 2:
            raise SemanticError(f"a union needs at least two terms, got {len(flat)}")
        object.__setattr__(self, "terms", tuple(flat))


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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[a-z]+)|(?P<int>\d+)|(?P<punct>[][|+{}(),])|(?P<bad>\S))", re.ASCII
)
# deepest parenthesized "(" set ")"; each level costs three parser frames
MAX_NESTING = 100

# constructor name -> (node type, opening bracket, integer count or None for
# a possibly empty list passed as one tuple, closing bracket)
_ATOMS = {
    "explicit": (Explicit, "{", None, "}"),
    "interval": (Interval, "[", 2, "]"),
    "powers": (Powers, "(", 1, ")"),
    "paperfamily": (BlockFamily, "(", 4, ")"),
}
_ALIASES = {"counterexample": COUNTEREXAMPLE, "squares": SQUARES, "cubes": CUBES}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _at(self, text: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][1] == text

    def _next(self, expect_kind: str | None = None, expect_text: str | None = None):
        if self.pos == len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = kind, text, offset = self.tokens[self.pos]
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
        if self.pos < len(self.tokens):
            _, text, offset = self.tokens[self.pos]
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def _set(self) -> SetExpr:
        terms = [self._term()]
        while self._at("|"):
            self._next()
            terms.append(self._term())
        return Union(*terms) if len(terms) > 1 else terms[0]

    def _term(self) -> SetExpr:
        node = self._atom()
        if self._at("+"):
            offset = self._next()[2]
            self._next("punct", "{")
            items = self._ints()
            self._next("punct", "}")
            node = Union(node, self._build(offset, Explicit, items))
        return node

    def _ints(self, count: int | None = None) -> tuple[int, ...]:
        """``count`` comma-separated integers, or one or more if None."""
        items = []
        while True:
            _, text, offset = self._next("int")
            if len(text) > 20:  # 2^64 - 1 has 20 digits
                raise SemanticError(
                    f"integer literal of {len(text)} digits exceeds the 64-bit natural range",
                    offset,
                )
            items.append(int(text))
            if len(items) == count or (count is None and not self._at(",")):
                return tuple(items)
            self._next("punct", ",")

    def _atom(self) -> SetExpr:
        if self.pos == len(self.tokens):
            raise ParseError("expected a set expression", len(self.text))
        kind, text, offset = self._next()
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", offset)
            self.depth += 1
            node = self._set()
            self.depth -= 1
            self._next("punct", ")")
            return node
        if kind != "name":
            raise ParseError(f"expected a set expression, found {text!r}", offset)
        if text in _ALIASES:
            return _ALIASES[text]
        if text not in _ATOMS:
            raise ParseError(f"unknown set constructor {text!r}", offset)
        ctor, opening, count, closing = _ATOMS[text]
        self._next("punct", opening)
        if count:
            args = self._ints(count)
        else:  # explicit's list, possibly empty, is one argument
            args = (() if self._at(closing) else self._ints(),)
        self._next("punct", closing)
        return self._build(offset, ctor, *args)


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
    # runs of the set within [0, bound], unsorted and possibly overlapping;
    # a union's terms are all atoms, so one loop covers any expression
    for atom in expr.terms if isinstance(expr, Union) else (expr,):
        if isinstance(atom, Explicit):
            yield from ((x, x) for x in atom.elements if x <= bound)
        elif isinstance(atom, Interval):
            if atom.lo <= bound:
                yield atom.lo, min(atom.hi, bound)
        elif isinstance(atom, Powers):
            k = atom.exponent
            if k == 1:
                yield 0, bound
                continue
            # n^k >= 2^((bits(n)-1)*k) > bound: stop before raising n to a huge k
            n = 0
            while (n.bit_length() - 1) * k < bound.bit_length() and (v := n**k) <= bound:
                yield v, v
                n += 1
        elif isinstance(atom, BlockFamily):
            for lo, hi in family_blocks(atom, bound):
                yield lo, min(hi, bound)
        else:
            raise TypeError(f"not a SetExpr: {atom!r}")


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

    The mask bytes are filled from ``expr_runs`` in O(bound/8 + runs).
    Deterministic: materializing twice yields identical bit vectors.
    """
    check_bound(bound)
    runs = expr_runs(expr, bound)
    count = sum(hi - lo + 1 for lo, hi in runs)
    return PrefixBitset.from_bytes(bound, runs_bytes(runs, mask_size(bound)), count)
