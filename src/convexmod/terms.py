"""A small term language for convex sets of weightings.

Grammar, with ``|`` loosest, ``+`` in the middle, ``.`` tightest:

    term   := sum ('|' sum)*
    sum    := scaled ('+' scaled)*
    scaled := scalar '.' scaled | atom
    atom   := 'bot' | '0' | ident | '(' term ')'

Identifiers match [a-zA-Z][a-zA-Z0-9_]* and must not be the keyword
``bot``.  Scalars are nonnegative rationals written ``p`` or ``p/q``;
over nat they must reduce to whole numbers, over bool to 0 or 1.
Parentheses nest at most ``MAX_NESTING`` deep; sums, joins and scalar
prefixes may be arbitrarily long.  Evaluation, printing and variable
collection share one post-order walk (``_postorder``) over an explicit
stack, with no recursion.

A term denotes a convex set of weightings over its declared variables:
a variable denotes the point set of its own unit weighting, ``0`` the
zero point, ``bot`` the empty set, ``.`` scaling, ``+`` the Minkowski
sum, ``|`` the hull of the union.  Scaling by zero gives the zero
point whatever the subterm denotes, including ``bot``.

Two terms are equal exactly when their denotations over the declared
variables coincide: evaluation lands in the free algebra on the
variables, and any other assignment factors through it, so no
per-assignment quantification is needed.

Rendering turns one-variable sets into closed intervals and
two-variable sets into vertex lists ordered counterclockwise from the
lexicographically least vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .composite import pc_unit
from .convex import (
    ConvexSet,
    cs_add,
    cs_empty,
    cs_equal,
    cs_join_all,
    cs_scale,
    cs_zero,
)
from .errors import (
    ConvexmodError,
    DimensionMismatchError,
    ParseError,
    UnmappedSymbolError,
)
from .semiring import HULL_EXACT_LP, Scalar, Semiring, check_digit_runs


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Term):
    __slots__ = ()


@dataclass(frozen=True)
class Zero(Term):
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Scale(Term):
    scalar: Scalar
    body: Term


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


BOT = Bot()
ZERO = Zero()

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<punct>[.+|()]))")

_KEYWORDS = {"bot"}

# The parser recurses once per parenthesis level (four frames each).
MAX_NESTING = 100


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
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            word = m.group("ident")
            kind = "bot" if word in _KEYWORDS else "ident"
            tokens.append((kind, word, m.start("ident")))
        else:
            tokens.append((m.group("punct"), m.group("punct"),
                           m.start("punct")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_scalar(sr: Semiring, text: str, at: int) -> Scalar:
    """The literal ``p`` or ``p/q`` as a scalar of the semiring; whole
    values reach ``sr.validate`` as ints."""
    try:
        check_digit_runs(text)
    except ConvexmodError as exc:
        raise ParseError(str(exc), at) from None
    try:
        value = Fraction(text)
        return sr.validate(
            value.numerator if value.denominator == 1 else value)
    except (ZeroDivisionError, ConvexmodError):
        raise ParseError(f"bad scalar for {sr.id}: {text}", at) from None


class _Parser:
    def __init__(self, text: str, sr: Semiring):
        self.sr = sr
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def parse(self) -> Term:
        t = self.term()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return t

    def term(self) -> Term:
        t = self.sum()
        while self.peek()[0] == "|":
            self.advance()
            t = Join(t, self.sum())
        return t

    def sum(self) -> Term:
        t = self.scaled()
        while self.peek()[0] == "+":
            self.advance()
            t = Add(t, self.scaled())
        return t

    def scaled(self) -> Term:
        scalars = []
        while True:
            kind, text, at = self.peek()
            if kind != "number" or self.tokens[self.i + 1][0] != ".":
                break
            self.advance()
            self.advance()
            scalars.append(_parse_scalar(self.sr, text, at))
        t = self.atom()
        for scalar in reversed(scalars):
            t = Scale(scalar, t)
        return t

    def atom(self) -> Term:
        kind, text, at = self.advance()
        if kind == "bot":
            return BOT
        if kind == "number":
            if text == "0":
                return ZERO
            raise ParseError(
                f"number {text!r} must be a scalar followed by '.'", at)
        if kind == "ident":
            return Var(text)
        if kind == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", at)
            self.nesting += 1
            t = self.term()
            self.expect(")")
            self.nesting -= 1
            return t
        raise ParseError(f"expected a term, found {text or 'end of input'!r}",
                         at)


def parse(text: str, sr: Semiring) -> Term:
    """Parse one term; scalars are validated for the semiring."""
    return _Parser(text, sr).parse()


def _postorder(t: Term) -> Iterator[Term]:
    """Every node of ``t`` after its operands, operands left to right.

    The one walk over a term: an explicit stack, so term depth is
    bounded by memory, not by the interpreter's call stack.  A node
    that is not a term is refused when the walk reaches it."""
    # (node, True) once its operands have been yielded.
    todo: list[tuple[Term, bool]] = [(t, False)]
    while todo:
        node, ready = todo.pop()
        if ready or isinstance(node, (Bot, Zero, Var)):
            yield node
        elif isinstance(node, Scale):
            todo += [(node, True), (node.body, False)]
        elif isinstance(node, (Add, Join)):
            todo += [(node, True), (node.right, False), (node.left, False)]
        else:
            raise ConvexmodError(f"not a term: {node!r}")


def format_term(t: Term) -> str:
    """Minimal-parenthesis printer; reparsing reproduces the tree."""
    printed: list[str] = []
    for node in _postorder(t):
        if isinstance(node, Bot):
            printed.append("bot")
        elif isinstance(node, Zero):
            printed.append("0")
        elif isinstance(node, Var):
            printed.append(node.name)
        elif isinstance(node, Scale):
            inner = printed.pop()
            if isinstance(node.body, (Add, Join)):
                inner = f"({inner})"
            printed.append(f"{node.scalar}.{inner}")
        else:
            right = printed.pop()
            left = printed.pop()
            if isinstance(node, Add):
                if isinstance(node.left, Join):
                    left = f"({left})"
                if isinstance(node.right, (Add, Join)):
                    right = f"({right})"
                printed.append(f"{left} + {right}")
            else:
                if isinstance(node.right, Join):
                    right = f"({right})"
                printed.append(f"{left} | {right}")
    return printed.pop()


def free_variables(t: Term) -> tuple[str, ...]:
    """The names of the variables ``t`` mentions, sorted, each once.
    A node that is not a term is refused, as evaluation refuses it."""
    return tuple(sorted({node.name for node in _postorder(t)
                         if isinstance(node, Var)}))


def eval_term(t: Term, sr: Semiring,
              variables: Iterable[str]) -> ConvexSet:
    """Denotation over the declared variables: each variable stands for
    the point set of its own unit weighting."""
    declared = set(variables)
    values: list[ConvexSet] = []
    for node in _postorder(t):
        if isinstance(node, Bot):
            values.append(cs_empty(sr))
        elif isinstance(node, Zero):
            values.append(cs_zero(sr))
        elif isinstance(node, Var):
            if node.name not in declared:
                raise UnmappedSymbolError(
                    f"unbound variable {node.name!r}")
            values.append(pc_unit(sr, node.name))
        elif isinstance(node, Scale):
            values.append(cs_scale(node.scalar, values.pop()))
        else:
            pair = values.pop(-2), values.pop()
            values.append(cs_add(*pair) if isinstance(node, Add)
                          else cs_join_all(pair, sr))
    return values.pop()


def term_equal(t1: Term, t2: Term, sr: Semiring,
               variables: Iterable[str]) -> bool:
    """Semantic equality of denotations over a shared variable set."""
    declared = list(variables)
    return cs_equal(eval_term(t1, sr, declared),
                    eval_term(t2, sr, declared))


def synthesize_term(A: ConvexSet) -> Term:
    """A term whose denotation over the support variables is A: one
    weighted sum per generator, joined together."""
    if A.is_empty():
        return BOT
    one = A.semiring.one
    parts = []
    for g in A.generators:
        pieces = [Var(x) if g.value(x) == one else Scale(g.value(x), Var(x))
                  for x in g.support()]
        parts.append(reduce(Add, pieces) if pieces else ZERO)
    return reduce(Join, parts)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def check_declared(A: ConvexSet, variables: Sequence[str]) -> None:
    """Refuse a set whose generators mention a symbol outside
    ``variables``; the least such symbol is named."""
    stray = [x for x in A.support() if x not in variables]
    if stray:
        raise DimensionMismatchError(
            f"set mentions {stray[0]!r}, not a declared variable")


def _points(A: ConvexSet, variables: Sequence[str] | None, arity: int,
            kind: str) -> list[tuple[Fraction, ...]] | None:
    """The generators of a qplus set as sorted coordinate tuples over
    ``variables`` (by default the set's support), padded with zeros to
    ``arity`` coordinates; None for the empty set."""
    if A.semiring.hull_membership != HULL_EXACT_LP:
        raise ConvexmodError(f"{kind} rendering needs the qplus semiring")
    if A.is_empty():
        return None
    if variables is None:
        variables = A.support()
    else:
        check_declared(A, variables)
    if len(variables) > arity:
        raise DimensionMismatchError(
            f"need at most {arity} variables, set has {len(variables)}")
    pad = (Fraction(0),) * (arity - len(variables))
    return sorted(tuple(Fraction(g.value(x)) for x in variables) + pad
                  for g in A.generators)


def render_interval(A: ConvexSet, variables: Sequence[str] | None = None
                    ) -> tuple[Fraction, Fraction] | None:
    """Endpoints of a one-variable set: the min and max coordinate over
    the canonical generators, the zero weighting counting as 0.  The
    empty set renders as None.  Endpoints describe the set only when
    its hull is the rational convex hull, decided by exact LP."""
    pts = _points(A, variables, 1, "interval")
    return None if pts is None else (pts[0][0], pts[-1][0])


def render_polygon(A: ConvexSet, variables: Sequence[str] | None = None
                   ) -> list[tuple[Fraction, Fraction]] | None:
    """Vertices of a two-variable set: the canonical generators as
    coordinate pairs, counterclockwise from the lexicographically least
    vertex.  The generators are in convex position, so that order is
    the sorted points on or below the line from the least point to the
    greatest, then the ones above it in descending order.  None for the
    empty set."""
    pts = _points(A, variables, 2, "polygon")
    if pts is None:
        return None
    (x0, y0), (x1, y1) = pts[0], pts[-1]

    def above(p):
        return (x1 - x0) * (p[1] - y0) > (y1 - y0) * (p[0] - x0)

    return ([p for p in pts if not above(p)]
            + [p for p in reversed(pts) if above(p)])


# ---------------------------------------------------------------------------
# term files
# ---------------------------------------------------------------------------

def parse_term_lines(text: str, sr: Semiring
                     ) -> list[tuple[int, Term]]:
    """Terms from a text blob: one per line, '#' starts a comment,
    blank lines skipped.  Returns (line number, term) pairs."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append((lineno, parse(line, sr)))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position)
    return out


def load_term_file(path: str, sr: Semiring) -> list[tuple[int, Term]]:
    with open(path, encoding="utf-8") as fh:
        return parse_term_lines(fh.read(), sr)
