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
prefixes may be arbitrarily long.  Nothing recurses over a term: the
parser reads the tokens of one regex pass in a precedence loop, with
one frame per open parenthesis, and evaluation, printing and variable
collection share one post-order walk (``_postorder``) over an explicit
stack.  Evaluation computes each distinct subterm once (hash-consing;
Filliâtre and Conchon, "Type-safe modular hash-consing", ML Workshop
2006): the walk keys each node flat, by its kind, its name or scalar
and the small-int ids of its operands' values.  A key never holds a
term, whose dataclass hash would recurse through a deep term.  Callers
that pass one memo to several evaluations, as ``term_equal`` and the
command line's ``eq`` do for their two sides, share the subterms of
all of them.

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
from typing import Iterable, Iterator, NoReturn, Sequence

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

# One alternative per token kind, named by the kind; the last takes
# any other character but white space, which is refused.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)"
    r"|(?P<bot>bot(?![a-zA-Z0-9_]))"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<dot>\.)|(?P<plus>\+)|(?P<bar>\|)|(?P<open>\()|(?P<close>\))"
    r"|(?P<stray>\S))")

# Parentheses nest at most this deep.  The parser keeps one frame per
# open parenthesis on a list, not on the call stack, so any depth would
# do; the limit stays part of the language, pinned by
# ``test_nesting_limit_is_inclusive`` and the ``parens_2000`` error.
MAX_NESTING = 100


def _parse_scalar(sr: Semiring, token: re.Match) -> Scalar:
    """The number token ``p`` or ``p/q`` as a scalar of the semiring,
    read by ``int``; whole values reach ``sr.validate`` as ints."""
    text = token["number"]
    try:
        check_digit_runs(text)
    except ConvexmodError as exc:
        raise ParseError(str(exc), token.start("number")) from None
    p, _, q = text.partition("/")
    try:
        value = Fraction(int(p), int(q)) if q else int(p)
        return sr.validate(
            value.numerator if value.denominator == 1 else value)
    except (ZeroDivisionError, ConvexmodError):
        raise ParseError(f"bad scalar for {sr.id}: {text}",
                         token.start("number")) from None


def parse(text: str, sr: Semiring) -> Term:
    """Parse one term; scalars are validated for the semiring.

    One regex pass makes the tokens, and a stray character anywhere is
    refused before any other error.  A precedence loop then reads them
    left to right: an operand is its scalar prefixes and an atom, and
    each open parenthesis saves the enclosing term, sum and prefixes as
    one frame, restored at its close."""
    tokens = list(_TOKEN_RE.finditer(text))
    kinds = [m.lastgroup for m in tokens]
    kinds.append("end")

    def fail(message: str, i: int) -> NoReturn:
        # The token's text and start offset, read only here.
        if i == len(tokens):
            word, at = "", len(text)
        else:
            word, at = tokens[i][kinds[i]], tokens[i].start(kinds[i])
        raise ParseError(message.format(word=word or "end of input"), at)

    if "stray" in kinds:
        fail("unexpected character {word!r}", kinds.index("stray"))
    frames: list[tuple] = []
    join = add = None
    scalars: list = []
    i = 0
    while True:
        while kinds[i] == "number" and kinds[i + 1] == "dot":
            scalars.append(_parse_scalar(sr, tokens[i]))
            i += 2
        kind = kinds[i]
        if kind == "open":
            if len(frames) == MAX_NESTING:
                fail(f"parentheses nested deeper than {MAX_NESTING}", i)
            frames.append((join, add, scalars))
            join = add = None
            scalars = []
            i += 1
            continue
        if kind == "ident":
            t = Var(tokens[i]["ident"])
        elif kind == "bot":
            t = BOT
        elif kind == "number" and tokens[i]["number"] == "0":
            t = ZERO
        elif kind == "number":
            fail("number {word!r} must be a scalar followed by '.'", i)
        else:
            fail("expected a term, found {word!r}", i)
        i += 1
        # The operand t is complete: fold it in, then close every
        # parenthesis that ends here.
        while True:
            for scalar in reversed(scalars):
                t = Scale(scalar, t)
            add = t if add is None else Add(add, t)
            kind = kinds[i]
            if kind != "plus":
                join = add if join is None else Join(join, add)
                add = None
            if kind in ("plus", "bar"):
                break
            if not frames:
                if kind != "end":
                    fail("unexpected trailing {word!r}", i)
                return join
            if kind != "close":
                fail("expected ')', found {word!r}", i)
            t = join
            join, add, scalars = frames.pop()
            i += 1
        scalars = []
        i += 1


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


def eval_term(t: Term, sr: Semiring, variables: Iterable[str],
              memo: dict | None = None) -> ConvexSet:
    """Denotation over the declared variables: each variable stands for
    the point set of its own unit weighting.

    Each distinct subterm is computed once (see the module
    docstring): equal subterms get equal keys.  ``memo`` maps those
    keys to ``(id, value)``; a caller that passes one dict to several
    calls over the same semiring and variables shares their subterms
    too.  A variable is checked against ``variables`` on every call."""
    declared = set(variables)
    if memo is None:
        memo = {}
    done: list[tuple[int, ConvexSet]] = []
    for node in _postorder(t):
        if isinstance(node, (Add, Join)):
            (i, left), (j, right) = done.pop(-2), done.pop()
            key = (type(node), i, j)
        elif isinstance(node, Scale):
            i, body = done.pop()
            key = (Scale, node.scalar, i)
        elif isinstance(node, Var):
            if node.name not in declared:
                raise UnmappedSymbolError(
                    f"unbound variable {node.name!r}")
            key = (Var, node.name)
        else:
            key = (type(node),)
        entry = memo.get(key)
        if entry is None:
            if isinstance(node, Add):
                value = cs_add(left, right)
            elif isinstance(node, Join):
                value = cs_join_all((left, right), sr)
            elif isinstance(node, Scale):
                value = cs_scale(node.scalar, body)
            elif isinstance(node, Var):
                value = pc_unit(sr, node.name)
            elif isinstance(node, Zero):
                value = cs_zero(sr)
            else:
                value = cs_empty(sr)
            entry = memo[key] = (len(memo), value)
        done.append(entry)
    return done.pop()[1]


def term_equal(t1: Term, t2: Term, sr: Semiring,
               variables: Iterable[str]) -> bool:
    """Semantic equality of denotations over a shared variable set; the
    two sides share one memo, so a subterm of both is computed once."""
    declared = list(variables)
    memo: dict = {}
    return cs_equal(eval_term(t1, sr, declared, memo),
                    eval_term(t2, sr, declared, memo))


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
