"""Semiring handles: Bool, exact non-negative rationals, and naturals.

A semiring here is a carrier with an associative commutative addition
(unit ``zero``), an associative multiplication (unit ``one``) that
distributes over addition, and ``zero`` annihilating products.  The
three instances are

* ``bool``  - {0, 1} with join as addition and meet as multiplication,
* ``qplus`` - non-negative rationals in lowest terms (exact, no floats),
* ``nat``   - arbitrary-precision naturals.

``bool`` and ``qplus`` are positive semifields (nonzero elements are
invertible and a+b = 0 forces a = b = 0); ``nat`` is positive but not a
semifield and is kept around because its addition makes every subset of
a free semimodule convex, the regime in which the distributive law is
strong rather than weak.

Every decision elsewhere in the package that depends on the semiring
reads one of three facts from the handle instead of its id:
``is_semifield``, ``enumeration`` (how ``carrier`` lists the scalars)
and ``hull_membership`` (which algorithm decides hull membership;
``HULL_LOOKUP`` is property A, every subset already convex).  Every
operation that meets two values asks the handle's ``refuse_foreign``,
the one place a value over another semiring is refused.

Scalars are plain Python values: ints 0/1 for bool, ``fractions.Fraction``
for qplus, ints for nat.  All arithmetic is exact; nothing in this
package ever compares against a tolerance.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from typing import Any, Iterable, Iterator

from .errors import (
    ConvexmodError,
    NoDecisionProcedureError,
    NotInvertibleError,
    NotRefinementInstanceError,
    NotSemifieldError,
    SemiringMismatchError,
)
from .report import (
    FAIL,
    LawReport,
    MODE_BOUNDED,
    MODE_BY_THEOREM,
    MODE_EXHAUSTIVE,
    PASS,
    law_report,
)

Scalar = Any  # int for bool/nat, Fraction for qplus

# Hull-membership algorithms, named by ``Semiring.hull_membership``.
HULL_EXACT_LP = "exact_lp"      # rational convex hull: linear feasibility
HULL_JOIN_COVER = "join_cover"  # closure under binary joins of supports
HULL_LOOKUP = "lookup"          # every subset is convex: literal lookup

# ``Fraction`` reads "1e5000" by building 10**5000, before any check.
_EXPONENT = re.compile(r"[eE][-+]?\d")


def _digit_limit_error() -> ConvexmodError:
    return ConvexmodError("numerator or denominator longer than "
                          f"{sys.get_int_max_str_digits()} digits")


def check_digit_runs(text: str) -> None:
    """Reject a scalar literal with a run of digits longer than
    ``sys.get_int_max_str_digits()`` allows (0: no limit), before
    ``int`` or ``Fraction`` refuses to read it."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and any(
            len(run) > limit for run in re.findall(r"\d+", text)):
        raise _digit_limit_error()


class Semiring:
    """Handle bundling the operations and metadata of one instance.

    Handles are stateless singletons; compare them by ``id``.
    """

    id: str = ""
    declared_properties: frozenset[str] = frozenset()
    is_semifield: bool = False
    # How ``carrier`` lists the scalars: MODE_EXHAUSTIVE for a finite
    # carrier whose only nonzero value is one, MODE_BOUNDED for the
    # values up to a bound, None when there is no finite carrier.
    enumeration: str | None = None
    hull_membership: str = ""

    # -- arithmetic -----------------------------------------------------

    # Each instance sets these as class constants.
    zero: Scalar
    one: Scalar

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sum(self, values: Iterable[Scalar]) -> Scalar:
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def is_zero(self, a: Scalar) -> bool:
        """Whether ``a`` is the semiring zero.  Every carrier's zero,
        0 or Fraction(0), is its one falsy value, so truth decides, with
        no call to the scalar's ``__eq__``."""
        return not a

    # -- scalar validation / formatting ---------------------------------

    def validate(self, a: Scalar) -> Scalar:
        """Return the canonical internal form of ``a`` or raise."""
        raise NotImplementedError

    def refuse_foreign(self, what: str, *values: Any) -> None:
        """Refuse the first of ``values`` over another semiring.  Hot
        callers ask only for a value whose handle is not this one."""
        for value in values:
            if value.semiring.id != self.id:
                raise SemiringMismatchError(
                    f"{what} over {value.semiring.id} in a {self.id} set")

    def parse_scalar(self, text: str) -> Scalar:
        """Parse ``p`` or ``p/q`` (qplus/nat) or ``0``/``1`` (bool)."""
        raise NotImplementedError

    def format_scalar(self, a: Scalar) -> str:
        return str(a)

    def scalar_to_json(self, a: Scalar) -> Any:
        """JSON value per the wire format: "p/q" | int | bool."""
        raise NotImplementedError

    def scalar_from_json(self, value: Any) -> Scalar:
        """A JSON int or string literal; a bool or a float is refused."""
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return self.validate(value)
        raise ConvexmodError(f"invalid {self.id} scalar in JSON: {value!r}")

    # -- finite enumeration (decision procedures) ------------------------

    def carrier(self, bound: int | None) -> list[Scalar]:
        """The finite (sub)carrier used by brute-force property checks."""
        raise NoDecisionProcedureError(
            f"no decision procedure: semiring {self.id} has no finite carrier"
        )

    def __repr__(self) -> str:
        return f"Semiring({self.id})"


class _BoolSemiring(Semiring):
    id = "bool"
    is_semifield = True
    enumeration = MODE_EXHAUSTIVE
    hull_membership = HULL_JOIN_COVER
    # A fails (1+1=1) and C fails (1+1 = 1+0); everything else holds and
    # is confirmed exhaustively by check_property.
    declared_properties = frozenset(
        {"positive", "semifield", "refinable", "B", "D", "E"})
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a | b

    def mul(self, a: int, b: int) -> int:
        return a & b

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise NotInvertibleError("not invertible: division by zero")
        return a

    def validate(self, a: Scalar) -> int:
        if isinstance(a, bool):
            return int(a)
        if isinstance(a, int) and a in (0, 1):
            return a
        raise ConvexmodError(f"invalid bool scalar: {a!r}")

    def parse_scalar(self, text: str) -> int:
        t = text.strip()
        if t in ("0", "false"):
            return 0
        if t in ("1", "true"):
            return 1
        raise ConvexmodError(f"invalid bool scalar literal: {text!r}")

    def scalar_to_json(self, a: int) -> bool:
        return bool(a)

    def scalar_from_json(self, value: Any) -> int:
        """``true``, ``false``, 0, 1 or a string literal."""
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, int) and value in (0, 1):  # bools are ints
            return int(value)
        raise ConvexmodError(f"invalid bool scalar in JSON: {value!r}")

    def carrier(self, bound: int | None) -> list[int]:
        return [0, 1]


class _QplusSemiring(Semiring):
    id = "qplus"
    is_semifield = True
    hull_membership = HULL_EXACT_LP
    declared_properties = frozenset(
        {"positive", "semifield", "refinable", "B", "E"})
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise NotInvertibleError("not invertible: division by zero")
        return a / b

    def validate(self, a: Scalar) -> Fraction:
        if not isinstance(a, Fraction):
            if isinstance(a, bool) or not isinstance(a, int):
                raise ConvexmodError(f"invalid qplus scalar: {a!r}")
            a = Fraction(a)
        if a.numerator < 0:
            raise ConvexmodError(f"qplus scalar must be non-negative: {a}")
        return a

    def parse_scalar(self, text: str) -> Fraction:
        t = text.strip()
        p, slash, q = t.partition("/")
        if (t.isascii() and p.isdigit()
                and (not slash or q.isdigit())):
            # Plain ASCII digits: p or p/q, read by two int calls.
            check_digit_runs(t)
            denominator = int(q) if slash else 1
            if not denominator:
                raise ConvexmodError(f"invalid rational literal: {text!r}")
            return Fraction(int(p), denominator)
        if _EXPONENT.search(t):
            raise ConvexmodError(
                f"exponent notation is not accepted: {text!r}")
        check_digit_runs(t)
        try:
            value = Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConvexmodError(f"invalid rational literal: {text!r}") from exc
        if value < 0:
            raise ConvexmodError(f"rational must be non-negative: {text!r}")
        # A decimal joins both digit runs into its numerator and puts
        # a power of ten in its denominator; at most 3 * limit bits
        # always fit.
        limit = sys.get_int_max_str_digits()
        big = max(value.numerator, value.denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise _digit_limit_error()
        return value

    def format_scalar(self, a: Fraction) -> str:
        try:
            return str(a)  # Fraction prints p/q, or p when q == 1
        except ValueError:  # past the int-string limit
            raise ConvexmodError(
                "a result's numerator or denominator is longer than "
                f"{sys.get_int_max_str_digits()} digits; it cannot be "
                "printed") from None

    scalar_to_json = format_scalar


class _NatSemiring(Semiring):
    id = "nat"
    is_semifield = False
    enumeration = MODE_BOUNDED
    hull_membership = HULL_LOOKUP
    declared_properties = frozenset(
        {"positive", "refinable", "A", "B", "C", "D", "E"})
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def div(self, a: int, b: int) -> int:
        raise NotSemifieldError("not a semifield: nat has no division")

    def validate(self, a: Scalar) -> int:
        if isinstance(a, bool) or not isinstance(a, int):
            raise ConvexmodError(f"invalid nat scalar: {a!r}")
        if a < 0:
            raise ConvexmodError(f"nat scalar must be non-negative: {a}")
        return a

    def parse_scalar(self, text: str) -> int:
        t = text.strip()
        if not t.isdigit():
            raise ConvexmodError(f"invalid natural literal: {text!r}")
        check_digit_runs(t)
        try:
            return int(t)
        except ValueError:  # digits int() does not read, such as "²"
            raise ConvexmodError(
                f"invalid natural literal: {text!r}") from None

    def scalar_to_json(self, a: int) -> int:
        return a

    def carrier(self, bound: int | None) -> list[int]:
        if bound is None or bound < 1:
            raise ConvexmodError("nat enumeration needs a bound > 0")
        return list(range(bound + 1))


BOOL = _BoolSemiring()
QPLUS = _QplusSemiring()
NAT = _NatSemiring()

SEMIRINGS: dict[str, Semiring] = {s.id: s for s in (BOOL, QPLUS, NAT)}


def get_semiring(semiring_id: str) -> Semiring:
    try:
        return SEMIRINGS[semiring_id]
    except KeyError:
        raise ConvexmodError(
            f"unknown semiring {semiring_id!r}; expected one of "
            f"{sorted(SEMIRINGS)}") from None


# ---------------------------------------------------------------------------
# refinement witness
# ---------------------------------------------------------------------------

def refinement_witness(sr: Semiring, a: Scalar, b: Scalar,
                       c: Scalar, d: Scalar) -> tuple[Scalar, ...]:
    """Split a+b = c+d into a 2x2 grid x, y, z, t with matching margins.

    Returns (x, y, z, t) with x+y = a, z+t = b, x+z = c, y+t = d.  On a
    positive semifield the witness is x = ac/(c+d), y = ad/(c+d),
    z = bc/(c+d), t = bd/(c+d); when a+b = 0 positivity forces all four
    to be zero.
    """
    a, b, c, d = (sr.validate(v) for v in (a, b, c, d))
    if sr.add(a, b) != sr.add(c, d):
        raise NotRefinementInstanceError(
            "not a refinement instance: a+b != c+d")
    if not sr.is_semifield:
        raise NotSemifieldError(
            "not a semifield: refinement witness needs division")
    s = sr.add(c, d)
    if sr.is_zero(s):
        z0 = sr.zero
        return (z0, z0, z0, z0)
    x = sr.div(sr.mul(a, c), s)
    y = sr.div(sr.mul(a, d), s)
    z = sr.div(sr.mul(b, c), s)
    t = sr.div(sr.mul(b, d), s)
    return (x, y, z, t)


# ---------------------------------------------------------------------------
# property checking (Table-2 style properties)
# ---------------------------------------------------------------------------

def _pairs_summing_to(sr: Semiring, values: list[Scalar],
                      d: Scalar) -> list[tuple[Scalar, Scalar]]:
    return [(x, y) for x in values for y in values if sr.add(x, y) == d]


# Each property's check of one instance returns None where the property
# holds, else the counterexample; a witness is searched in ``values``.

def _positive(sr: Semiring, values, a, b) -> dict | None:
    if sr.is_zero(sr.add(a, b)) and not (sr.is_zero(a) and sr.is_zero(b)):
        return {"a": a, "b": b, "a+b": sr.add(a, b)}


def _semifield(sr: Semiring, values, a) -> dict | None:
    if not sr.is_zero(a) and not any(
            sr.mul(a, x) == sr.one == sr.mul(x, a) for x in values):
        return {"a": a, "detail": "no inverse among enumerated values"}


def _refinable(sr: Semiring, values, a, b, c, d) -> dict | None:
    """A witness's rows (x, y) and (z, t) must sum to a and b, so only
    those two pair lists are searched, not the quadruple grid."""
    if sr.add(a, b) == sr.add(c, d) and not any(
            sr.add(x, z) == c and sr.add(y, t) == d
            for (x, y), (z, t) in itertools.product(
                _pairs_summing_to(sr, values, a),
                _pairs_summing_to(sr, values, b))):
        return {"a": a, "b": b, "c": c, "d": d}


def _A(sr: Semiring, values, a, b) -> dict | None:
    if sr.add(a, b) == sr.one and not (sr.is_zero(a) or sr.is_zero(b)):
        return {"a": a, "b": b, "a+b": sr.one}


def _B(sr: Semiring, values, a, b) -> dict | None:
    if sr.is_zero(sr.mul(a, b)) and not (sr.is_zero(a) or sr.is_zero(b)):
        return {"a": a, "b": b}


def _C(sr: Semiring, values, a, b, c) -> dict | None:
    if sr.add(a, b) == sr.add(a, c) and b != c:
        return {"a": a, "b": b, "c": c,
                "a+b": sr.add(a, b), "a+c": sr.add(a, c)}


def _D(sr: Semiring, values, a, b) -> dict | None:
    if not any(sr.add(a, x) == b or sr.add(b, x) == a for x in values):
        return {"a": a, "b": b}


def _weightings(sr: Semiring, values: list[Scalar], count: int,
                total: Scalar) -> Iterator[tuple[Scalar, ...]]:
    """All tuples of carrier values of the given length summing to
    ``total``, in product order.  Addition on an enumerated carrier
    (join over bool, sum over nat) never lowers a running sum, and the
    values come in ascending order, so the search backtracks at the
    first value that takes the sum past the target."""
    def rec(prefix: tuple, remaining: int, acc: Scalar):
        if remaining == 0:
            if acc == total:
                yield prefix
            return
        for v in values:
            if sr.add(acc, v) > total:
                break
            yield from rec(prefix + (v,), remaining - 1, sr.add(acc, v))
    yield from rec((), count, sr.zero)


def _E(sr: Semiring, values, a, b, c, d) -> dict | None:
    """a+b = cd implies a weighting t over {(x,y) : x+y = d} with
    marginal sums a, b and total weight c.  The function space for t is
    enumerated over the same finite value list."""
    if sr.add(a, b) != sr.mul(c, d):
        return None
    pairs = _pairs_summing_to(sr, values, d)
    for weights in _weightings(sr, values, len(pairs), c):
        wx = sr.sum(sr.mul(w, x) for w, (x, _) in zip(weights, pairs))
        wy = sr.sum(sr.mul(w, y) for w, (_, y) in zip(weights, pairs))
        if wx == a and wy == b:
            return None
    return {"a": a, "b": b, "c": c, "d": d, "pairs": pairs}


# Every property: the number of scalars in one instance, and its check.
_PROPERTIES = {"positive": (2, _positive), "semifield": (1, _semifield),
               "refinable": (4, _refinable), "A": (2, _A), "B": (2, _B),
               "C": (3, _C), "D": (2, _D), "E": (4, _E)}

# Properties certified for qplus by construction, each with its argument.
_QPLUS_BY_THEOREM = {
    "positive": "sum of non-negative rationals is 0 only at (0, 0)",
    "semifield": "every nonzero rational has an exact inverse",
    "refinable": "witness formulas x=ac/(c+d), y=ad/(c+d), z=bc/(c+d), "
                 "t=bd/(c+d); spot-checkable via refinement_witness",
    "B": "a product of nonzero rationals is nonzero",
    "E": "positive semifields admit the required weighting; construction "
         "from the refinement witness",
}


def check_property(sr: Semiring, prop: str,
                   bound: int | None = None) -> LawReport:
    """Decide one semiring property for one instance.

    bool is enumerated fully; nat over {0..bound}, and meta adds the
    ``bound``; qplus is certified by a stock argument for the
    properties listed above, over no instance, and checked on property
    A at the one frozen instance 1/2, 1/2.  The expected outcome is a
    pass exactly for the ``declared_properties``.  Unsupported
    combinations raise "no decision procedure".
    """
    if prop not in _PROPERTIES:
        raise NoDecisionProcedureError(
            f"no decision procedure: unknown property {prop!r}")
    arity, check = _PROPERTIES[prop]
    values, detail, fail_detail = [], "", ""
    if sr.enumeration is not None:
        mode = sr.enumeration
        values = sr.carrier(bound)
        instances: Iterable = itertools.product(values, repeat=arity)
    elif prop == "A":
        mode, instances = MODE_EXHAUSTIVE, [(Fraction(1, 2), Fraction(1, 2))]
        fail_detail = "refuted by the fixed counterexample 1/2 + 1/2 = 1"
    elif prop in _QPLUS_BY_THEOREM:
        mode, instances, detail = MODE_BY_THEOREM, (), _QPLUS_BY_THEOREM[prop]
    else:
        raise NoDecisionProcedureError(
            f"no decision procedure for property {prop!r} over {sr.id}")
    return law_report(
        f"property:{prop}", sr, mode, instances,
        lambda instance: check(sr, values, *instance), detail=detail,
        fail_detail=fail_detail,
        expected=PASS if prop in sr.declared_properties else FAIL,
        meta={"bound": bound} if mode == MODE_BOUNDED else None)
