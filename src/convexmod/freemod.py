"""Finitely supported functions into a semiring: the free semimodule.

A FinSupp represents an element of S X, the free left S-semimodule on a
set X: a function X -> S whose support (the keys with nonzero value) is
finite.  Storage is a strictly key-sorted tuple of (key, scalar) pairs
with no zero scalars, so structural equality coincides with
extensional equality and the representation is canonical.

Keys are usually interned strings (variable symbols), but every
operation is generic in the key type: any hashable value with a total
order under ``sort_key`` works.  That generality is what lets the
higher modules nest values, a weighting over symbol sets, over inner
FinSupp values (the classical S(S X) layer), or over convex sets,
without duplicating this module.

Each value hashes on first use, from its semiring id and its entries,
and keeps the result; a nested FinSupp or ConvexSet key contributes
its own cached hash, so hashing never descends to the scalars of inner
values, and a value that never enters a set or a dict never hashes.
The key-to-scalar dict behind ``value`` is likewise built on the first
lookup.  The precomputed ``_skey`` only orders and compares: it
decides ``==``, ``<`` and every sorted order.  Dedup dicts and sets are
keyed by the values themselves, never by ``_skey``.  Canonicalization
(``convex.hull_canonicalize``) dedups its generators without hashing:
it compares the ``_skey`` of neighbours in sorted order and never
hashes one (``test_no_module_hashes_a_sort_key`` guards that no module
does).

``_skey`` is one flat tuple, ``(2, semiring id, sk(k1), v1, sk(k2),
v2, ...)``: each entry fills two aligned slots, its key's sort key and
its scalar.  Two values therefore compare entry by entry as tuples of
(key, scalar) pairs would, and a value whose entries are a prefix of
another's sorts first; the key is one tuple, not one per entry.  Every
symbol's sort key ``(0, k)`` is one shared tuple.

``fs_scale`` by a nonzero scalar skips ``finsupp``: none of the three
semirings has zero divisors, so no scaled entry becomes zero, and the
keys do not change, so the entries stay sorted and distinct.

The monad structure lives here too:

* ``fs_unit``  - the Dirac function centred on one key,
* ``fs_map``   - pushforward along a key table, summing over fibres,
* ``fs_mult``  - flatten a weighting-of-weightings by weighted
  pointwise sum,

together with the pointwise semimodule operations ``fs_add``,
``fs_scale``, ``fs_zero``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import itemgetter
from typing import Any

from .errors import ConvexmodError, UnmappedSymbolError
from .semiring import Scalar, Semiring

Key = Any


# The one (0, k) sort key of each symbol k, made on first use: sharing
# it saves a tuple per entry of every value, and a key compared with
# itself is settled by identity.  It needs no bound, because it holds
# one pair per distinct symbol the process has used as a key: it grows
# with the symbols read, never with the values built from them.
class _SymbolKeys(dict):
    def __missing__(self, k: str) -> tuple:
        self[k] = key = (0, k)
        return key


_SYMBOL_KEYS = _SymbolKeys()


def sort_key(value: Key) -> tuple:
    """Total order across all key kinds used in this package.

    Strings sort first, then tuples (symbol sets and pairs, compared
    recursively), then any object carrying a precomputed ``_skey``
    (FinSupp and ConvexSet instances), then plain integers.  Two keys
    are equal exactly when their sort keys are equal.
    """
    if isinstance(value, str):
        return _SYMBOL_KEYS[value]
    if isinstance(value, tuple):
        return (1, len(value), tuple(sort_key(v) for v in value))
    skey = getattr(value, "_skey", None)
    if skey is not None:
        return skey
    if isinstance(value, int) and not isinstance(value, bool):
        return (5, value)
    raise ConvexmodError(f"unorderable key: {value!r}")


class FinSupp:
    """Immutable finitely supported function into one semiring.

    Use the module-level constructors (``finsupp``, ``fs_unit``,
    ``fs_zero``) rather than building entry tuples by hand; they
    validate scalars, merge duplicate keys additively, drop zeros and
    sort.
    """

    __slots__ = ("semiring", "entries", "_lookup", "_skey", "_hash")

    semiring: Semiring
    entries: tuple[tuple[Key, Scalar], ...]

    def __init__(self, semiring: Semiring,
                 entries: tuple[tuple[Key, Scalar], ...],
                 _trusted: bool = False):
        if not _trusted:
            raise ConvexmodError(
                "construct FinSupp via finsupp()/fs_unit()/fs_zero()")
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "entries", entries)
        # The flat key of the module docstring; symbol keys skip
        # sort_key's type tests.
        skey = [2, semiring.id]
        for k, v in entries:
            skey.append(_SYMBOL_KEYS[k] if type(k) is str else sort_key(k))
            skey.append(v)
        object.__setattr__(self, "_skey", tuple(skey))

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("FinSupp is immutable")

    # -- mapping-ish access ----------------------------------------------

    def value(self, key: Key) -> Scalar:
        """The scalar at ``key`` (the semiring zero off the support)."""
        try:
            lookup = self._lookup
        except AttributeError:
            lookup = dict(self.entries)
            object.__setattr__(self, "_lookup", lookup)
        return lookup.get(key, self.semiring.zero)

    def support(self) -> tuple[Key, ...]:
        return tuple(k for k, _ in self.entries)

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    # -- equality / ordering ----------------------------------------------

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, FinSupp) and self._skey == other._skey

    def __lt__(self, other: "FinSupp") -> bool:
        return self._skey < other._skey

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.semiring.id, self.entries))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        if not self.entries:
            return f"<{self.semiring.id}|>"
        body = ", ".join(f"{k!r}: {self.semiring.format_scalar(v)}"
                         for k, v in self.entries)
        return f"<{self.semiring.id}| {body}>"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Wire format {symbol: scalar-json}; string keys only."""
        out = {}
        for k, v in self.entries:
            if not isinstance(k, str):
                raise ConvexmodError(
                    "only symbol-keyed FinSupp values serialize to JSON")
            out[k] = self.semiring.scalar_to_json(v)
        return out


def finsupp(sr: Semiring,
            items: Mapping[Key, Scalar] | Iterable[tuple[Key, Scalar]],
            ) -> FinSupp:
    """Canonical FinSupp from key/scalar pairs.

    Duplicate keys are merged with semiring addition; zero results are
    dropped; keys are sorted by ``sort_key``.
    """
    if isinstance(items, Mapping):
        items = items.items()
    merged: dict[Key, Scalar] = {}
    for k, v in items:
        v = sr.validate(v)
        if k in merged:
            merged[k] = sr.add(merged[k], v)
        else:
            merged[k] = v
    entries = tuple(
        (k, merged[k]) for k in sorted(merged, key=sort_key)
        if not sr.is_zero(merged[k]))
    return FinSupp(sr, entries, _trusted=True)


def sorted_unique(values: Iterable) -> list:
    """The distinct values in ``sort_key`` order, deduplicated by
    their own hash and equality."""
    return sorted(set(values), key=sort_key)


def fs_zero(sr: Semiring) -> FinSupp:
    """The empty function (the semimodule zero, written epsilon)."""
    return FinSupp(sr, (), _trusted=True)


def fs_unit(sr: Semiring, x: Key) -> FinSupp:
    """The Dirac function centred in ``x``: (x -> 1)."""
    return finsupp(sr, [(x, sr.one)])


def fs_map(f: Mapping[Key, Key], phi: FinSupp) -> FinSupp:
    """Pushforward of ``phi`` along the table ``f``, summing over fibres.

    The result maps y to the sum of phi(x) over all x with f[x] = y.
    ``f`` must cover the whole support of ``phi``.
    """
    def lookup(x: Key) -> Key:
        try:
            return f[x]
        except KeyError:
            raise UnmappedSymbolError(
                f"symbol {x!r} not covered by the function table"
            ) from None

    return finsupp(phi.semiring, ((lookup(k), v) for k, v in phi.entries))


def fs_mult(psi: FinSupp) -> FinSupp:
    """Flatten a weighting over FinSupp values by weighted pointwise sum.

    For psi with entries (phi_i -> w_i), the result maps x to
    sum_i w_i * phi_i(x).
    """
    sr = psi.semiring
    pairs: list[tuple[Key, Scalar]] = []
    for inner, weight in psi.entries:
        if not isinstance(inner, FinSupp):
            raise ConvexmodError("fs_mult needs FinSupp-valued keys")
        sr.refuse_foreign("inner weighting", inner)
        for k, v in inner.entries:
            pairs.append((k, sr.mul(weight, v)))
    return finsupp(sr, pairs)


def fs_add(a: FinSupp, b: FinSupp) -> FinSupp:
    """Pointwise sum."""
    sr = a.semiring
    if b.semiring is not sr:
        sr.refuse_foreign("summand", b)
    return finsupp(sr, list(a.entries) + list(b.entries))


def fs_scale(lam: Scalar, phi: FinSupp) -> FinSupp:
    """Pointwise scalar multiple; scaling by zero gives the zero function.

    A nonzero lambda maps the entries in order: with no zero divisors
    no product is zero, and the keys, hence their order, are kept."""
    sr = phi.semiring
    lam = sr.validate(lam)
    if sr.is_zero(lam):
        return fs_zero(sr)
    return FinSupp(sr, tuple([(k, sr.mul(lam, v)) for k, v in phi.entries]),
                   _trusted=True)


_KEY = itemgetter(0)


def fs_from_json(sr: Semiring, data: Mapping[str, Any]) -> FinSupp:
    """Inverse of FinSupp.to_json_dict for symbol-keyed functions.

    A JSON object's keys are distinct strings, so each value is read
    once, already valid, and the nonzero entries sorted by key are the
    canonical form.  Any other mapping goes through ``finsupp``."""
    if not isinstance(data, Mapping):
        raise ConvexmodError(f"FinSupp JSON must be an object, got {data!r}")
    if not all(type(k) is str for k in data):
        return finsupp(sr, ((str(k), sr.scalar_from_json(v))
                            for k, v in data.items()))
    entries = [(k, sr.scalar_from_json(v)) for k, v in data.items()]
    entries = [e for e in entries if e[1]]
    entries.sort(key=_KEY)
    return FinSupp(sr, tuple(entries), _trusted=True)
