"""The composite monad of convex sets of weightings, and its Kleisli
category of nondeterministic linear maps.

The weak law induces a monad structure on X |-> ConvexSets(Weightings(X))
over a positive semifield.  Its three pieces:

* ``pc_unit``: the point set of the one-element weighting.
* ``pc_map``: elementwise relabeling.
* ``pc_mult``: flatten a convex set of family weightings by resolving
  each family weighting with ``alpha`` and joining the results.

``alpha`` is the algebra structure the law lifts onto convex sets: a
weighting of convex sets resolves to the Minkowski sum of its scaled
keys, i.e. the hull of all weighted sums that pick one generator per
key.  An empty key absorbs everything (no pick exists); the empty
weighting resolves to the zero point.

Kleisli arrows are tables mapping input symbols to convex sets of
weightings over output symbols.  Composition resolves the middle layer
with ``alpha`` generator by generator; the everywhere-empty arrow is
the bottom of the pointwise join order.

Every ConvexSet is canonical, so family weightings and arrow tables
take convex sets as they are: ``==``, ``hash`` and dict keys are set
equality.

One caveat, pinned by tests rather than hidden: composition is only
left strict on arrows whose sets never contain the zero weighting.  If
f(x) contains the zero weighting, then composing the bottom arrow
after f still yields the zero point at x, because an empty sum has no
factor to absorb it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .convex import (
    ConvexSet,
    cs_add,
    cs_empty,
    cs_from_json,
    cs_join,
    cs_join_all,
    cs_scale,
    cs_zero,
    hull_canonicalize,
)
from .errors import ConvexmodError, NotSemifieldError
from .freemod import FinSupp, finsupp, fs_map, fs_unit
from .semiring import Scalar, Semiring

def family_weighting(sr: Semiring,
                     items: Iterable[tuple[ConvexSet, Scalar]]) -> FinSupp:
    """Weighting over convex-set keys, the inner layer of the doubled
    construction.  Every ConvexSet is canonical, so extensionally equal
    sets are one key and merge their weights."""
    entries = []
    for A, v in items:
        if not isinstance(A, ConvexSet):
            raise ConvexmodError("family weighting keys must be convex sets")
        sr.refuse_foreign("family key", A)
        entries.append((A, v))
    return finsupp(sr, entries)


def alpha(Phi: FinSupp) -> ConvexSet:
    """Resolve a weighting of convex sets to one convex set: the
    Minkowski sum of the scaled keys, the one weighted Minkowski sum
    of the library (the diagram checks of ``distlaw`` call it too).
    Not available over nat, whose hulls cannot absorb the missing
    choices.  A key over another semiring is refused before it is
    scaled.

    The fold starts from the first scaled key instead of {epsilon}.
    Over a positive semifield, scaling by a nonzero lambda is a
    bijection that preserves weighted sums with weights summing to 1,
    so lambda * A keeps exactly the extreme points of A: it is
    canonical already.  Every later key goes through ``cs_add``, which
    re-canonicalizes the sum."""
    sr = Phi.semiring
    if not sr.is_semifield:
        raise NotSemifieldError(
            "not a semifield; the resolved set is not convex over nat")
    if Phi.is_zero():
        return cs_zero(sr)
    acc = None
    for A, v in Phi.entries:
        if A.semiring is not sr:
            sr.refuse_foreign("family key", A)
        acc = cs_scale(v, A) if acc is None else cs_add(acc, cs_scale(v, A))
    return acc


def pc_unit(sr: Semiring, x) -> ConvexSet:
    """The point set of the one-element weighting of x."""
    return hull_canonicalize([fs_unit(sr, x)], sr)


def pc_map(f: Mapping, A: ConvexSet) -> ConvexSet:
    """Relabel every generator along a symbol map and re-close."""
    return hull_canonicalize(
        [fs_map(f, g) for g in A.generators], A.semiring)


def pc_mult(outer: ConvexSet) -> ConvexSet:
    """Flatten one level: resolve each generator (a family weighting)
    with alpha and join the results.  The empty outer set stays empty."""
    sr = outer.semiring
    return cs_join_all([alpha(theta) for theta in outer.generators], sr)


# ---------------------------------------------------------------------------
# Kleisli arrows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KleisliArrow:
    """Total table from input symbols to convex sets of weightings over
    output symbols."""

    vars_in: tuple[str, ...]
    vars_out: tuple[str, ...]
    table: Mapping[str, ConvexSet]

    def __post_init__(self):
        vin = tuple(sorted(set(self.vars_in)))
        vout = tuple(sorted(set(self.vars_out)))
        object.__setattr__(self, "vars_in", vin)
        object.__setattr__(self, "vars_out", vout)
        if not vin:
            raise ConvexmodError("arrow needs at least one input symbol")
        if set(self.table) != set(vin):
            raise ConvexmodError("arrow table must cover vars_in exactly")
        self.semiring.refuse_foreign("arrow value", *self.table.values())
        out = set(vout)
        for x, A in self.table.items():
            for g in A.generators:
                stray = [y for y in g.support() if y not in out]
                if stray:
                    raise ConvexmodError(
                        f"arrow value at {x!r} mentions {stray[0]!r}, "
                        "not an output symbol")
        object.__setattr__(self, "table", dict(self.table))

    @property
    def semiring(self) -> Semiring:
        return next(iter(self.table.values())).semiring

    def __call__(self, x) -> ConvexSet:
        if x not in self.table:
            raise ConvexmodError(f"arrow has no input {x!r}")
        return self.table[x]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "vars_in": list(self.vars_in),
            "vars_out": list(self.vars_out),
            "table": {x: A.to_json_dict() for x, A in
                      sorted(self.table.items())},
        }


def arrow(sr: Semiring, vars_in: Iterable[str], vars_out: Iterable[str],
          table: Mapping[str, ConvexSet]) -> KleisliArrow:
    sr.refuse_foreign("arrow value", *table.values())
    return KleisliArrow(tuple(vars_in), tuple(vars_out), dict(table))


def ka_from_json(sr: Semiring, data: Mapping[str, Any]) -> KleisliArrow:
    """Inverse of ``KleisliArrow.to_json_dict``.  A table entry is a
    ConvexSet object whose ``semiring`` defaults to ``sr``."""
    if not isinstance(data, Mapping):
        raise ConvexmodError("KleisliArrow JSON must be an object")
    vars_in, vars_out = (data.get(k, []) for k in ("vars_in", "vars_out"))
    if not all(isinstance(vs, list) and all(isinstance(v, str) for v in vs)
               for vs in (vars_in, vars_out)):
        raise ConvexmodError(
            "KleisliArrow JSON 'vars_in' and 'vars_out' must be arrays "
            "of symbols")
    table = data.get("table", {})
    if not isinstance(table, Mapping) or not all(
            isinstance(entry, Mapping) for entry in table.values()):
        raise ConvexmodError(
            "KleisliArrow JSON 'table' must map symbols to objects")
    return arrow(sr, vars_in, vars_out,
                 {x: cs_from_json({"semiring": sr.id, **entry})
                  for x, entry in table.items()})


def kleisli_identity(sr: Semiring, variables: Iterable[str]) -> KleisliArrow:
    vs = tuple(variables)
    return KleisliArrow(vs, vs, {x: pc_unit(sr, x) for x in vs})


def kleisli_bottom(sr: Semiring, vars_in: Iterable[str],
                   vars_out: Iterable[str]) -> KleisliArrow:
    vin = tuple(vars_in)
    return KleisliArrow(vin, tuple(vars_out),
                        {x: cs_empty(sr) for x in vin})


def kleisli_compose(g: KleisliArrow, f: KleisliArrow) -> KleisliArrow:
    """g after f.  Each generator of f(x) is a weighting of middle
    symbols; it resolves to the weighted Minkowski sum of the g-images
    of its support, and the resolutions join up."""
    sr = f.semiring
    sr.refuse_foreign("arrow", g)
    if set(f.vars_out) != set(g.vars_in):
        raise ConvexmodError(
            "inner variables disagree: "
            f"{list(f.vars_out)} vs {list(g.vars_in)}")
    table = {}
    for x in f.vars_in:
        pieces = []
        for phi in f(x).generators:
            pieces.append(alpha(family_weighting(
                sr, [(g(y), phi.value(y)) for y in phi.support()])))
        table[x] = cs_join_all(pieces, sr)
    return KleisliArrow(f.vars_in, g.vars_out, table)


def kleisli_join(f: KleisliArrow, g: KleisliArrow) -> KleisliArrow:
    f.semiring.refuse_foreign("arrow", g)
    if f.vars_in != g.vars_in or f.vars_out != g.vars_out:
        raise ConvexmodError("joining arrows with different variable sets")
    return KleisliArrow(
        f.vars_in, f.vars_out,
        {x: cs_join(f(x), g(x)) for x in f.vars_in})


def kleisli_equal(f: KleisliArrow, g: KleisliArrow) -> bool:
    """Extensional equality: same variables, same set at every input.
    Tables are canonical, so structural comparison suffices."""
    f.semiring.refuse_foreign("arrow", g)
    return f == g
