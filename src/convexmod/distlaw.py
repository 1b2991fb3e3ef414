"""The canonical weak distributive law between weighting and powerset.

The law sends a weighting of sets Phi (a finitely supported map from
finite sets to nonzero scalars) to a set of weightings of elements.
Two independent routes compute it:

* ``delta_bruteforce`` follows the defining equations directly: its
  outputs are the element weightings phi(x) = sum over A containing x
  of psi(A, x), for every membership weighting psi on pairs (A, x)
  with x in A whose per-set sums reproduce Phi.  This is exact for
  bool (psi ranges over subsets of pairs) and for nat (psi restricted
  to one set is a composition of its weight, so the outputs are the
  Minkowski sum of the sets' composition sets, folded set by set), but
  impossible for qplus, where the psi space is a continuum.

* ``delta_hull`` uses the closed form available over positive
  semifields (bool, qplus): the law is the convex closure of the
  choice set c(Phi), the finitely many weightings obtained by picking
  one element per supported set and pushing the weights forward.
  Over qplus its extreme points are the greedy vectors, listed with
  no LP; over bool the choice set is canonicalized.

Over nat the closed form genuinely fails: every subset of a nat
semimodule is already convex, so the hull adds nothing, yet the brute
force produces weightings outside the choice set.  ``delta_hull``
therefore refuses nat, and the strictness of the inclusion is itself a
tested fact.

The module also houses the diagram checkers (the two multiplication
rectangles and both unit triangles, one of which is expected to fail
exactly when scalar sums to one force a zero), the pentagon coherence
checker for composite algebras, the Barr extension of a relation, and
the deliberately naive extension that sends a relation R to the
function A |-> {y : exists a in A with a R y} together with its
one-point weak law.  Each suite only draws its instances and states a
per-instance check; the package's one law driver, ``report.law_report``,
runs the checks and builds every report.  A leg that resolves a
weighting of convex sets calls ``composite.alpha``, the library's one
weighted Minkowski sum; the pentagon's interval algebra is no
exception, since intervals are the qplus convex sets on one symbol.

How far an enumeration may grow is one table, ``LIMITS``: every suite
and every route of ``run_delta`` counts what it would walk, without
walking it, and refuses through ``_refuse_oversized`` before its first
instance.  Which options a suite run reads is one table too,
``SUITES``; ``run_laws`` refuses any other, and each suite holds its
own defaults and checks its own ranges.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .composite import alpha, pc_map
from .convex import (
    ConvexSet,
    cs_empty,
    cs_equal,
    cs_join_all,
    hull_canonicalize,
    member,
)
from .errors import ConvexmodError, NotSemifieldError
from .freemod import (
    FinSupp,
    finsupp,
    fs_map,
    fs_mult,
    fs_unit,
    fs_zero,
    sorted_unique,
)
from .report import (
    FAIL,
    LawReport,
    MODE_BOUNDED,
    MODE_EXHAUSTIVE,
    MODE_RANDOMIZED,
    PASS,
    law_report,
)
from .semiring import (BOOL, HULL_EXACT_LP, HULL_JOIN_COVER, HULL_LOOKUP,
                       Scalar, Semiring, get_semiring)

SYMBOL_POOL = ("x", "y", "z", "u", "v", "w")

# Every enumeration's limit, as a count of what it walks: the law suites
# in ``SUITES`` order and their random trials, then the routes of
# ``run_delta``.
LIMITS = {
    # bool: 1,424 instances at xsize 3 (about a second), 18,940 at xsize
    # 4 (unfinished after 20 s); nat: 2,435 at the defaults (xsize 2,
    # value bound 2), 753,997 at value bound 30
    "weakdist": 10_000,
    # bool: 5,672 instances at xsize 2 (seconds), 28,158,761 at 3 (hours)
    "pentagon": 100_000,
    # 30,976 instances at xsize 4 (2-6 s), 1,553,125 at 5 (unfinished
    # after 30 s over every semiring)
    "naturality": 100_000,
    # 2^(2^xsize) families: 65,536 at xsize 4 (under a second), 2^32 at 5
    "appendixA": 2 ** 16,
    # --trials of a randomized (qplus) suite, refused before any draw.
    # At 1,000 trials and the largest xsize each accepts: weakdist (6),
    # which draws 4 x trials weightings first, 9.6 s and 23 MB peak
    # (15 s at 2,000); naturality (4) 2.2 s; pentagon (6) 0.8 s
    "trials": 1_000,
    # nat: combinations of per-set compositions, 840 for three two-element
    # sets weighted 5, 9 and 13, about 4.2e10 for 1000 on five symbols.
    # {a,b,c}: 20, {d,e,f}: 26 walks 87,318, every output distinct:
    # delta_bruteforce takes 0.64-0.69 s at 88 MB peak RSS, the whole
    # in-process delta 1.1-1.7 s at 93 MB (1.46-1.65 s and 2.3-2.6 s,
    # both at 183 MB, with nested sort keys and a sort of sparse pairs)
    "compositions": 100_000,
    # --compare-bruteforce: the 2^n subsets of n symbols, 16,384 at n = 14
    # (about a second), 65,536 at 16 (about 5 s)
    "subsets": 2 ** 16,
    # choices by hull algorithm, one per set on disjoint sets: the LP
    # takes 1.5-3.7 s at 256 and 26 s at 625; the join cover 1.3-2.0 s
    # at 3,125 and 4,096, 20 s at 15,625
    "choices:" + HULL_EXACT_LP: 256,
    "choices:" + HULL_JOIN_COVER: 4_096,
}
# A count beyond this is shown as a bound, not computed in full.
_SHOWN_MAX = 10 ** 30


def _refuse_oversized(what: str, count: int, limit: int,
                      unit: str = "instances", message: str = "") -> None:
    """Usage error, before any enumeration, for a run that would walk
    ``count`` units, more than its ``limit``; ``message`` replaces the
    stated count."""
    if count > limit:
        shown = f"{count:,}" if count <= _SHOWN_MAX else "more than 10^30"
        raise ConvexmodError(message or f"{what} enumerates {shown} {unit}; "
                                        f"at most {limit:,} are allowed")


def _check_ranges(xsize: int, trials: int = 1) -> None:
    """Usage error for a suite option out of its range: ``xsize`` counts
    symbols of the pool, ``trials`` random instances."""
    if trials < 1:
        raise ConvexmodError("trials must be at least 1")
    _refuse_oversized("trials", trials, LIMITS["trials"], message=(
        f"trials must be at most {LIMITS['trials']:,}"))
    if not 1 <= xsize <= len(SYMBOL_POOL):
        raise ConvexmodError(
            f"xsize must be between 1 and {len(SYMBOL_POOL)}")


def set_key(elements: Iterable[Any]) -> tuple:
    """Canonical duplicate-free sorted tuple used as a finite-set key."""
    return tuple(sorted_unique(elements))


def set_weighting(sr: Semiring, items: Iterable[tuple[Iterable[Any], Scalar]]
                  ) -> FinSupp:
    """Weighting of finite sets: entries (set, scalar), keys canonical."""
    return finsupp(sr, [(set_key(A), v) for A, v in items])


def membership_weighting(
        sr: Semiring,
        items: Iterable[tuple[tuple[Iterable[Any], Any], Scalar]]
) -> FinSupp:
    """Weighting of (set, element) pairs; every element must belong to
    its set."""
    entries = []
    for (A, x), v in items:
        key = set_key(A)
        if x not in key:
            raise ConvexmodError(
                f"membership weighting pairs need x in A; got {x!r}")
        entries.append(((key, x), v))
    return finsupp(sr, entries)


@dataclass(frozen=True)
class Relation:
    """Finite binary relation with explicit domain and codomain."""

    domain: tuple
    codomain: tuple
    pairs: tuple

    def __post_init__(self):
        dom = set_key(self.domain)
        cod = set_key(self.codomain)
        pairs = set_key(tuple(p) for p in self.pairs)
        for a, b in pairs:
            if a not in dom or b not in cod:
                raise ConvexmodError(f"relation pair {(a, b)!r} out of range")
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "codomain", cod)
        object.__setattr__(self, "pairs", pairs)

    def image(self, a) -> tuple:
        return tuple(y for x, y in self.pairs if x == a)


# ---------------------------------------------------------------------------
# the two routes to the law
# ---------------------------------------------------------------------------

def choice_set(Phi: FinSupp) -> list[FinSupp]:
    """All weightings obtained by choosing one element per supported
    set and pushing the weights forward (weights of sets that share the
    chosen element add up).  Empty support yields the zero weighting;
    an empty set in the support admits no choice at all."""
    sr = Phi.semiring
    keys = list(Phi.support())
    if any(len(A) == 0 for A in keys):
        return []
    if not keys:
        return [fs_zero(sr)]
    return sorted_unique(
        finsupp(sr, [(x, Phi.value(A)) for A, x in zip(keys, picks)])
        for picks in itertools.product(*keys))


def delta_hull(Phi: FinSupp) -> ConvexSet:
    """The law over a positive semifield: convex closure of the choice
    set.  nat is rejected because the closed form is provably wrong
    there (its hulls are identity, yet the law is strictly larger).

    Over bool the choice set is canonicalized.  Over qplus the hull is
    the Minkowski sum of the scaled simplices Phi(A) * Delta(A), the
    base polytope of the submodular weighted coverage function
    f(S) = sum {Phi(A) : A meets S}, and its vertices are exactly the
    greedy vectors: fix a linear order on the symbols and let each set
    give its whole weight to its first symbol (J. Edmonds, "Submodular
    functions, matroids, and certain polyhedra", 1970; L. S. Shapley,
    "Cores of convex games", 1971; S. Fujishige, *Submodular Functions
    and Optimization*, 2nd ed., 2005).  ``_greedy_vertices`` lists them
    with no choice enumeration and no LP."""
    sr = Phi.semiring
    if not sr.is_semifield:
        raise NotSemifieldError("not a semifield; use brute force")
    if sr.hull_membership != HULL_EXACT_LP:
        return hull_canonicalize(choice_set(Phi), sr)
    return ConvexSet(sr, _greedy_vertices(Phi), _trusted=True)


def _greedy_vertices(Phi: FinSupp) -> tuple[FinSupp, ...]:
    """The distinct greedy vectors of a qplus weighting of sets, in
    ``_skey`` order.

    The symbols of an order are taken one at a time; each closes the
    open sets that hold it, which give it their weights.  A depth-first
    walk over these prefixes visits each state, the open sets and the
    vector so far, once; the states number at most the product of
    |A| + 1 over the sets.  A one-symbol set gives its weight to that
    symbol in every order, so it starts closed.  Weights are integers
    over their common denominator until the vertices are built."""
    sr = Phi.semiring
    sets = [A for A, _ in Phi.entries]
    if not all(sets):
        return ()  # an empty set admits no choice
    symbols = set_key(x for A in sets for x in A)
    at = {x: i for i, x in enumerate(symbols)}
    scale = math.lcm(*(w.denominator for _, w in Phi.entries))
    start = [0] * len(symbols)
    weights, holders = [], [0] * len(symbols)
    for A, w in Phi.entries:
        w = w.numerator * (scale // w.denominator)
        if len(A) == 1:
            start[at[A[0]]] += w
            continue
        for x in A:
            holders[at[x]] |= 1 << len(weights)
        weights.append(w)
    vectors: set[tuple[int, ...]] = set()
    seen: set = set()

    def walk(open_: int, vector: tuple[int, ...]) -> None:
        if not open_:
            vectors.add(vector)
            return
        if (open_, vector) in seen:
            return
        seen.add((open_, vector))
        for s, held in enumerate(holders):
            closing = open_ & held
            if closing:
                w = sum(weights[i] for i in range(len(weights))
                        if closing >> i & 1)
                walk(open_ & ~closing,
                     vector[:s] + (vector[s] + w,) + vector[s + 1:])

    walk((1 << len(weights)) - 1, tuple(start))
    out = [FinSupp(sr, tuple([(x, Fraction(v, scale))
                              for x, v in zip(symbols, vector) if v]),
                   _trusted=True)
           for vector in vectors]
    out.sort(key=operator.attrgetter("_skey"))
    return tuple(out)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 1 - prev - 1)
        yield tuple(out)


def composition_count(Phi: FinSupp, limit: int | None = None) -> int:
    """How many combinations of per-set compositions define delta over
    nat: the product over the supported sets A of
    C(Phi(A) + |A| - 1, |A| - 1), computed without enumerating.  It
    bounds both the work of ``delta_bruteforce`` and its output.  With
    a ``limit`` the product stops at its first partial value above it,
    so the cost stays bounded however large the weights are; a result
    above the limit then only says that the count is above it too."""
    count = 1
    for A, weight in Phi.items():
        factor = 1
        for j in range(1, len(A)):
            factor = factor * (weight + j) // j  # C(weight + j, j)
            if limit is not None and count * factor > limit:
                return count * factor
        count *= factor
    return count


def delta_bruteforce(Phi: FinSupp) -> list[FinSupp]:
    """Definitional route: the element weightings induced by every
    membership weighting whose per-set sums give Phi, without repeats
    and in ``sort_key`` order.  Only bool and nat admit the
    enumeration.

    Over bool the defining enumeration (one nonempty subset per
    supported set, then their union) collapses to a filter: the outputs
    are exactly the subsets of the union that meet every supported set,
    because intersecting such a subset with each set recovers a valid
    choice of slices.  That keeps the walk polynomial in the output.

    Over nat a membership weighting restricted to one set A is a
    composition of Phi(A) over A's elements, and the output is the sum
    of those slices.  The sums are folded set by set as integer vectors
    over the sorted union, in a set, so partial sums that coincide,
    as they do when sets share elements, are kept once.  Every distinct
    sum becomes one FinSupp straight from its nonzero coordinates, built
    already canonical because the union is in ``sort_key`` order, and
    the values sort on their cached sort keys.
    """
    sr = Phi.semiring
    if sr.enumeration is None:
        raise ConvexmodError("use delta_hull + delta_witness_check")
    keys = list(Phi.support())
    if any(len(A) == 0 for A in keys):
        return []
    if not keys:
        return [fs_zero(sr)]
    union = set_key(x for A in keys for x in A)
    if sr.enumeration == MODE_EXHAUSTIVE:
        # The only nonzero scalar is one, so weightings are subsets.
        seen: set[FinSupp] = set()
        key_sets = [frozenset(A) for A in keys]
        for r in range(1, len(union) + 1):
            for sub in itertools.combinations(union, r):
                picked = frozenset(sub)
                if all(picked & A for A in key_sets):
                    seen.add(finsupp(sr, [(x, 1) for x in sub]))
        return sorted_unique(seen)
    index = {x: i for i, x in enumerate(union)}
    sums = {(0,) * len(union)}
    for A, weight in Phi.items():
        at = [index[x] for x in A]
        slices = []
        for comp in weak_compositions(weight, len(A)):
            slice_ = [0] * len(union)
            for i, c in zip(at, comp):
                slice_[i] = c
            slices.append(slice_)
        sums = {tuple(map(operator.add, total, slice_))
                for total in sums for slice_ in slices}
    nonzero = operator.itemgetter(1)
    out = [FinSupp(sr, tuple(filter(nonzero, zip(union, total))),
                   _trusted=True)
           for total in sums]
    out.sort(key=operator.attrgetter("_skey"))
    return out


def run_delta(Phi: FinSupp, compare: bool = False
              ) -> tuple[list[FinSupp], dict | None]:
    """The law's generators for a weighting given from outside, by the
    hull route over a semifield and the brute force otherwise; with
    ``compare``, also the bool cross-check of the brute force against
    every weighting of the symbols that lies in the hull.  Each route
    is refused, by its ``LIMITS`` entry, before it enumerates."""
    sr = Phi.semiring
    if not sr.is_semifield:
        _refuse_oversized(f"delta over {sr.id}",
                          composition_count(Phi, limit=_SHOWN_MAX),
                          LIMITS["compositions"],
                          unit="combinations of compositions")
    if compare and not (sr.is_semifield and sr.enumeration):
        raise ConvexmodError(
            "--compare-bruteforce needs the bool semiring, where both "
            "routes are enumerable")
    symbols = sorted({x for A in Phi.support() for x in A})
    if compare:
        _refuse_oversized(f"delta --compare-bruteforce over {sr.id} on "
                          f"{len(symbols)} symbols", 2 ** len(symbols),
                          LIMITS["subsets"], unit="subsets")
    if not sr.is_semifield:
        return delta_bruteforce(Phi), None
    choices = 1
    for A in Phi.support():
        choices *= len(A)
        if choices > _SHOWN_MAX:
            break
    _refuse_oversized(f"delta over {sr.id}", choices,
                      LIMITS["choices:" + sr.hull_membership], unit="choices")
    hull = delta_hull(Phi)
    if not compare:
        return list(hull.generators), None
    brute = delta_bruteforce(Phi)
    closure = [psi for psi in weightings_over(sr, symbols, len(symbols), None)
               if member(hull, psi)]
    return list(hull.generators), {"bruteforce_count": len(brute),
                                   "closure_count": len(closure),
                                   "agree": set(closure) == set(brute)}


def delta_witness_check(Phi: FinSupp, phi: FinSupp,
                        psi: FinSupp) -> bool:
    """Exact check of the two defining sum conditions: per-set sums of
    psi reproduce Phi, per-element sums reproduce phi."""
    sr = Phi.semiring
    sr.refuse_foreign("weighting", phi, psi)
    psi_sets = set_key(A for A, _x in psi.support())
    for A in set_key(itertools.chain(Phi.support(), psi_sets)):
        total = sr.sum(psi.value((A, x)) for x in A)
        if total != Phi.value(A):
            return False
    psi_elems = set_key(x for _A, x in psi.support())
    for x in set_key(itertools.chain(phi.support(), psi_elems)):
        total = sr.sum(psi.value((A, x)) for A in psi_sets if x in A)
        if total != phi.value(x):
            return False
    return True


# ---------------------------------------------------------------------------
# shared instance pools
# ---------------------------------------------------------------------------

def _unless(holds: bool, **counterexample) -> dict | None:
    """A check's verdict on one instance: None when the law holds,
    otherwise the counterexample, keys in the order given."""
    return None if holds else counterexample


def weightings_over(sr: Semiring, pool: Sequence, max_support: int,
                    bound: int | None) -> list[FinSupp]:
    """All weightings with support drawn from the pool, support size
    bounded, values ranging over the nonzero scalars of
    ``sr.carrier(bound)``: the zero weighting first, then by support
    size, support subsets and value tuples in enumeration order."""
    values = [v for v in sr.carrier(bound) if not sr.is_zero(v)]
    out = [fs_zero(sr)]
    for r in range(1, max_support + 1):
        for subset in itertools.combinations(pool, r):
            for vals in itertools.product(values, repeat=r):
                out.append(finsupp(sr, list(zip(subset, vals))))
    return out


def _random_fraction(rng: random.Random, allow_zero: bool = False) -> Fraction:
    num = rng.randint(0 if allow_zero else 1, 6)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _random_qplus_weighting(rng: random.Random, sr: Semiring,
                            pool: Sequence, max_support: int) -> FinSupp:
    size = rng.randint(0, max_support)
    chosen = rng.sample(list(pool), min(size, len(pool)))
    return finsupp(sr, [(k, _random_fraction(rng)) for k in chosen])


def _sets_universe(universe: Sequence[str]) -> list[tuple]:
    """All subsets of the universe as canonical tuples, empty included."""
    out = []
    for r in range(len(universe) + 1):
        out.extend(set_key(s) for s in itertools.combinations(universe, r))
    return sorted(out, key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# weak-law diagram checks
# ---------------------------------------------------------------------------

def _eta_P_violation(phi: FinSupp) -> dict | None:
    """Unit triangle that weak laws keep: wrapping every element of a
    weighting into a one-element set and applying the law returns the
    singleton of the original weighting."""
    sr = phi.semiring
    Phi = set_weighting(sr, [((x,), phi.value(x)) for x in phi.support()])
    if sr.enumeration is not None:
        got = delta_bruteforce(Phi)
        ok = got == [phi]
    else:
        got = delta_hull(Phi)
        ok = cs_equal(got, hull_canonicalize([phi], sr))
    return _unless(ok, phi=phi, law_value=got)


def _mu_S_violation_listed(xi: FinSupp) -> dict | None:
    """Multiplication rectangle on the weighting side, evaluated
    extensionally (enumerable carriers): collapsing a two-level
    weighting first and applying the law equals applying the law
    levelwise, then the law again on the level-two weighting, then
    collapsing each result."""
    left = delta_bruteforce(fs_mult(xi))
    mapped = finsupp(
        xi.semiring, [(tuple(delta_bruteforce(K)), w) for K, w in xi.items()])
    right = sorted_unique(fs_mult(e) for e in delta_bruteforce(mapped))
    return _unless(left == right, xi=xi, left=left, right=right)


def _mu_S_violation_hull(xi: FinSupp) -> dict | None:
    """Same rectangle without a finite carrier (qplus).  The right leg
    is the law applied levelwise (giving convex sets), then ``alpha``,
    the weighted Minkowski sum that is the generator-level reduction of
    law-then-collapse."""
    left = delta_hull(fs_mult(xi))
    # Equal law values merge by adding their weights: over a
    # semifield w1*A + w2*A = (w1+w2)*A for convex A.
    right = alpha(finsupp(xi.semiring,
                          [(delta_hull(K), w) for K, w in xi.items()]))
    return _unless(cs_equal(left, right), xi=xi, left=left, right=right)


def _union_key(A_of_sets: tuple) -> tuple:
    return set_key(x for A in A_of_sets for x in A)


def _mu_P_violation_listed(theta: FinSupp) -> dict | None:
    """Multiplication rectangle on the set side (enumerable carriers):
    uniting each family of sets first and applying the law equals
    applying the law to the family weighting, then the law to each
    resulting set weighting, then uniting the outputs."""
    merged = finsupp(theta.semiring,
                     [(_union_key(K), w) for K, w in theta.items()])
    left = delta_bruteforce(merged)
    right_items: list[FinSupp] = []
    for chi in delta_bruteforce(theta):
        right_items.extend(delta_bruteforce(chi))
    right = sorted_unique(right_items)
    return _unless(left == right, theta=theta, left=left, right=right)


def _mu_P_violation_hull(theta: FinSupp) -> dict | None:
    """qplus version.  The right leg reduces to the choice weightings
    of the family: the union over a whole hull of convex sets equals
    the hull of the union over its generators."""
    sr = theta.semiring
    merged = finsupp(sr, [(_union_key(K), w) for K, w in theta.items()])
    left = delta_hull(merged)
    right = cs_join_all([delta_hull(chi) for chi in choice_set(theta)], sr)
    return _unless(cs_equal(left, right), theta=theta, left=left,
                   right=right)


def _eta_S_violation(sr: Semiring, A: tuple) -> dict | None:
    """The dropped unit triangle: the law on the one-set weighting of A
    against the plain set of one-element weightings of A.  Holds iff
    sums to one force a zero summand; fails already at a two-element
    set otherwise, and the counterexample is reported."""
    Phi = set_weighting(sr, [(A, sr.one)])
    diracs = sorted_unique(fs_unit(sr, x) for x in A)
    if sr.enumeration is not None:
        got = delta_bruteforce(Phi)
        if got != diracs:
            extra = next(p for p in got if p not in diracs)
            return {"A": A, "law_value": got, "units_only": diracs,
                    "extra": extra}
    elif len(A) >= 2:
        hull = delta_hull(Phi)
        avg = finsupp(sr, [(x, Fraction(1, len(A))) for x in A])
        if member(hull, avg) and avg not in diracs:
            return {"A": A, "hull": hull, "units_only": diracs,
                    "extra": avg}
    return None


def weak_law_instance_count(xsize: int, sr: Semiring = BOOL,
                            value_bound: int = 2) -> int:
    """How many instances the weak-law suite checks at ``xsize`` over
    an enumerating semiring, summed over its four diagrams, without
    enumerating.  With S = 2^xsize subsets and v nonzero scalars (one
    over bool; ``value_bound`` over nat), the unit triangle on the
    weighting side checks (1 + v)^xsize weightings and the one on the
    set side the S subsets; each rectangle checks 1 + P v + C(P, 2) v^2
    weightings of a pool of P level-one weightings or families, of
    which there are 1 + S v + C(S, 2) v^2 and 1 + S + C(S, 2).  A
    bounded enumeration keeps the first 40 and 15 of them."""
    bounded = sr.enumeration == MODE_BOUNDED
    v = max(value_bound, 0) if bounded else len(sr.carrier(None)) - 1
    s = 2 ** xsize

    def pairs_at_most(pool: int) -> int:
        return 1 + pool * v + math.comb(pool, 2) * v * v

    level1 = pairs_at_most(s)
    families = _at_most_two(s)
    if bounded:
        level1, families = min(level1, 40), min(families, 15)
    return ((1 + v) ** xsize + pairs_at_most(level1)
            + pairs_at_most(families) + s)


def check_weak_law(sr: Semiring, xsize: int = 2, trials: int = 50,
                   seed: int = 0, value_bound: int = 2) -> list[LawReport]:
    """Evaluate the weak-law diagrams for one semiring.

    bool and nat run bounded-exhaustive enumerations (weightings with
    support size at most two over all subsets of an xsize-element
    universe; nat weights up to value_bound).  qplus runs seeded random
    trials through the hull route.  Returns one report per diagram; the
    unit triangle on the set side walks every subset of the universe
    and is expected, before it runs, to hold exactly where every subset
    is convex (property A, nat only) or no subset has two elements
    (xsize 1), and to fail elsewhere.
    """
    _check_ranges(xsize, trials)
    universe = list(SYMBOL_POOL[:xsize])
    sets_pool = _sets_universe(universe)
    families = [set_key(f) for r in range(0, 3)
                for f in itertools.combinations(sets_pool, r)]

    if sr.enumeration is not None:
        mode = sr.enumeration
        # A bounded enumeration also caps the second-level pools; an
        # exhaustive one keeps them whole.
        bounded = mode == MODE_BOUNDED
        bound = f" and value bound {value_bound}" if bounded else ""
        _refuse_oversized(f"weakdist over {sr.id} at xsize {xsize}{bound}",
                          weak_law_instance_count(xsize, sr, value_bound),
                          LIMITS["weakdist"])
        phis = weightings_over(sr, universe, len(universe), value_bound)
        level1 = weightings_over(sr, sets_pool, 2, value_bound)
        xis = weightings_over(sr, level1[:40] if bounded else level1, 2,
                              value_bound)
        thetas = weightings_over(sr, families[:15] if bounded else families,
                                 2, value_bound)
        mu_S, mu_P = _mu_S_violation_listed, _mu_P_violation_listed
        eta_S_failure = "law output strictly contains the one-element " \
                        "weightings"
    else:
        # The checks draw nothing: drawing all pools first keeps the stream.
        rng = random.Random(seed)
        mode = MODE_RANDOMIZED
        phis = [_random_qplus_weighting(rng, sr, universe, len(universe))
                for _ in range(trials)]
        level1 = [_random_qplus_weighting(rng, sr, sets_pool, 2)
                  for _ in range(trials)]
        xis = [_random_qplus_weighting(rng, sr, level1, 2)
               for _ in range(trials)]
        thetas = [_random_qplus_weighting(rng, sr, families, 2)
                  for _ in range(trials)]
        mu_S, mu_P = _mu_S_violation_hull, _mu_P_violation_hull
        eta_S_failure = "hull of one-element weightings contains their " \
                        "average, the plain set does not"

    report = functools.partial(law_report, sr=sr, mode=mode, seed=seed,
                               trials=trials)
    # eta_S walks every subset over every semiring; below xsize 2 none
    # has the two elements it fails on.
    holds = sr.hull_membership == HULL_LOOKUP or xsize < 2
    return [
        report("eta_P_triangle", instances=phis, check=_eta_P_violation),
        report("mu_S_rectangle", instances=xis, check=mu_S),
        report("mu_P_rectangle", instances=thetas, check=mu_P),
        law_report("eta_S_triangle", sr, MODE_EXHAUSTIVE, sets_pool,
                   functools.partial(_eta_S_violation, sr),
                   detail="triangle holds", fail_detail=eta_S_failure,
                   expected=PASS if holds else FAIL),
    ]


# ---------------------------------------------------------------------------
# naturality
# ---------------------------------------------------------------------------

def _map_set_weighting(f: Mapping, Phi: FinSupp) -> FinSupp:
    """Image of a set weighting under a symbol map: keys are mapped
    elementwise (images may collide and merge), weights of colliding
    keys add."""
    sr = Phi.semiring
    return finsupp(sr, [(set_key(f[x] for x in A), w)
                        for A, w in Phi.items()])


def _weight_one_instances(sr: Semiring, law: Callable, universe: Sequence[str],
                          sizes: Iterable[int]) -> Iterator[tuple]:
    """Each weight-one family Phi of ``sizes`` nonempty subsets of the
    universe with ``law(Phi)``, for every self-map of the universe."""
    nonempty = [s for s in _sets_universe(universe) if s]
    for r in sizes:
        for fam in itertools.combinations(nonempty, r):
            Phi = set_weighting(sr, [(A, sr.one) for A in fam])
            value = law(Phi)
            for f_vals in itertools.product(universe, repeat=len(universe)):
                yield Phi, value, dict(zip(universe, f_vals))


def _naturality_violation_hull(instance: tuple) -> dict | None:
    Phi, f = instance
    left = delta_hull(_map_set_weighting(f, Phi))
    right = pc_map(f, delta_hull(Phi))
    return _unless(cs_equal(left, right), Phi=Phi, f=f, left=left,
                   right=right)


def _naturality_violation_listed(law: Callable, instance: tuple
                                 ) -> dict | None:
    """Naturality of a law that lists its weightings (the brute force
    or the bare choice set): the law of the mapped set weighting
    against the mapped outputs of the law, given as ``value``."""
    Phi, value, f = instance
    left = sorted_unique(law(_map_set_weighting(f, Phi)))
    right = sorted_unique(fs_map(f, phi) for phi in value)
    return _unless(left == right, Phi=Phi, f=f, left=left, right=right)


def check_naturality(sr: Semiring, xsize: int = 3, trials: int = 50,
                     seed: int = 0) -> list[LawReport]:
    """Two findings: the hull route is natural (checked on random qplus
    instances or bounded-exhaustive bool instances), while the bare
    choice set is not, and a violating instance must be found by
    search.  The search widens its universe rather than pass silently.
    """
    _check_ranges(xsize, trials)
    # The weight-one families of at most two sets, under every self-map:
    # the enumerated delta stream, and the choice search's first universe
    # up to its families of two, for every semiring.
    _refuse_oversized(f"naturality over {sr.id} at xsize {xsize}",
                      _at_most_two(2 ** xsize - 1) * xsize ** xsize,
                      LIMITS["naturality"])
    universe = list(SYMBOL_POOL[:xsize])
    if sr.enumeration is None:
        rng = random.Random(seed)
        sets_pool = [s for s in _sets_universe(universe) if s]
        # Phi is drawn before f in every trial.
        instances = ((_random_qplus_weighting(rng, sr, sets_pool, 3),
                      {x: rng.choice(universe) for x in universe})
                     for _ in range(trials))
        delta = law_report("delta_naturality", sr, MODE_RANDOMIZED,
                           instances, _naturality_violation_hull,
                           seed=seed, trials=trials)
    else:
        instances = _weight_one_instances(sr, delta_bruteforce, universe,
                                          (0, 1, 2))
        delta = law_report("delta_naturality", sr, MODE_BOUNDED, instances,
                           functools.partial(_naturality_violation_listed,
                                             delta_bruteforce))
    search = (instance for size in range(max(2, xsize), 7)
              for instance in _weight_one_instances(
                  sr, choice_set, SYMBOL_POOL[:size], (1, 2, 3)))
    choice = law_report(
        "choice_naturality", sr, MODE_BOUNDED, search,
        functools.partial(_naturality_violation_listed, choice_set),
        detail="no violation found even after widening the search; "
               "this contradicts the expected non-naturality",
        fail_detail="bare choice set is not natural; violation found",
        expected=FAIL)
    return [delta, choice]


# ---------------------------------------------------------------------------
# pentagon coherence for composite algebras
# ---------------------------------------------------------------------------

def _interval(sr: Semiring, lo: Scalar, hi: Scalar) -> ConvexSet:
    """The closed interval [lo, hi] as a convex set on the one symbol
    x: the hull of its two endpoints."""
    return hull_canonicalize([finsupp(sr, [("x", lo)]),
                              finsupp(sr, [("x", hi)])], sr)


def pentagon_check(algebra: str, Phi: FinSupp) -> LawReport:
    """Coherence pentagon for one composite-algebra instance: joining
    each family inside the weighting and then taking the weighted sum
    ``alpha`` equals applying the law, then ``alpha`` on every choice,
    and joining the results.

    Both algebras share one carrier, the convex sets over the
    weighting's semiring: "free" names any of them, "interval" the
    qplus sets on one symbol, the closed intervals of the free algebra
    on one generator.  The report's meta adds both sides, ``left``
    and ``right``, after the driver's own keys.
    """
    if algebra not in ("free", "interval"):
        raise ConvexmodError(f"unknown algebra {algebra!r}")
    sr = Phi.semiring
    left = alpha(finsupp(
        sr, [(cs_join_all(list(K), sr), w) for K, w in Phi.items()]))
    right = cs_join_all([alpha(chi) for chi in choice_set(Phi)], sr)
    return law_report(
        f"pentagon:{algebra}", sr, MODE_EXHAUSTIVE, [Phi],
        lambda Phi: _unless(cs_equal(left, right), Phi=Phi, left=left,
                            right=right),
        meta={"left": left, "right": right})


def _carrier_sets(sr: Semiring, phis: Sequence[FinSupp]) -> list[ConvexSet]:
    """Every convex set on the full pool ``phis``: all subsets' hulls."""
    return sorted_unique(
        hull_canonicalize(list(combo), sr)
        for r in range(0, len(phis) + 1)
        for combo in itertools.combinations(phis, r))


def _at_most_two(n: int) -> int:
    """How many subsets of at most two elements n things have."""
    return 1 + n + math.comb(n, 2)


def _random_family_weighting(rng: random.Random, sr: Semiring,
                             pool: Sequence[ConvexSet]) -> FinSupp:
    """A seeded weighting of one or two random families from ``pool``."""
    keys = []
    for _ in range(rng.randint(1, 2)):
        fam = tuple(rng.sample(pool, rng.randint(1, len(pool))))
        keys.append((set_key(fam), _random_fraction(rng)))
    return finsupp(sr, keys)


def _random_free_families(rng: random.Random, sr: Semiring,
                          universe: Sequence[str], trials: int
                          ) -> Iterator[FinSupp]:
    """Seeded weightings of families of one or two random hulls."""
    for _ in range(trials):
        sets = []
        for _ in range(rng.randint(1, 2)):
            gens = [_random_qplus_weighting(rng, sr, universe, len(universe))
                    for _ in range(rng.randint(1, 2))]
            sets.append(hull_canonicalize(gens, sr))
        yield _random_family_weighting(rng, sr, sets)


def _random_interval_families(rng: random.Random, sr: Semiring,
                              trials: int) -> Iterator[FinSupp]:
    """Seeded weightings of families of random intervals on x, the
    empty interval among them one time in five."""
    for _ in range(trials):
        ivs = [_interval(sr, *sorted((_random_fraction(rng, allow_zero=True),
                                      _random_fraction(rng, allow_zero=True))))
               for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            ivs.append(cs_empty(sr))
        yield _random_family_weighting(rng, sr, ivs)


def _sum_rule_violation(Phi: FinSupp) -> dict | None:
    frozen = pentagon_check("interval", Phi)
    got = frozen.meta["left"]
    return _unless(frozen.passed and got == _interval(Phi.semiring, 6, 8),
                   got=got)


def check_pentagon_law(sr: Semiring, xsize: int = 2, trials: int = 50,
                       seed: int = 0) -> list[LawReport]:
    """Pentagon suite over one semiring.

    bool: bounded-exhaustive families (every convex set over the
    symbols, families of at most two sets, weightings of support at
    most two): 1 + F + C(F, 2) weightings over F = 1 + C + C(C, 2)
    families of the C carrier sets, counted before the walk.  Above
    xsize 3 the carrier is not listed: its empty set, N = 2^xsize points
    and their two-point hulls give C >= 1 + N + C(N, 2).  qplus:
    seeded random families for the free algebra and the interval
    algebra, plus the frozen two-singleton interval instance whose
    answer is the endpoint sum [6, 8].
    """
    _check_ranges(xsize, trials)
    if not sr.is_semifield:
        raise ConvexmodError(
            "pentagon suite needs a positive semifield (bool or qplus)")
    universe = list(SYMBOL_POOL[:xsize])
    if sr.enumeration is not None:
        phis = weightings_over(sr, universe, len(universe), None)
        what = f"pentagon over {sr.id} at xsize {xsize}"
        if 2 ** len(phis) > 512:
            least = _at_most_two(_at_most_two(_at_most_two(len(phis))))
            _refuse_oversized(what, least, LIMITS["pentagon"], message=(
                f"{what} enumerates at least {least:,} instances; "
                f"at most {LIMITS['pentagon']:,} are allowed"))
        carrier = _carrier_sets(sr, phis)
        _refuse_oversized(what, _at_most_two(_at_most_two(len(carrier))),
                          LIMITS["pentagon"])
        families = [set_key(F) for r in range(0, 3)
                    for F in itertools.combinations(carrier, r)]
        Phis = weightings_over(sr, families, 2, None)
        return [law_report(
            "pentagon:free", sr, MODE_BOUNDED, Phis,
            lambda Phi: pentagon_check("free", Phi).counterexample,
            detail=f"{len(Phis)} weightings of {len(families)} families "
                   f"over {len(carrier)} carrier sets")]

    rng = random.Random(seed)
    reports = []
    for algebra, instances in (
            ("free", _random_free_families(rng, sr, universe, trials)),
            ("interval", _random_interval_families(rng, sr, trials))):
        reports.append(law_report(
            f"pentagon:{algebra}", sr, MODE_RANDOMIZED, instances,
            lambda Phi: pentagon_check(algebra, Phi).counterexample,
            detail=f"{trials} random families", seed=seed, trials=trials))
        if not reports[-1].passed:
            return reports

    # frozen instance: summing the two singleton families [1,2] and
    # [5,6] must land on the endpoint sums [6, 8]
    Phi = finsupp(sr, [(set_key([_interval(sr, 1, 2)]), Fraction(1)),
                       (set_key([_interval(sr, 5, 6)]), Fraction(1))])
    detail = "[1,2] + [5,6] = [6,8]"
    reports.append(law_report(
        "pentagon:interval:sum_rule", sr, MODE_EXHAUSTIVE, [Phi],
        _sum_rule_violation, detail=detail, fail_detail=detail))
    return reports


# ---------------------------------------------------------------------------
# Barr extension and the naive alternative
# ---------------------------------------------------------------------------

def barr_extend(R: Relation, sr: Semiring, value_bound: int = 2):
    """Extension of a relation to weightings: phi relates to xi iff
    some weighting of the relation's pairs has phi and xi as its two
    marginals.  Enumerable over bool and value-bounded nat."""
    if sr.enumeration is None:
        raise ConvexmodError(
            "barr extension is enumerable only over bool or bounded nat")
    values = sr.carrier(value_bound)
    pairs = list(R.pairs)
    rel_pairs = sorted_unique(
        (finsupp(sr, [(x, wi) for (x, _y), wi in zip(pairs, w)]),
         finsupp(sr, [(y, wi) for (_x, y), wi in zip(pairs, w)]))
        for w in itertools.product(values, repeat=len(pairs)))
    domain = weightings_over(sr, list(R.domain), len(R.domain), value_bound)
    # Fibres that merge can push an image past the bound, so the
    # codomain also takes every image the pairs reach.
    codomain = sorted_unique([xi for _phi, xi in rel_pairs] + weightings_over(
        sr, list(R.codomain), len(R.codomain), value_bound))
    return Relation(tuple(domain), tuple(codomain), tuple(rel_pairs))


def trivialE_extend(R: Relation) -> dict[tuple, tuple]:
    """The naive forward-image extension on subsets: A goes to the set
    of right endpoints reachable from A.  Simple, but not a lawful
    relational extension, which the test instances exhibit."""
    out: dict[tuple, tuple] = {}
    elems = list(R.domain)
    for r in range(len(elems) + 1):
        for A in itertools.combinations(elems, r):
            image = set_key(y for a in A for y in R.image(a))
            out[set_key(A)] = image
    return out


def trivial_law(family: Iterable[Iterable[Any]]) -> list[tuple]:
    """The one-point weak law induced by the naive extension: a family
    of sets goes to the singleton holding its union."""
    return [set_key(x for A in family for x in A)]


def _fixed_point_violation(fam: tuple) -> dict | None:
    image = trivial_law(fam)
    fixed = list(fam) == image
    singleton = len(fam) == 1 and fam[0] == image[0]
    return _unless(fixed == singleton, family=fam, image=image)


def trivial_lifting_fixed_points(xsize: int = 3) -> LawReport:
    """The induced idempotent on subsets of the powerset algebra sends
    a family to the singleton of its union; its fixed points should be
    exactly the one-element families.  Checked exhaustively; meta adds
    ``families``, how many families there are, which ``instances``
    reaches only when the report passes."""
    sets_pool = _sets_universe(list(SYMBOL_POOL[:xsize]))
    families = (fam for r in range(len(sets_pool) + 1)
                for fam in itertools.combinations(sets_pool, r))
    return law_report("trivial_lifting_fixed_points", BOOL, MODE_EXHAUSTIVE,
                      families, _fixed_point_violation,
                      meta={"families": 2 ** len(sets_pool)})


def _forward_image_violation(pair: tuple) -> dict | None:
    R, S = pair
    img_r, img_s = trivialE_extend(R)[(0,)], trivialE_extend(S)[(0,)]
    return _unless(set(R.pairs) < set(S.pairs) and img_r == (1,)
                   and img_s == (1, 2), img_r=img_r, img_s=img_s)


def check_appendix_a(sr: Semiring = BOOL, xsize: int = 3
                     ) -> list[LawReport]:
    """The naive forward-image extension, over bool only: the frozen
    inclusion pair showing its image depends on more than the input
    set, and the lifting idempotent whose fixed points are exactly
    singletons."""
    _check_ranges(xsize)
    if sr.enumeration != MODE_EXHAUSTIVE:
        raise ConvexmodError(
            f"appendixA runs over bool only; got --semiring {sr.id}")
    limit = LIMITS["appendixA"]
    most = max((x for x in range(len(SYMBOL_POOL) + 1)
                if 2 ** 2 ** x <= limit), default=0)
    _refuse_oversized("appendixA", 2 ** 2 ** xsize, limit, message=(
        f"appendixA enumerates 2^(2^xsize) families; xsize must be at most "
        f"{most}"))
    R = Relation((0, 1, 2), (0, 1, 2), ((0, 1),))
    S = Relation((0, 1, 2), (0, 1, 2), ((0, 1), (0, 2)))
    detail = "E(R)({0}) = {1} differs from E(S)({0}) = {1, 2} for R in S"
    frozen = law_report("appendixA:forward_image", BOOL, MODE_EXHAUSTIVE,
                        [(R, S)], _forward_image_violation, detail=detail,
                        fail_detail=detail)
    return [frozen, trivial_lifting_fixed_points(xsize)]


_RANDOM = {None: ("trials", "seed")}
# The law suites by name, in the order the command line lists them, each
# with the options its runs read besides xsize, by the enumeration mode
# of the semiring: None for seeded random trials.
SUITES = {"weakdist": (check_weak_law,
                       {**_RANDOM, MODE_BOUNDED: ("value_bound",)}),
          "pentagon": (check_pentagon_law, _RANDOM),
          "naturality": (check_naturality, _RANDOM),
          "appendixA": (check_appendix_a, {})}


def run_laws(name: str, semiring: str | None = None,
             seed_override: int | None = None, **given) -> list[LawReport]:
    """The reports of the suite ``name`` over ``semiring`` (bool for
    appendixA, qplus otherwise), with only the options given; the suite
    supplies the rest.  A given option that the run would not read is
    refused.  ``seed_override`` replaces the seed of a randomized run
    and is ignored by an enumerating one."""
    suite, by_mode = SUITES[name]
    sr = get_semiring(semiring or ("bool" if name == "appendixA" else "qplus"))
    reads = ("xsize", *by_mode.get(sr.enumeration, ()))
    for option in given:
        if option not in reads:
            flag = option.replace("_", "-")
            raise ConvexmodError(f"{name} over {sr.id} does not read --{flag}")
    if seed_override is not None and "seed" in reads:
        given["seed"] = seed_override
    return suite(sr, **given)
