"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms from
the package under test, so agreement between the two is evidence, not
tautology:

* ``feasible_by_elimination`` decides nonnegative linear feasibility by
  enumerating generator subsets of size at most rows+1 and solving each
  square-ish system by Gaussian elimination over exact Fractions (a
  basic feasible solution uses at most rank-many columns, so subset
  enumeration is complete).  The package uses a simplex phase instead.
* ``feasible_by_fraction_simplex`` is the package's former kernel: the
  same phase-1 simplex with Bland's rule, pivoting over ``Fraction``
  instead of fraction-free integers.  Both take the same pivots, so the
  two must return the identical witness, not just agree on
  feasibility.
* ``bool_member_by_subsets`` decides bool-semiring hull membership by
  brute force over all generator subsets.  The package uses the
  closed-form union rule.
* ``interval_hull_1d`` computes the hull of rational points on one
  coordinate as a closed interval, and ``iv_add``, ``iv_scale``,
  ``iv_join`` and ``iv_weighted_sum`` build direct interval arithmetic
  on it: endpoint sums, products and hulls of ``(lo, hi)`` pairs, None
  being the empty interval.  The package keeps intervals as one-symbol
  convex sets and sums them with ``composite.alpha``, through the hull
  canonicalizer.
* ``bool_law_by_slice_products`` evaluates the bool weak law by its
  raw definition: one nonempty subset per supported set, product over
  sets, union per product.  The package filters subsets of the union
  instead.
* ``nat_law_by_slice_products`` is the package's former nat route to
  the weak law: one composition of each set's weight per supported
  set, the product over sets, and one validated ``finsupp`` per
  product, deduplicated and sorted at the end.  The package folds the
  per-set compositions into a set of integer sums instead.
* ``fs_equal_extensional`` compares two finitely supported functions
  by evaluating both on the union of their supports.  The package
  compares canonical entry tuples.
* ``canonical_by_fixpoint`` is the package's former canonicalizer: it
  sweeps the sorted generators, deleting each one in the hull of the
  others, until a whole sweep deletes nothing, with membership decided
  by the oracles above (``qplus_member_by_elimination``,
  ``qplus_member_by_fraction_simplex`` for many generators,
  ``bool_member_by_supports``).  Over qplus the package tests each
  generator against the extreme points found so far; over bool it
  makes one pass.
* ``weighted_generator_hull`` is the package's former second weighted
  Minkowski sum: the hull of every weighted sum that picks one
  generator per key, built in one go.  The package folds the scaled
  keys pairwise with ``cs_add`` in ``composite.alpha``.
* ``nested_sort_key`` is the package's former sort key: a FinSupp
  value keys on ``(2, id, ((key's sort key, value), ...))``, one pair
  per entry, and a convex set on the tuple of its generators' nested
  keys.  The package lays each entry out flat, its key's sort key and
  its value in two slots of one tuple.
* ``eval_term_by_walk`` is the package's former evaluator: one walk
  over the term that computes every node, a repeated subterm once per
  occurrence.  The package computes each distinct subterm once.
* ``delta_hull_by_choices`` is the package's former qplus route to
  the weak law: the hull canonicalizer, LPs included, on every choice
  function.  The package lists the greedy vertices instead.
* ``fs_scale_by_finsupp`` and ``cs_scale_by_convex_set`` are the
  package's former scaling routes: every scaled pair goes back through
  the validating ``finsupp`` (validate, merge, drop zeros, sort), and
  the scaled generators back through a dedup and sort.  The package
  maps entries and generators in order instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from convexmod.composite import pc_unit
from convexmod.convex import (ConvexSet, cs_add, cs_empty, cs_join_all,
                              cs_scale, cs_zero, hull_canonicalize)
from convexmod.errors import (ConvexmodError, SemiringMismatchError,
                              UnmappedSymbolError)
from convexmod.distlaw import choice_set, weak_compositions
from convexmod.freemod import (FinSupp, finsupp, fs_add, fs_scale, fs_zero,
                               sorted_unique)
from convexmod.semiring import Scalar, Semiring
from convexmod.terms import Add, Bot, Scale, Term, Var, Zero, _postorder


def bool_law_by_slice_products(key_sets: Sequence[Sequence[str]]
                               ) -> set[frozenset]:
    """Definitional enumeration of the bool law on a family of sets
    (all weights are 1): pick a nonempty slice of every set, output the
    union, collect the distinct results."""
    if any(len(A) == 0 for A in key_sets):
        return set()
    if not key_sets:
        return {frozenset()}
    slice_options = []
    for A in key_sets:
        opts = []
        for r in range(1, len(A) + 1):
            opts.extend(frozenset(c) for c in combinations(A, r))
        slice_options.append(opts)
    out = set()
    for slices in product(*slice_options):
        out.add(frozenset().union(*slices))
    return out


def nat_law_by_slice_products(Phi: FinSupp) -> list[FinSupp]:
    """Definitional enumeration of the nat law on a set weighting: every
    combination of one composition of Phi(A) over A per supported set A,
    each made a weighting through ``finsupp``, distinct and in
    ``sort_key`` order."""
    sr = Phi.semiring
    keys = list(Phi.support())
    if any(len(A) == 0 for A in keys):
        return []
    if not keys:
        return [fs_zero(sr)]
    per_set = []
    for A in keys:
        options = []
        for comp in weak_compositions(Phi.value(A), len(A)):
            options.append([(x, c) for x, c in zip(A, comp) if c > 0])
        per_set.append(options)
    seen = set()
    for slices in product(*per_set):
        seen.add(finsupp(sr, [pair for slice_ in slices for pair in slice_]))
    return sorted_unique(seen)


def delta_hull_by_choices(Phi: FinSupp) -> ConvexSet:
    """The weak law as the canonical hull of the choice set."""
    return hull_canonicalize(choice_set(Phi), Phi.semiring)


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over Fractions.

    Returns the unique solution vector if the system has one, the
    string "many" if it is underdetermined but consistent, or None if
    inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivot_cols) < n:
        return "many"
    x = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return x


def feasible_by_elimination(
        columns: Sequence[Sequence[Fraction]],
        target: Sequence[Fraction]):
    """Find x >= 0 with sum_j x_j * columns[j] = target, or None.

    Complete because any feasible system has a basic feasible solution
    supported on linearly independent columns, of which there are at
    most len(target).
    """
    m = len(target)
    n = len(columns)
    b = [Fraction(v) for v in target]
    if all(v == 0 for v in b):
        return [Fraction(0)] * n
    max_k = min(n, m)
    for k in range(1, max_k + 1):
        for subset in combinations(range(n), k):
            rows = [[Fraction(columns[j][i]) for j in subset]
                    for i in range(m)]
            sol = solve_exact(rows, b)
            if sol is None or sol == "many":
                # "many" means dependent columns; any solution there is
                # reproducible with a strictly smaller subset.
                continue
            if all(v >= 0 for v in sol):
                x = [Fraction(0)] * n
                for idx, j in enumerate(subset):
                    x[j] = sol[idx]
                for i in range(m):
                    assert sum(x[j] * Fraction(columns[j][i])
                               for j in range(n)) == b[i]
                return x
    return None


def feasible_by_fraction_simplex(
        columns: Sequence[Sequence[Fraction]],
        target: Sequence[Fraction]):
    """Phase-1 simplex over Fractions (int entries are read as
    Fractions) on the system as given, unscaled: a witness list or
    None."""
    m = len(target)
    n = len(columns)

    if m == 0:
        return [Fraction(0)] * n

    # Row i of the tableau: the i-th coordinate across columns, with the
    # sign flipped where the target coordinate is negative so b >= 0.
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(m):
        sign = -1 if target[i] < 0 else 1
        rows.append([sign * Fraction(columns[j][i]) for j in range(n)])
        b.append(sign * Fraction(target[i]))

    # Append the artificial identity block: tableau is m x (n + m).
    total = n + m
    for i in range(m):
        rows[i].extend(Fraction(1) if k == i else Fraction(0)
                       for k in range(m))
    basis = list(range(n, n + m))

    while True:
        # Reduced cost of column j for the phase-1 objective
        # (artificials cost 1, real columns cost 0).
        in_basis_artificial = [i for i in range(m) if basis[i] >= n]

        def reduced_cost(j: int) -> Fraction:
            cost = Fraction(1) if j >= n else Fraction(0)
            return cost - sum((rows[i][j] for i in in_basis_artificial),
                              Fraction(0))

        entering = -1
        for j in range(total):
            if j in basis:
                continue
            if reduced_cost(j) < 0:
                entering = j
                break
        if entering < 0:
            break

        # Bland leaving rule: minimal ratio, ties by smallest basic index.
        leaving = -1
        best: tuple[Fraction, int] | None = None
        for i in range(m):
            if rows[i][entering] > 0:
                ratio = b[i] / rows[i][entering]
                cand = (ratio, basis[i])
                if best is None or cand < best:
                    best = cand
                    leaving = i
        if leaving < 0:
            raise ConvexmodError(
                "phase-1 objective unbounded; inconsistent tableau")

        piv = rows[leaving][entering]
        rows[leaving] = [v / piv for v in rows[leaving]]
        b[leaving] /= piv
        for i in range(m):
            if i == leaving:
                continue
            factor = rows[i][entering]
            if factor == 0:
                continue
            rows[i] = [rows[i][k] - factor * rows[leaving][k]
                       for k in range(total)]
            b[i] -= factor * b[leaving]
        basis[leaving] = entering

    residual = sum((b[i] for i in range(m) if basis[i] >= n), Fraction(0))
    if residual != 0:
        return None

    witness = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            witness[basis[i]] = b[i]
    return witness


def bool_member_by_subsets(generator_supports: Sequence[frozenset],
                           phi_support: frozenset) -> bool:
    """phi is in the bool hull iff some nonempty generator subset,
    each element below phi, joins exactly to phi.  Brute force."""
    gens = list(generator_supports)
    for k in range(1, len(gens) + 1):
        for subset in combinations(gens, k):
            if not all(s <= phi_support for s in subset):
                continue
            union: set = set()
            for s in subset:
                union |= s
            if union == phi_support:
                return True
    return False


def interval_hull_1d(points: Sequence[Fraction]):
    """Hull of rational points on a line: (min, max), or None if empty."""
    if not points:
        return None
    pts = [Fraction(p) for p in points]
    return (min(pts), max(pts))


def iv_add(a, b):
    """Endpoint sum of two intervals; the empty one absorbs."""
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


def iv_scale(lam, a):
    """lam * a; zero times any interval, the empty one included, is
    the point 0."""
    lam = Fraction(lam)
    if lam == 0:
        return (Fraction(0), Fraction(0))
    if a is None:
        return None
    return (lam * a[0], lam * a[1])


def iv_join(items):
    """Hull of a union of intervals: the hull of their endpoints, so
    the empty ones add nothing, and no nonempty one gives the empty
    interval."""
    return interval_hull_1d([x for a in items if a is not None for x in a])


def iv_weighted_sum(items):
    """Sum of ``lam * a`` over ``(a, lam)`` pairs, from the point 0."""
    acc = (Fraction(0), Fraction(0))
    for a, lam in items:
        acc = iv_add(acc, iv_scale(lam, a))
    return acc


def fs_equal_extensional(a, b) -> bool:
    """Equality by evaluation everywhere on the union of the supports.
    Values over different semirings are never equal."""
    if a.semiring.id != b.semiring.id:
        raise SemiringMismatchError(
            f"mixed semirings: {a.semiring.id} vs {b.semiring.id}")
    keys = list(a.support()) + list(b.support())
    return all(a.value(k) == b.value(k) for k in keys)


def qplus_member_by_elimination(gens, phi) -> bool:
    """Hull membership over qplus for symbol-keyed values: the
    homogenized system solved by subset elimination."""
    keys = sorted({k for g in list(gens) + [phi] for k in g.support()})
    columns = [[g.value(k) for k in keys] + [Fraction(1)] for g in gens]
    target = [phi.value(k) for k in keys] + [Fraction(1)]
    return feasible_by_elimination(columns, target) is not None


def qplus_member_by_fraction_simplex(gens, phi) -> bool:
    """Hull membership over qplus for symbol-keyed values: the
    homogenized system solved by the Fraction simplex, which stays
    fast for many generators."""
    keys = sorted({k for g in list(gens) + [phi] for k in g.support()})
    columns = [[g.value(k) for k in keys] + [Fraction(1)] for g in gens]
    target = [phi.value(k) for k in keys] + [Fraction(1)]
    return feasible_by_fraction_simplex(columns, target) is not None


def bool_member_by_supports(gens, phi) -> bool:
    return bool_member_by_subsets([frozenset(g.support()) for g in gens],
                                  frozenset(phi.support()))


def canonical_by_fixpoint(generators, member) -> tuple:
    """Sorted, deduplicated generators with every one in the hull of the
    others deleted, sweeping until a sweep deletes nothing."""
    current = sorted(set(generators))
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current):
            rest = current[:i] + current[i + 1:]
            if rest and member(rest, current[i]):
                current.pop(i)
                changed = True
            else:
                i += 1
    return tuple(current)


def weighted_generator_hull(sr: Semiring,
                            weighted_sets: Sequence[tuple[ConvexSet, Scalar]]
                            ) -> ConvexSet:
    """Hull of { sum_i w_i * g_i : g_i a generator of the i-th set }.

    This is the composite leg "law, then elementwise multiplication,
    then closure" reduced to generators; an empty set among the keys
    kills every choice, and an empty key list leaves the single empty
    sum, the zero weighting."""
    gen_lists = []
    weights = []
    for A, w in weighted_sets:
        gen_lists.append(A.generators)
        weights.append(w)
    members = []
    for picks in product(*gen_lists):
        acc = fs_zero(sr)
        for w, g in zip(weights, picks):
            acc = fs_add(acc, fs_scale(w, g))
        members.append(acc)
    return hull_canonicalize(members, sr)


def fs_scale_by_finsupp(lam: Scalar, phi: FinSupp) -> FinSupp:
    """lambda * phi rebuilt through ``finsupp`` from the scaled pairs;
    the zero function for lambda = 0."""
    sr = phi.semiring
    lam = sr.validate(lam)
    if sr.is_zero(lam):
        return fs_zero(sr)
    return finsupp(sr, [(k, sr.mul(lam, v)) for k, v in phi.entries])


def cs_scale_by_convex_set(lam: Scalar, A: ConvexSet) -> ConvexSet:
    """lambda * A rebuilt from the scaled generators, deduplicated and
    sorted; {epsilon} for lambda = 0."""
    sr = A.semiring
    lam = sr.validate(lam)
    if sr.is_zero(lam):
        return cs_zero(sr)
    scaled = [fs_scale_by_finsupp(lam, g) for g in A.generators]
    return ConvexSet(sr, tuple(sorted_unique(scaled)), _trusted=True)


def nested_sort_key(value) -> tuple:
    """The sort key of ``value`` with every FinSupp entry as its own
    (key, value) pair, built recursively from the entries and
    generators, never from a cached key."""
    if isinstance(value, str):
        return (0, value)
    if isinstance(value, tuple):
        return (1, len(value), tuple(nested_sort_key(v) for v in value))
    if isinstance(value, FinSupp):
        return (2, value.semiring.id,
                tuple((nested_sort_key(k), v) for k, v in value.entries))
    if isinstance(value, ConvexSet):
        return (3, value.semiring.id,
                tuple(nested_sort_key(g) for g in value.generators))
    if isinstance(value, int) and not isinstance(value, bool):
        return (5, value)
    raise ConvexmodError(f"unorderable key: {value!r}")


def eval_term_by_walk(t: Term, sr: Semiring,
                      variables: Sequence[str]) -> ConvexSet:
    """The denotation of ``t`` with every node computed where the walk
    meets it, however often a subterm repeats."""
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
