"""Exact rational linear feasibility by fraction-free phase-1 simplex.

Decides whether target = sum_j lambda_j * column_j has a solution with
all lambda_j >= 0.  Convex-hull membership reduces to this with one
extra homogenizing row of ones (forcing sum lambda = 1); that encoding,
and scaling a rational system to integers, is the caller's business:
this module only sees integer columns and an integer target of equal
dimension.

The system is solved by the textbook phase-1: one artificial variable
per row, minimize their sum, pivot with Bland's anti-cycling rule
(smallest eligible entering index; smallest ratio, then smallest basic
index, on leaving).  Bland's rule guarantees termination.

The tableau holds Python ints.  Rows whose target coordinate is
negative are negated so the right-hand side is nonnegative.  The
artificial columns stay the unit vectors, so the tableau starts as an
integer matrix over the basis I and pivots fraction-free (Bareiss,
Math. Comp. 1968): one positive common denominator D, every update
divided exactly by the previous pivot, so an entry is the textbook
(``Fraction``) one times D.  That factor cancels in the ratio test
(compared by cross multiplication).

The phase-1 reduced costs ride along as one more row, r, pivoted by
the same update.  It starts as an integer row of that starting matrix
(cost minus the column sums over the artificial basis I: minus the
real columns' sums, 0 on the artificials, minus the summed right-hand
side), and the pivot never falls in it, so each of its entries is a
minor of the starting matrix as well: the Bareiss division stays
exact and r holds D times the textbook reduced costs, integers.  A
basic column's reduced cost is 0, so Bland's entering column is simply
the first j with r_j < 0, and every entering and leaving choice, and
every witness, is the one the textbook tableau gives.  The entry after
the columns is -D times the phase-1 optimum.

Both answers carry evidence checked in integers against the system
before they are returned.  A witness ``v_j / D`` is re-substituted,
multiplied through by D: D > 0, every v_j >= 0 and sum_j v_j a_j = D b;
``Fraction`` weights are built only for the returned witness.  A "no"
comes with a Farkas certificate y, the phase-1 dual read off the
artificial columns: y_k = s_k (D - r_{n+k}) for the row signs s, with
y.a_j <= 0 for every column and y.b > 0.  A failed check is an
``InternalError``.

When phase 1 ends feasible, an artificial still basic sits at level 0
(the optimum is 0).  It is pivoted out on the first nonzero real entry
of its row: a degenerate pivot, so the witness does not change.  Only a
row whose real part is all zero, a redundant equation, keeps its
artificial, so on a system of full row rank every "yes" ends on a basis
of real columns.  A negative pivot would make D negative; the whole
tableau, D included, is negated then, which keeps every entry D times
the textbook one.

A "yes" whose final basis holds only real columns B also hands back
that basis: its column indices and the tableau's artificial block,
which is D * B^-1 of the sign-flipped rows, its columns flipped back to
D * B^-1 in the system's signs.  For another target t over the same
columns, lambda = (D * B^-1) t solves B lambda = D t; when lambda >= 0
it is a witness, and ``basis_solves`` accepts it only after the same
integer re-substitution.  So a caller can settle a later "yes" with one
m x m integer product and no LP, and a "no" still comes from the LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError, InternalError

Vector = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FeasibilitySystem:
    """Integer columns and target of the feasibility question.

    ``columns[j][i]`` is the i-th coordinate of the j-th generator
    column; ``target[i]`` the i-th coordinate of the right-hand side.
    Every entry is an ``int``: the caller scales a rational system to
    integers first, so any other entry is a bug in the package.
    """

    columns: tuple[Vector, ...]
    target: Vector

    def __post_init__(self):
        dim = len(self.target)
        for vec in (self.target, *self.columns):
            if len(vec) != dim:
                raise DimensionMismatchError(
                    f"column of dimension {len(vec)} in a system of "
                    f"dimension {dim}")
            for v in vec:
                if type(v) is not int:
                    raise InternalError(
                        f"system entries must be int, got {v!r}")


def feasible(sys_: FeasibilitySystem,
             certificate: list[int] | None = None,
             basis: list | None = None) -> list[Fraction] | None:
    """Solve the system; a witness list (one weight per column) or None.

    The witness satisfies the equations exactly and is non-negative,
    both asserted by re-substitution; None is returned only after a
    Farkas certificate has been checked against the system.  A caller
    that passes a list as ``certificate`` receives that checked
    certificate in it on a "no": integers y with y.a_j <= 0 for every
    column and y.b > 0.  A caller that passes a list as ``basis``
    receives, on a "yes" whose final basis holds no artificial column
    (every "yes" on a system of full row rank), ``[indices, inverse,
    D]``: the basic column indices, row by row, and D * B^-1 for the
    basis matrix B, so that
    ``sum(inverse[i][k] * b[k]) / D`` is the weight of column
    ``indices[i]``.  ``basis_solves`` tries it on another target.
    Either list is left alone otherwise.
    """
    if not sys_.target:
        return [Fraction(0)] * len(sys_.columns)
    solution, y = _phase1(sys_.columns, sys_.target)
    if solution is None:
        _check_certificate(sys_.columns, sys_.target, y)
        if certificate is not None:
            certificate[:] = y
        return None
    values, denominator, handback = solution
    _assert_witness(sys_, values, denominator)
    if basis is not None and handback is not None:
        basis[:] = handback
    return [Fraction(v, denominator) for v in values]


def basis_solves(columns: Sequence[Sequence[int]], target: Sequence[int],
                 basis: Sequence) -> bool:
    """Whether a basis that ``feasible`` handed back, for a system
    whose columns all stay at their indices in ``columns``, also meets
    ``target``: lambda = (D * B^-1) target is nonnegative and passes
    the integer re-substitution a witness passes.  False means only
    that this basis does not certify it."""
    indices, inverse, denominator = basis
    values = [sum(map(mul, row, target)) for row in inverse]
    return min(values) >= 0 and _witness_fault(
        [columns[j] for j in indices], target, values, denominator) is None


def _phase1(columns: Sequence[Sequence[int]], target: Sequence[int]):
    """Phase-1 simplex on an integer system.

    Returns ``((values, D, handback), None)`` with lambda_j =
    values[j] / D when the system is feasible, and the
    ``[indices, D * B^-1, D]`` that ``feasible`` hands back, or None
    when an artificial column stays basic on a redundant row; or
    ``(None, y)`` with the integer dual y in the system's own signs
    when it is not feasible.
    """
    m = len(target)
    n = len(columns)
    total = n + m
    signs = [-1 if t < 0 else 1 for t in target]
    # Row i: the i-th coordinate of every column, the unit artificial
    # block, the right-hand side; sign-flipped so the right-hand side
    # is nonnegative.
    rows = []
    for i, s in enumerate(signs):
        row = [s * col[i] for col in columns]
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(s * target[i])
        rows.append(row)
    # Row m: the reduced costs of the phase-1 objective (cost 1 on each
    # artificial) over the artificial basis, then minus its value.
    cost = [-sum(col) for col in zip(*rows)]
    cost[n:total] = [0] * m
    rows.append(cost)
    basis = list(range(n, total))
    denom = 1

    while True:
        # Bland: the first negative reduced cost; a basic column's is 0.
        cost = rows[m]
        entering = -1
        for j in range(total):
            if cost[j] < 0:
                entering = j
                break
        if entering < 0:
            break

        leaving = -1
        for i in range(m):
            a = rows[i][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            # rhs_i / a < rhs_l / a_l, both denominators positive.
            lhs = rows[i][-1] * rows[leaving][entering]
            rhs = rows[leaving][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            raise InternalError(
                "phase-1 objective unbounded; inconsistent tableau")

        denom = _pivot(rows, leaving, entering, denom)
        basis[leaving] = entering

    if cost[-1]:
        # The phase-1 dual: D minus the artificial reduced costs, signs
        # restored.
        return None, [s * (denom - cost[n + k]) for k, s in enumerate(signs)]
    # An artificial still basic sits at level 0.  Pivot it out on the
    # first nonzero real entry of its row: the right-hand side there is
    # 0, so the pivot is degenerate and the witness stays.  A negative
    # pivot would make D negative; negating the whole tableau keeps
    # every entry D times the textbook one with D > 0.
    for i in range(m):
        if basis[i] >= n:
            entering = next((j for j in range(n) if rows[i][j]), -1)
            if entering < 0:
                continue  # a redundant row: its artificial stays
            denom = _pivot(rows, i, entering, denom)
            basis[i] = entering
            if denom < 0:
                rows[:] = [[-v for v in row] for row in rows]
                denom = -denom
    values = [0] * n
    for i in range(m):
        if basis[i] < n:
            values[basis[i]] = rows[i][-1]
    handback = None
    if all(j < n for j in basis):
        # The artificial block is D * B^-1 of the sign-flipped rows;
        # flipping its columns back gives D * B^-1 in the system's signs.
        inverse = [row[n:total] for row in rows[:m]]
        if -1 in signs:
            inverse = [list(map(mul, signs, row)) for row in inverse]
        handback = [basis, inverse, denom]
    return (values, denom, handback), None


def _pivot(rows: list[list[int]], leaving: int, entering: int,
           denom: int) -> int:
    """Pivot the tableau ``rows`` in place on (leaving, entering) and
    return the new common denominator, the pivot.  The division by the
    previous one is exact (Bareiss): every entry, the cost row's too,
    stays a minor of the starting integer matrix."""
    prow = rows[leaving]
    piv = prow[entering]
    for i, row in enumerate(rows):
        if i == leaving:
            continue
        factor = row[entering]
        if factor:
            rows[i] = [(v * piv - factor * p) // denom
                       for v, p in zip(row, prow)]
        elif piv != denom:
            rows[i] = [v * piv // denom for v in row]
    return piv


def _check_certificate(columns: Sequence[Sequence[int]],
                       target: Sequence[int], y: Sequence[int]) -> None:
    """Farkas check: y.a_j <= 0 for every column and y.b > 0, so no
    nonnegative combination of the columns meets the target."""
    for j, col in enumerate(columns):
        if sum(map(mul, y, col)) > 0:
            raise InternalError(
                f"infeasibility certificate fails on column {j}")
    if sum(map(mul, y, target)) <= 0:
        raise InternalError(
            "infeasibility certificate does not separate the target")


def _assert_witness(sys_: FeasibilitySystem, values: Sequence[int],
                    denominator: int) -> None:
    """Exact re-substitution of the witness ``values[j] / denominator``
    into the system; raises on any discrepancy."""
    fault = _witness_fault(sys_.columns, sys_.target, values, denominator)
    if fault is not None:
        raise InternalError(fault)


def _witness_fault(columns: Sequence[Sequence[int]], target: Sequence[int],
                   values: Sequence[int], denominator: int) -> str | None:
    """The first failed check of the witness ``values[j] /
    denominator``, multiplied through by the denominator: D > 0, every
    value >= 0, and sum_j values[j] * a_j[i] == D * b[i] on every row;
    None when all hold."""
    if len(values) != len(columns):
        return "witness length mismatch"
    if denominator <= 0:
        return f"witness denominator {denominator} is not positive"
    if any(v < 0 for v in values):
        return f"negative weight in witness: {values}"
    rows = list(zip(*columns)) or [()] * len(target)
    for i, (b, row) in enumerate(zip(target, rows)):
        acc = sum(map(mul, values, row))
        if acc != denominator * b:
            return (f"witness re-substitution failed at coordinate {i}: "
                    f"{acc} != {denominator} * {b}")
    return None
