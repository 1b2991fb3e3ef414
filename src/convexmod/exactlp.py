"""Exact rational linear feasibility by phase-1 simplex.

Decides whether target = sum_j lambda_j * column_j has a solution with
all lambda_j >= 0, entirely over ``fractions.Fraction``.  Convex-hull
membership reduces to this with one extra homogenizing row of ones
(forcing sum lambda = 1); that encoding is the caller's business, this
module only sees columns and a target of equal dimension.

The algorithm is the textbook phase-1: one artificial variable per row,
minimize their sum, pivot with Bland's anti-cycling rule (smallest
eligible entering index; smallest ratio, then smallest basic index, on
leaving).  Bland's rule guarantees termination, and exact pivoting
means there is no tolerance anywhere: feasibility verdicts are exact.
Every returned witness is re-substituted into the system before it is
handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConvexmodError, DimensionMismatchError

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class FeasibilitySystem:
    """Columns and target of the feasibility question, exact rationals.

    ``columns[j][i]`` is the i-th coordinate of the j-th generator
    column; ``target[i]`` the i-th coordinate of the right-hand side.
    """

    columns: tuple[Vector, ...]
    target: Vector

    def __post_init__(self):
        dim = len(self.target)
        for col in self.columns:
            if len(col) != dim:
                raise DimensionMismatchError(
                    f"column of dimension {len(col)} in a system of "
                    f"dimension {dim}")


def make_system(columns: Sequence[Sequence[Fraction | int]],
                target: Sequence[Fraction | int]) -> FeasibilitySystem:
    cols = tuple(tuple(Fraction(v) for v in col) for col in columns)
    tgt = tuple(Fraction(v) for v in target)
    return FeasibilitySystem(columns=cols, target=tgt)


def feasible(sys_: FeasibilitySystem) -> list[Fraction] | None:
    """Solve the system; a witness list (one weight per column) or None.

    The witness satisfies the equations exactly and is non-negative;
    both facts are asserted by re-substitution before returning.
    """
    m = len(sys_.target)
    n = len(sys_.columns)

    if m == 0:
        return [Fraction(0)] * n

    # Row i of the tableau: the i-th coordinate across columns, with the
    # sign flipped where the target coordinate is negative so b >= 0.
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(m):
        sign = -1 if sys_.target[i] < 0 else 1
        rows.append([sign * sys_.columns[j][i] for j in range(n)])
        b.append(sign * sys_.target[i])

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

    _assert_witness(sys_, witness)
    return witness


def _assert_witness(sys_: FeasibilitySystem,
                    witness: Sequence[Fraction]) -> None:
    """Exact re-substitution check; raises on any discrepancy."""
    if len(witness) != len(sys_.columns):
        raise ConvexmodError("witness length mismatch")
    if any(w < 0 for w in witness):
        raise ConvexmodError(f"negative weight in witness: {witness}")
    dim = len(sys_.target)
    for i in range(dim):
        acc = sum((witness[j] * sys_.columns[j][i]
                   for j in range(len(witness))), Fraction(0))
        if acc != sys_.target[i]:
            raise ConvexmodError(
                f"witness re-substitution failed at coordinate {i}: "
                f"{acc} != {sys_.target[i]}")
