"""Two-phase revised simplex over exact rationals, pivoting on integers.

Entering and leaving variables follow Bland's smallest-index rule, which
cannot cycle, so termination is guaranteed on the degenerate LPs that
sequence-form games produce. The original rows stay fixed; the rows that
pivot are those of the basis inverse, sparse integer dicts over original
row indices, each with an integer right-hand side over one positive
denominator. The objective row has its own denominator. No Fraction is
built while pivoting: Bland's rule reads only signs, and the ratio test
compares b_i/a_i by cross-multiplying numerators, since a row's
denominator cancels. Problem data and solutions are exact rationals, there
is no floating point anywhere. The duals of the inequality rows are read
from the final reduced costs of their slack columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LEQ = "<="
GEQ = ">="
EQ = "="


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None
    x: tuple[Fraction, ...] | None
    # Shadow prices d(objective)/d(rhs), one per constraint; None for an
    # equality row, whose artificial column the tableau drops.
    duals: tuple[Fraction | None, ...] | None = None
    pivots: int = 0  # over both phases


class PivotLimitError(BudgetExceededError):
    """Safety valve: the pivot count exceeded the configured limit."""


def _exact(v) -> int | Fraction:
    """v itself when it is an int or a Fraction, else Fraction(v)."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def solve_lp(
    num_vars: int,
    objective: Sequence[Fraction] | Mapping[int, Fraction],
    constraints: Iterable[tuple[Mapping[int, Fraction], str, Fraction]],
    *,
    maximize: bool = True,
    free_vars: Iterable[int] = (),
    pivot_limit: int = 2_000_000,
) -> LPResult:
    """Solve max/min c.x subject to constraints, x >= 0 except free_vars.

    Each constraint is (coefficients by variable index, one of "<=", ">=",
    "=", right-hand side). Int and Fraction data are used as given; any
    other number is converted by Fraction, exactly. Free variables are
    split internally into differences of nonnegative parts. _Tableau checks
    the constraints as it builds its rows; x and the duals are read off it.
    """
    if isinstance(objective, Mapping):
        for j in objective:
            if j < 0 or j >= num_vars:
                raise ValueError(f"objective index {j} out of range")
        objective = [objective.get(j, 0) for j in range(num_vars)]
    c = [_exact(v) for v in objective]
    if len(c) != num_vars:
        raise ValueError("objective length does not match num_vars")
    free = set(free_vars)
    if any(j < 0 or j >= num_vars for j in free):
        raise ValueError("free variable index out of range")

    # Variable j keeps column j; a free variable also gets a negated column.
    neg_col = {j: num_vars + i for i, j in enumerate(sorted(free))}
    sign = 1 if maximize else -1
    obj = {j: sign * cj for j, cj in enumerate(c) if cj}
    obj.update({neg_col[j]: -v for j, v in obj.items() if j in free})

    tableau = _Tableau(num_vars, neg_col, constraints, pivot_limit)
    status = tableau.solve(obj)
    if status != OPTIMAL:
        return LPResult(status=status, objective=None, x=None, pivots=tableau.pivots)
    zero = Fraction(0)
    value = {bi: Fraction(b, den) for bi, b, den in zip(tableau.basis, tableau.b, tableau.den)}.get
    # Nonbasic columns are 0; a free variable's value is less its negated column's.
    x = [value(j, zero) for j in range(num_vars)]
    for j, neg in neg_col.items():
        x[j] -= value(neg, zero)
    objective_value = sum((cj * xj for cj, xj in zip(c, x) if cj), zero)
    duals = tuple(
        None if sl is None else Fraction(-sign * sl[1] * tableau.obj.get(sl[0], 0), tableau.obj_den)
        for sl in tableau.slack
    )
    return LPResult(OPTIMAL, objective_value, tuple(x), duals, tableau.pivots)


def _reduced(row: dict[int, int], b: int, den: int) -> tuple[dict[int, int], int, int]:
    """Divide a row, its right-hand side and its denominator by their gcd."""
    g = gcd(den, b, *row.values())
    if g == 1:
        return row, b, den
    return {j: a // g for j, a in row.items()}, b // g, den // g


def _eliminate(row, b, den, f, prow_items, pb, p):
    """Clear column c from a row that holds f there: (row*p - f*prow) / (den*p).

    prow is the pivot row over its denominator p, so its value at c is 1. A
    common factor of p and f is cancelled first, entries that cancel are
    deleted, and when p divides f the row is updated in place. Signs and
    cross-multiplied ratios do not change with a row's scale, so the result
    is gcd-reduced only once its denominator outgrows a machine word.
    """
    h = gcd(p, f)
    if h != 1:
        p, f = p // h, f // h
    if p != 1:
        row = {j: a * p for j, a in row.items()}
    get = row.get
    for j, a in prow_items:
        v = get(j, 0) - f * a
        if v:
            row[j] = v
        else:
            del row[j]
    b, den = b * p - f * pb, den * p
    return _reduced(row, b, den) if den >> 63 else (row, b, den)


class _Tableau:
    """Original rows M[k] in integers, with slack and artificial columns, and
    cols[j] = {k: M[k][j]}. Tableau row i is sum_k W[i][k] * M[k] / den[i]
    with right-hand side b[i] / den[i] and den[i] > 0, so signs read off the
    numerators; a pivot forms one column and one row of it and updates only
    W. The objective row holds improvement coefficients obj[j] / obj_den. A
    basic column's entry in its own tableau row equals the row's denominator.

    Rows come straight from solve_lp's constraints: a free variable j is
    repeated, negated, in column neg_col[j], and a row with b < 0 is negated.
    slack[k] is (column, s), s = +1 for a given <= and -1 for >=, so -s times
    the slack's reduced cost is row k's dual in the maximized objective.
    """

    def __init__(self, num_vars, neg_col, constraints, pivot_limit):
        self.pivot_limit = pivot_limit
        self.pivots = 0
        self.M: list[dict[int, int]] = []
        self.cols: dict[int, dict[int, int]] = {}
        self.W: list[dict[int, int]] = []
        self.b: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.artificial: set[int] = set()
        self.slack: list[tuple[int, int] | None] = []
        self.obj: dict[int, int] = {}
        self.obj_den = 1
        col = num_vars + len(neg_col)  # the first slack or artificial column
        for k, (coeffs, rel, b) in enumerate(constraints):
            if rel not in (LEQ, GEQ, EQ):
                raise ValueError(f"unknown relation {rel!r}")
            row: dict[int, int | Fraction] = {}
            for j, a in coeffs.items():
                a = _exact(a)
                if not a:
                    continue
                if j < 0 or j >= num_vars:
                    raise ValueError(f"variable index {j} out of range")
                row[j] = a
                if j in neg_col:
                    row[neg_col[j]] = -a
            b = _exact(b)
            s = (rel == LEQ) - (rel == GEQ)  # the slack's sign, 0 for "="
            self.slack.append((col, s) if s else None)
            # Numerators over the lcm of the row's denominators, negated if b < 0.
            den = lcm(b.denominator, *(a.denominator for a in row.values()))
            m, s = (den, s) if b >= 0 else (-den, -s)
            row = {j: a.numerator * (m // a.denominator) for j, a in row.items()}
            b = b.numerator * (m // b.denominator)
            if s < 0:
                row[col] = -den
                col += 1
            if s <= 0:
                self.artificial.add(col)
            row[col] = den
            self.basis.append(col)
            col += 1
            row, b, den = _reduced(row, b, den)
            self.M.append(row)
            for j, a in row.items():
                self.cols.setdefault(j, {})[k] = a
            self.W.append({k: 1})
            self.b.append(b)
            self.den.append(den)

    def solve(self, obj: dict[int, int | Fraction]) -> str:
        if self.artificial:
            # Phase 1: minimize the artificial sum.
            self._set_reduced_costs({a: -1 for a in self.artificial})
            status = self._optimize()
            if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
                return status
            # Right-hand sides stay nonnegative, so the artificial sum is
            # zero exactly when each basic artificial is.
            if any(self.b[i] for i, bi in enumerate(self.basis) if bi in self.artificial):
                return INFEASIBLE
            self._drive_out_artificials()
        self._set_reduced_costs(obj)
        return self._optimize()

    def _row(self, i: int) -> dict[int, int]:
        """Tableau row i's numerators over den[i]: sum_k W[i][k] * M[k]."""
        row: dict[int, int] = {}
        get = row.get
        for k, w in self.W[i].items():
            for j, a in self.M[k].items():
                row[j] = get(j, 0) + w * a
        return {j: a for j, a in row.items() if a}

    def _column(self, col: int) -> list[tuple[int, int]]:
        """(i, numerator over den[i]) for each tableau row with an entry in col."""
        entries = self.cols.get(col, {})
        keys = entries.keys()
        out = []
        for i, w in enumerate(self.W):
            a = 0
            for k in w.keys() & keys:
                a += w[k] * entries[k]
            if a:
                out.append((i, a))
        return out

    def _set_reduced_costs(self, obj: dict[int, int | Fraction]) -> None:
        """Express the objective over nonbasic columns given the current basis."""
        den = lcm(*(v.denominator for v in obj.values()))
        reduced = {j: v.numerator * (den // v.denominator) for j, v in obj.items()}
        for i, bi in enumerate(self.basis):
            f = reduced.get(bi)
            if f:
                reduced, _, den = _eliminate(reduced, 0, den, f, list(self._row(i).items()), 0, self.den[i])
        self.obj, _, self.obj_den = _reduced(reduced, 0, den)

    def _optimize(self) -> str:
        """Maximize; the objective row holds improvement coefficients."""
        while True:
            entering = min((j for j, v in self.obj.items() if v > 0), default=None)
            if entering is None:
                return OPTIMAL
            column = self._column(entering)
            leaving_row = None
            for i, a in column:
                if a <= 0:
                    continue
                if leaving_row is not None:
                    # b_i/a_i against the best b/a: both a > 0, and a row's
                    # denominator cancels from its own ratio.
                    lhs, rhs = self.b[i] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leaving_row]):
                        continue
                leaving_row, best_a, best_b = i, a, self.b[i]
            if leaving_row is None:
                return UNBOUNDED
            self._pivot(leaving_row, entering, column)

    def _pivot(self, row_idx: int, col: int, column: list[tuple[int, int]]) -> None:
        """Pivot on (row_idx, col); column is col's entries from _column."""
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise PivotLimitError(f"exceeded {self.pivot_limit} pivots")
        w, pb = self.W[row_idx], self.b[row_idx]
        p = next(a for i, a in column if i == row_idx)
        if p < 0:  # _drive_out_artificials may pivot on a negative entry
            w = {k: -a for k, a in w.items()}
            pb, p = -pb, -p
        # Divided by its pivot entry, the row is w.M / p.
        w, pb, p = _reduced(w, pb, p)
        self.W[row_idx], self.b[row_idx], self.den[row_idx] = w, pb, p
        w_items = list(w.items())
        for i, f in column:
            if i != row_idx:
                self.W[i], self.b[i], self.den[i] = _eliminate(
                    self.W[i], self.b[i], self.den[i], f, w_items, pb, p
                )
        f = self.obj.get(col)
        if f:
            prow_items = list(self._row(row_idx).items())
            self.obj, _, self.obj_den = _eliminate(self.obj, 0, self.obj_den, f, prow_items, 0, p)
        self.basis[row_idx] = col

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials onto structural columns; drop empty rows."""
        self.obj = {}  # phase 2 builds its own objective row
        for i in range(len(self.W)):
            if self.basis[i] not in self.artificial:
                continue
            target = min((j for j in self._row(i) if j not in self.artificial), default=None)
            if target is not None:
                self._pivot(i, target, self._column(target))
        keep = [i for i, bi in enumerate(self.basis) if bi not in self.artificial]
        if len(keep) != len(self.W):
            # Redundant original constraints: their rows are zero over the
            # structural columns once phase 1 ends at zero.
            self.W = [self.W[i] for i in keep]
            self.b = [self.b[i] for i in keep]
            self.den = [self.den[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
        for j in self.artificial:
            for k in self.cols.pop(j, ()):
                del self.M[k][j]
