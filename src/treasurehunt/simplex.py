"""Two-phase primal simplex over exact rationals.

Entering and leaving variables follow Bland's smallest-index rule, which
cannot cycle, so termination is guaranteed on the degenerate LPs that
sequence-form games produce. Rows are sparse dicts of Fraction; problem
data and solutions are exact, there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class PivotLimitError(BudgetExceededError):
    """Safety valve: the pivot count exceeded the configured limit."""


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
    "=", right-hand side). Free variables are split internally into
    differences of nonnegative parts.
    """
    if isinstance(objective, Mapping):
        c = [Fraction(objective.get(j, 0)) for j in range(num_vars)]
    else:
        c = [Fraction(v) for v in objective]
        if len(c) != num_vars:
            raise ValueError("objective length does not match num_vars")
    free = set(free_vars)
    if any(j < 0 or j >= num_vars for j in free):
        raise ValueError("free variable index out of range")

    # Column map: each original variable gets a nonnegative column, free
    # variables get a second, negated column.
    pos_col = list(range(num_vars))
    neg_col: dict[int, int] = {}
    next_col = num_vars
    for j in sorted(free):
        neg_col[j] = next_col
        next_col += 1

    sign = 1 if maximize else -1
    obj = {}
    for j in range(num_vars):
        cj = sign * c[j]
        if cj:
            obj[pos_col[j]] = cj
            if j in free:
                obj[neg_col[j]] = -cj

    rows: list[dict[int, Fraction]] = []
    rels: list[str] = []
    rhs: list[Fraction] = []
    for coeffs, rel, b in constraints:
        if rel not in (LEQ, GEQ, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        row: dict[int, Fraction] = {}
        for j, a in coeffs.items():
            a = Fraction(a)
            if not a:
                continue
            if j < 0 or j >= num_vars:
                raise ValueError(f"variable index {j} out of range")
            row[pos_col[j]] = row.get(pos_col[j], Fraction(0)) + a
            if j in free:
                row[neg_col[j]] = row.get(neg_col[j], Fraction(0)) - a
        b = Fraction(b)
        if b < 0:
            row = {j: -a for j, a in row.items()}
            b = -b
            rel = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rel]
        rows.append(row)
        rels.append(rel)
        rhs.append(b)

    tableau = _Tableau(next_col, rows, rels, rhs, pivot_limit)
    status = tableau.solve(obj)
    if status != OPTIMAL:
        return LPResult(status=status, objective=None, x=None)
    full = tableau.solution()
    x = []
    for j in range(num_vars):
        v = full[pos_col[j]]
        if j in free:
            v -= full[neg_col[j]]
        x.append(v)
    objective_value = sum(c[j] * x[j] for j in range(num_vars))
    return LPResult(status=OPTIMAL, objective=objective_value, x=tuple(x))


class _Tableau:
    """Sparse simplex tableau with explicit slack and artificial columns."""

    def __init__(self, num_cols, rows, rels, rhs, pivot_limit):
        self.pivot_limit = pivot_limit
        self.pivots = 0
        self.rows: list[dict[int, Fraction]] = [dict(r) for r in rows]
        self.b: list[Fraction] = list(rhs)
        self.basis: list[int] = []
        self.artificial: set[int] = set()
        col = num_cols
        for i, rel in enumerate(rels):
            if rel == LEQ:
                self.rows[i][col] = Fraction(1)
                self.basis.append(col)
                col += 1
            elif rel == GEQ:
                self.rows[i][col] = Fraction(-1)
                col += 1
                self.rows[i][col] = Fraction(1)
                self.artificial.add(col)
                self.basis.append(col)
                col += 1
            else:
                self.rows[i][col] = Fraction(1)
                self.artificial.add(col)
                self.basis.append(col)
                col += 1
        self.num_cols = col
        self.num_structural = num_cols

    def solve(self, obj: dict[int, Fraction]) -> str:
        if self.artificial:
            # Phase 1: minimize the artificial sum, written as reduced costs
            # over the starting basis (artificial columns come out at zero).
            phase_obj: dict[int, Fraction] = {}
            for i, bi in enumerate(self.basis):
                if bi in self.artificial:
                    for j, a in self.rows[i].items():
                        if j not in self.artificial:
                            phase_obj[j] = phase_obj.get(j, Fraction(0)) + a
            status = self._optimize(phase_obj)
            if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
                return status
            residual = sum(self.b[i] for i, bi in enumerate(self.basis) if bi in self.artificial)
            if residual != 0:
                return INFEASIBLE
            self._drive_out_artificials()
        reduced = self._reduced_costs(obj)
        return self._optimize(reduced, forbid=self.artificial)

    def _reduced_costs(self, obj: dict[int, Fraction]) -> dict[int, Fraction]:
        """Express the objective over nonbasic columns given the current basis."""
        reduced = dict(obj)
        for i, bi in enumerate(self.basis):
            coef = reduced.get(bi)
            if coef:
                for j, a in self.rows[i].items():
                    if j == bi:
                        continue
                    reduced[j] = reduced.get(j, Fraction(0)) - coef * a
                del reduced[bi]
        return {j: v for j, v in reduced.items() if v}

    def _optimize(self, improve: dict[int, Fraction], forbid: set[int] = frozenset()) -> str:
        """Maximize; improve maps columns to improvement coefficients."""
        improve = {j: v for j, v in improve.items() if v}
        while True:
            entering = None
            for j in sorted(improve):
                if j in forbid:
                    continue
                if improve[j] > 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL
            leaving_row = None
            best_ratio = None
            leaving_var = None
            for i, row in enumerate(self.rows):
                a = row.get(entering)
                if a is None or a <= 0:
                    continue
                ratio = self.b[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < leaving_var)
                ):
                    best_ratio = ratio
                    leaving_row = i
                    leaving_var = self.basis[i]
            if leaving_row is None:
                return UNBOUNDED
            self._pivot(leaving_row, entering, improve)

    def _pivot(self, row_idx: int, col: int, improve: dict[int, Fraction]) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise PivotLimitError(f"exceeded {self.pivot_limit} pivots")
        row = self.rows[row_idx]
        pivot = row[col]
        if pivot != 1:
            new_row = {j: a / pivot for j, a in row.items()}
            self.rows[row_idx] = row = new_row
            self.b[row_idx] /= pivot
        prow_items = list(row.items())
        pb = self.b[row_idx]
        for i, other in enumerate(self.rows):
            if i == row_idx:
                continue
            factor = other.get(col)
            if not factor:
                continue
            for j, a in prow_items:
                val = other.get(j, Fraction(0)) - factor * a
                if val:
                    other[j] = val
                elif j in other:
                    del other[j]
            self.b[i] -= factor * pb
        factor = improve.get(col)
        if factor:
            for j, a in prow_items:
                val = improve.get(j, Fraction(0)) - factor * a
                if val:
                    improve[j] = val
                elif j in improve:
                    del improve[j]
        self.basis[row_idx] = col

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials onto structural columns; drop empty rows."""
        for i in range(len(self.rows)):
            bi = self.basis[i]
            if bi not in self.artificial:
                continue
            target = None
            for j in sorted(self.rows[i]):
                if j not in self.artificial and j != bi:
                    target = j
                    break
            if target is not None:
                self._pivot(i, target, {})
        keep = [i for i, bi in enumerate(self.basis) if bi not in self.artificial]
        if len(keep) != len(self.rows):
            # Redundant original constraints: their rows are zero over the
            # structural columns once phase 1 ends at zero.
            self.rows = [self.rows[i] for i in keep]
            self.b = [self.b[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
        for row in self.rows:
            for j in list(row):
                if j in self.artificial:
                    del row[j]

    def solution(self) -> dict[int, Fraction]:
        values: dict[int, Fraction] = {}
        for i, bi in enumerate(self.basis):
            values[bi] = self.b[i]
        return {j: values.get(j, Fraction(0)) for j in range(self.num_cols)}
