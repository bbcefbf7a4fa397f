from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treasurehunt.errors import BudgetExceededError
from treasurehunt.simplex import EQ, GEQ, LEQ, INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


def test_basic_maximization():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    res = solve_lp(
        2,
        [F(3), F(2)],
        [({0: F(1), 1: F(1)}, LEQ, F(4)), ({0: F(1), 1: F(3)}, LEQ, F(6))],
    )
    assert res.status == OPTIMAL
    assert res.objective == 12
    assert res.x == (F(4), F(0))


def test_equality_and_geq_constraints():
    # min x + y s.t. x + 2y >= 3, x - y = 1
    res = solve_lp(
        2,
        [F(1), F(1)],
        [({0: F(1), 1: F(2)}, GEQ, F(3)), ({0: F(1), 1: F(-1)}, EQ, F(1))],
        maximize=False,
    )
    assert res.status == OPTIMAL
    assert res.objective == F(7, 3)
    assert res.x == (F(5, 3), F(2, 3))


def test_free_variables():
    # max v s.t. v <= 2x - 1, v <= 1 - x, x >= 0: optimum at x = 2/3
    res = solve_lp(
        2,
        {1: F(1)},
        [
            ({1: F(1), 0: F(-2)}, LEQ, F(-1)),
            ({1: F(1), 0: F(1)}, LEQ, F(1)),
        ],
        free_vars=[1],
    )
    assert res.status == OPTIMAL
    assert res.objective == F(1, 3)
    assert res.x[0] == F(2, 3)


def test_infeasible():
    res = solve_lp(
        1,
        [F(1)],
        [({0: F(1)}, LEQ, F(1)), ({0: F(1)}, GEQ, F(2))],
    )
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp(1, [F(1)], [({0: F(-1)}, LEQ, F(0))])
    assert res.status == UNBOUNDED


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate.
    res = solve_lp(
        4,
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [
            ({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, LEQ, F(0)),
            ({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, LEQ, F(0)),
            ({2: F(1)}, LEQ, F(1)),
        ],
    )
    assert res.status == OPTIMAL
    assert res.objective == F(1, 20)


def test_exact_fractions_survive():
    res = solve_lp(
        1,
        [F(1)],
        [({0: F(7, 13)}, LEQ, F(8, 165))],
    )
    assert res.objective == F(8, 165) * F(13, 7)


def test_matrix_game_minimax_equals_maximin():
    # Rock-paper-scissors with payoff shifted to [0, 1].
    A = [[F(1, 2), F(1), F(0)], [F(0), F(1, 2), F(1)], [F(1), F(0), F(1, 2)]]
    v_row, v_col = _matrix_game_values(A)
    assert v_row == v_col == F(1, 2)


def _matrix_game_values(A):
    R, C = len(A), len(A[0])
    cons = [({r: F(1) for r in range(R)}, EQ, F(1))]
    for c in range(C):
        row = {r: A[r][c] for r in range(R)}
        row[R] = F(-1)
        cons.append((row, GEQ, F(0)))
    row_side = solve_lp(R + 1, {R: F(1)}, cons, maximize=True, free_vars=[R])
    cons2 = [({c: F(1) for c in range(C)}, EQ, F(1))]
    for r in range(R):
        row = {c: A[r][c] for c in range(C)}
        row[C] = F(-1)
        cons2.append((row, LEQ, F(0)))
    col_side = solve_lp(C + 1, {C: F(1)}, cons2, maximize=False, free_vars=[C])
    return row_side.objective, col_side.objective


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
)
def test_random_matrix_games_have_equal_sides(data, rows, cols):
    A = [
        [
            F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    v_row, v_col = _matrix_game_values(A)
    assert v_row == v_col
    lo = min(min(r) for r in A)
    hi = max(max(r) for r in A)
    assert lo <= v_row <= hi


def test_pivot_limit_is_a_budget_error():
    # max x s.t. x <= 1 starts from the slack basis and needs one pivot;
    # the CLI maps BudgetExceededError to exit code 5.
    with pytest.raises(BudgetExceededError):
        solve_lp(1, [F(1)], [({0: F(1)}, LEQ, F(1))], pivot_limit=0)
    assert solve_lp(1, [F(1)], [({0: F(1)}, LEQ, F(1))], pivot_limit=1).objective == 1
