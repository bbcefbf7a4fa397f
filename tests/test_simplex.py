import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from treasurehunt import simplex
from treasurehunt.errors import BudgetExceededError
from treasurehunt.simplex import EQ, GEQ, LEQ, INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction

# Hypothesis's explain phase would replay a failure once per drawn value,
# for minutes; shrinking alone reports a small failing LP in seconds.
NO_EXPLAIN = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink]


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


def test_int_fraction_and_float_data_give_identical_results():
    # Int and Fraction data go in as given, floats through Fraction; the
    # result is the same exact LPResult, down to the pivot count. The LP
    # has every relation, a free variable and negative right-hand sides.
    objective = [3, 2, -1]
    constraints = [
        ({0: 1, 1: 1, 2: 1}, LEQ, 4),
        ({0: 2, 1: -1}, EQ, 1),
        ({0: -1, 1: -3}, GEQ, -9),
        ({2: 2}, GEQ, -3),
    ]
    results = [
        solve_lp(
            3,
            [kind(v) for v in objective],
            [({j: kind(a) for j, a in row.items()}, rel, kind(b)) for row, rel, b in constraints],
            free_vars=[2],
        )
        for kind in (int, F, float)
    ]
    assert results[0].status == OPTIMAL and results[0].objective == F(23, 2)
    assert results[0].x == (F(12, 7), F(17, 7), F(-3, 2))
    # Both >= rows have b < 0 and reach the tableau negated as <= rows; the
    # duals keep the signs of the rows as given.
    assert results[0].duals == (F(0), None, F(-1), F(-1, 2))
    assert results[1] == results[0] and results[2] == results[0]
    for res in results:
        values = (res.objective, *res.x, *(y for y in res.duals if y is not None))
        assert all(type(v) is Fraction for v in values)


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


def test_rows_past_a_machine_word_still_certify_the_optimum(monkeypatch):
    # Coefficients near 2**40 push row denominators past 2**63, the point
    # at which eliminated rows start being gcd-reduced. The LP stays exact:
    # x is feasible and the duals prove it optimal.
    denominators = []
    reduced = simplex._reduced
    monkeypatch.setattr(simplex, "_reduced", lambda row, b, den: denominators.append(den) or reduced(row, b, den))
    rng = random.Random(5)
    cols = 5
    cons = [({j: 1}, LEQ, 7) for j in range(cols)]
    for _ in range(5):
        a = {j: rng.choice((1, -1)) * rng.randint(2**39, 2**41) for j in range(cols)}
        cons.append((a, LEQ, rng.randint(2**39, 2**41)))
    c = [rng.randint(1, 2**20) for _ in range(cols)]
    res = solve_lp(cols, c, cons)
    assert res.status == OPTIMAL and res.pivots > 5
    assert max(denominators) >> 63
    for row, _, b in cons:
        assert sum(a * res.x[j] for j, a in row.items()) <= b
    y = res.duals
    assert all(yi >= 0 for yi in y)
    for j in range(cols):
        assert c[j] - sum(yi * row.get(j, 0) for (row, _, _), yi in zip(cons, y)) <= 0
    assert sum(b * yi for (_, _, b), yi in zip(cons, y)) == res.objective


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


@settings(max_examples=60, deadline=None, phases=NO_EXPLAIN)
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


@pytest.mark.parametrize("key", [5, 1, -1])
def test_objective_mapping_key_out_of_range_is_rejected(key):
    # A mapping objective is checked like a constraint row: a key outside
    # 0..num_vars-1 raises instead of being dropped from the objective.
    with pytest.raises(ValueError, match=f"objective index {key} out of range"):
        solve_lp(1, {0: 1, key: 7}, [({0: 1}, LEQ, 1)])
    with pytest.raises(ValueError, match=f"variable index {key} out of range"):
        solve_lp(1, {0: 1}, [({0: 1, key: 7}, LEQ, 1)])


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, [1], [({0: 1}, "<", 1)]), {}, "unknown relation '<'"),
    ((2, [1, 1], [({0: 1}, LEQ, 1)]), {"free_vars": [2]}, "free variable index out of range"),
    ((2, [1, 1], [({0: 1}, LEQ, 1)]), {"free_vars": [-1]}, "free variable index out of range"),
    ((2, [1], [({0: 1}, LEQ, 1)]), {}, "objective length does not match num_vars"),
    ((2, [1, 1, 1], [({0: 1}, LEQ, 1)]), {}, "objective length does not match num_vars"),
])
def test_malformed_input_is_rejected(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        solve_lp(*args, **kwargs)


@pytest.mark.parametrize("zero", [0, F(0), 0.0])
def test_zero_coefficient_out_of_range_is_dropped(zero):
    # A zero coefficient is dropped before its index is checked, so it
    # cannot name a variable the LP does not have.
    res = solve_lp(1, [1], [({0: 1, 5: zero, -1: zero}, LEQ, 1)])
    assert res.status == OPTIMAL and res.objective == 1 and res.x == (F(1),)


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(data=st.data(), cols=st.integers(1, 3), rows=st.integers(1, 4), maximize=st.booleans())
def test_inequality_duals_certify_the_optimum(data, cols, rows, maximize):
    # Every row holds at a drawn point x0, and a box |x| <= 5 bounds the LP,
    # so it is always optimal. Column 0 may be free. Rows whose left side is
    # negative at x0 can get a negative right-hand side and reach the tableau
    # negated, so both sign flips of the dual read-out are exercised.
    small = st.integers(-4, 4)
    free = [0] if data.draw(st.booleans()) else []
    x0 = [data.draw(st.integers(-3 if j in free else 0, 3)) for j in range(cols)]
    cons = [({j: F(1)}, LEQ, F(5)) for j in range(cols)]
    cons += [({j: F(1)}, GEQ, F(-5)) for j in free]
    for _ in range(rows):
        a = {j: F(data.draw(small)) for j in range(cols)}
        lhs = sum(a[j] * x0[j] for j in range(cols))
        if data.draw(st.booleans()):
            cons.append((a, LEQ, lhs + data.draw(st.integers(0, 2))))
        else:
            cons.append((a, GEQ, lhs - data.draw(st.integers(0, 2))))
    c = [F(data.draw(small), data.draw(st.integers(1, 3))) for _ in range(cols)]
    res = solve_lp(cols, c, cons, maximize=maximize, free_vars=free)
    assert res.status == OPTIMAL
    y = res.duals
    assert len(y) == len(cons)
    # Shadow prices: a <= row relaxes as b grows, a >= row tightens.
    for (_, rel, _), yi in zip(cons, y):
        grows = (rel == LEQ) == maximize
        assert (yi >= 0) if grows else (yi <= 0)
    for j in range(cols):
        reduced = c[j] - sum(yi * row.get(j, 0) for (row, _, _), yi in zip(cons, y))
        if j in free:
            assert reduced == 0
        else:
            assert (reduced <= 0) if maximize else (reduced >= 0)
    assert sum(b * yi for (_, _, b), yi in zip(cons, y)) == res.objective


@settings(max_examples=200, deadline=None, phases=NO_EXPLAIN)
@given(data=st.data(), cols=st.integers(1, 3), eqs=st.integers(1, 2), rows=st.integers(0, 3),
       maximize=st.booleans())
def test_rational_lps_with_equality_rows_are_solved_exactly(data, cols, eqs, rows, maximize):
    # Coefficients, right-hand sides and a point x0 that meets every row
    # have denominators up to 7, so tableau rows start over different
    # denominators. The first equality row comes back scaled by a nonzero
    # rational: phase 1 leaves the copy redundant and the tableau drops it.
    # Rows whose value at x0 is negative get a negative right-hand side and
    # reach the tableau negated. A box |x| <= 6 keeps the LP bounded, and
    # Bland's rule cannot cycle, so a few hundred pivots are plenty.
    frac = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
    free = [0] if data.draw(st.booleans()) else []
    x0 = [data.draw(frac) for _ in range(cols)]
    x0 = [v if j in free else abs(v) for j, v in enumerate(x0)]
    cons = [({j: F(1)}, LEQ, F(6)) for j in range(cols)]
    cons += [({j: F(1)}, GEQ, F(-6)) for j in free]

    def drawn_row():
        a = {j: data.draw(frac) for j in range(cols)}
        return a, sum(a[j] * x0[j] for j in range(cols))

    for e in range(eqs):
        a, lhs = drawn_row()
        cons.append((a, EQ, lhs))
        if e == 0:
            t = data.draw(frac.filter(bool))
            cons.append(({j: t * v for j, v in a.items()}, EQ, t * lhs))
    for _ in range(rows):
        a, lhs = drawn_row()
        if data.draw(st.booleans()):
            cons.append((a, LEQ, lhs + abs(data.draw(frac))))
        else:
            cons.append((a, GEQ, lhs - abs(data.draw(frac))))
    c = [data.draw(frac) for _ in range(cols)]
    res = solve_lp(cols, c, cons, maximize=maximize, free_vars=free, pivot_limit=300)
    assert res.status == OPTIMAL

    x = res.x
    assert all(x[j] >= 0 for j in range(cols) if j not in free)
    for row, rel, b in cons:
        lhs = sum(a * x[j] for j, a in row.items())
        assert {LEQ: lhs <= b, GEQ: lhs >= b, EQ: lhs == b}[rel]
    assert sum(cj * xj for cj, xj in zip(c, x)) == res.objective

    y = res.duals
    assert [yi is None for yi in y] == [rel == EQ for _, rel, _ in cons]
    for (_, rel, _), yi in zip(cons, y):
        if rel != EQ:
            grows = (rel == LEQ) == maximize
            assert (yi >= 0) if grows else (yi <= 0)

    # Equality rows report no dual. Multipliers z for them that complete y
    # to a dual solution worth the objective prove it optimal by weak
    # duality; they come from a small LP and are checked here exactly.
    eq_rows = [(row, b) for row, rel, b in cons if rel == EQ]
    residual = [c[j] - sum(yi * row.get(j, 0) for (row, _, _), yi in zip(cons, y) if yi is not None)
                for j in range(cols)]
    open_rel = GEQ if maximize else LEQ
    z_cons = [({e: row.get(j, 0) for e, (row, _) in enumerate(eq_rows)},
               EQ if j in free else open_rel, residual[j]) for j in range(cols)]
    z_res = solve_lp(len(eq_rows), [b for _, b in eq_rows], z_cons, maximize=not maximize,
                     free_vars=range(len(eq_rows)), pivot_limit=300)
    assert z_res.status == OPTIMAL
    z = z_res.x
    for j in range(cols):
        reduced = residual[j] - sum(ze * row.get(j, 0) for ze, (row, _) in zip(z, eq_rows))
        if j in free:
            assert reduced == 0
        else:
            assert (reduced <= 0) if maximize else (reduced >= 0)
    b_dot_y = sum(b * yi for (_, _, b), yi in zip(cons, y) if yi is not None)
    assert b_dot_y + sum(b * ze for (_, b), ze in zip(eq_rows, z)) == res.objective
