import random

import pytest

from qsl3.laurent import LaurentPoly, ONE, V, ZERO, vpow
from qsl3.linalg import Inconsistent, LaurentEchelon, rank_laurent, solve_laurent


def _check_scaled(a, b, det, sol):
    # A (det x) == det b, with det x stored as the scaled solution
    for row, bi in zip(a, b):
        acc = ZERO
        for c, w in sol.items():
            acc = acc + row[c] * w
        assert acc == det * bi


def test_identity_solve():
    a = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    b = [V, ONE, vpow(-2)]
    det, sols, rank, free = solve_laurent(a, [b])
    assert [sols[0][c].exact_div(det) for c in range(3)] == b
    assert rank == 3 and not free


def test_one_by_one():
    a = [[V - vpow(-1)]]
    det, sols, rank, free = solve_laurent(a, [[vpow(2) - vpow(-2)]])
    assert sols[0][0].exact_div(det) == V + vpow(-1)


def test_two_by_two_elimination():
    a = [[ONE, ONE], [ONE, V]]
    b = [ZERO, V - 1]
    det, sols, rank, free = solve_laurent(a, [b])
    assert sols[0][0].exact_div(det) == -ONE and sols[0][1].exact_div(det) == ONE
    _check_scaled(a, b, det, sols[0])


def test_inconsistent_reports_rank():
    a = [[ONE, ONE], [LaurentPoly.const(2), LaurentPoly.const(2)]]
    with pytest.raises(Inconsistent) as exc:
        solve_laurent(a, [[ZERO, ONE]])
    assert exc.value.rank == 1


def test_underdetermined_flags_free_rank():
    a = [[ONE, ONE]]
    det, sols, rank, free = solve_laurent(a, [[V]])
    assert rank == 1 and free == [1]
    _check_scaled(a, [V], det, sols[0])


def _random_poly(rng):
    return LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 3))})


def test_solve_then_matvec_round_trip():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(1, 4)
        a = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
        x0 = [_random_poly(rng) for _ in range(n)]
        b = [sum((e * x for e, x in zip(row, x0)), ZERO) for row in a]
        det, sols, rank, free = solve_laurent(a, [b])
        _check_scaled(a, b, det, sols[0])


def test_solve_laurent_scaled_solutions():
    # A x = b at x = (v, 1), recovered as (scaled entries) / det
    a = [[V, ONE], [ONE, V]]
    b = [[vpow(2) + ONE, V + V]]
    det, sols, rank, free = solve_laurent(a, b)
    assert sols[0][0].exact_div(det) == V and sols[0][1].exact_div(det) == ONE
    assert rank == 2 and not free


def test_solve_laurent_overdetermined_consistent():
    a = [[ONE], [V]]
    b = [[V + 1, vpow(2) + V]]
    det, sols, rank, free = solve_laurent(a, b)
    assert sols[0][0].exact_div(det) == V + 1


def test_solve_laurent_overdetermined_inconsistent():
    a = [[ONE], [V]]
    with pytest.raises(Inconsistent):
        solve_laurent(a, [[ONE, ONE]])


def test_rank_laurent():
    assert rank_laurent([[ONE, V], [V, vpow(2)]]) == 1
    assert rank_laurent([[ONE, V], [V, ONE]]) == 2


def test_echelon_rank_tracking():
    ech = LaurentEchelon(3)
    assert ech.add([ONE, V, ZERO])
    assert not ech.add([V, vpow(2), ZERO])      # multiple of the first
    assert ech.add([ZERO, ONE, ONE])
    assert ech.add([ZERO, ZERO, V])
    assert ech.rank == 3
    assert not ech.add([ONE, ONE, ONE])
