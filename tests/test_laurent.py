import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsl3.laurent import LaurentPoly, NotDivisible, ONE, V, ZERO, vpow


def lp(**terms):
    return LaurentPoly({int(k): v for k, v in terms.items()})


polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=5),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_add_examples():
    assert (V + 1) + (-1) == V
    assert ZERO + ZERO == ZERO
    assert (vpow(2) - vpow(-2)) + (vpow(-2) - vpow(2)) == ZERO


def test_mul_examples():
    assert (V - vpow(-1)) * (V + vpow(-1)) == vpow(2) - vpow(-2)
    x = LaurentPoly({3: 2, -1: 5})
    assert x * ONE == x
    assert x * ZERO == ZERO


def test_bar_examples():
    assert (vpow(2) + 3).bar() == vpow(-2) + 3
    assert (V + vpow(-1)).bar() == V + vpow(-1)
    assert ZERO.bar() == ZERO


def test_exact_div_examples():
    assert (vpow(2) - vpow(-2)).exact_div(V - vpow(-1)) == V + vpow(-1)
    x = LaurentPoly({4: 7, 0: -2})
    assert x.exact_div(ONE) == x
    # long-division oracle value, cross-checked by multiplying back
    q = (vpow(3) - vpow(-3)).exact_div(V - vpow(-1))
    assert q == vpow(2) + 1 + vpow(-2)
    assert q * (V - vpow(-1)) == vpow(3) - vpow(-3)


def test_exact_div_failures():
    with pytest.raises(NotDivisible):
        ONE.exact_div(V - ONE)
    with pytest.raises(NotDivisible):
        (V + 1).exact_div(LaurentPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_units_always_divide():
    x = LaurentPoly({2: 3, -1: 4})
    assert x.exact_div(vpow(-5)) == x.shifted(5)
    assert x.exact_div(-ONE) == -x


@given(polys)
def test_bar_is_involutive(x):
    assert x.bar().bar() == x


@given(polys, polys)
def test_bar_is_ring_hom(x, y):
    assert (x * y).bar() == x.bar() * y.bar()
    assert (x + y).bar() == x.bar() + y.bar()


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_exact_div_inverts_mul(a, b):
    assert (a * b).exact_div(b) == a


def test_text_rendering():
    assert ZERO.text() == "0"
    assert LaurentPoly({0: 1, 2: 2, -3: -1}).text() == "-v^-3 + 1 + 2*v^2"
    assert (V + vpow(-1)).text() == "v^-1 + v"
    assert LaurentPoly({1: -1}).text() == "-v"


def test_json_round_trip():
    x = LaurentPoly({5: 12345678901234567890, -2: -7})
    data = x.to_json()
    assert data == [[-2, "-7"], [5, "12345678901234567890"]]
    assert LaurentPoly.from_json(data) == x


def test_hash_and_eq():
    assert hash(V + 1) == hash(LaurentPoly({0: 1, 1: 1}))
    assert (V - V) == 0
    assert ONE == 1
