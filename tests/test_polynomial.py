"""Exact polynomial arithmetic, checked against a dense list oracle."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hypermatch import PolynomialShapeError, SparsePolynomial


def dense_multiply(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook convolution on ascending dense coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def to_ascending(p: SparsePolynomial) -> list[int]:
    return p.to_dense()[::-1]


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


def from_ascending(coeffs):
    return SparsePolynomial(dict(enumerate(coeffs)))


def test_basic_construction_and_terms():
    p = SparsePolynomial({3: 1, 0: -1})
    assert p.degree() == 3
    assert p.leading_coefficient() == 1
    assert p.to_dense() == [1, 0, 0, -1]
    assert list(p.terms()) == [(3, 1), (0, -1)]
    assert str(p) == "x^3 - 1"


def test_zero_coefficients_never_stored():
    p = SparsePolynomial({2: 1, 1: 0}) + SparsePolynomial({2: -1})
    assert p.is_zero()
    assert list(p.terms()) == []
    assert p.degree() == -1


def test_shift_and_scale():
    p = SparsePolynomial({5: 1, 0: -1})  # x^5 - 1
    assert p.shift(3) == SparsePolynomial({8: 1, 3: -1})
    assert p.scale(-2) == SparsePolynomial({5: -2, 0: 2})
    with pytest.raises(ValueError):
        p.shift(-1)


def test_monomial_product_example():
    # (x^r - 1) * x^k for r=4, k=3
    p = SparsePolynomial({4: 1, 0: -1}) * SparsePolynomial({3: 1})
    assert p == SparsePolynomial({7: 1, 3: -1})


def test_power():
    p = SparsePolynomial({1: 1, 0: 1})  # x + 1
    assert p**0 == SparsePolynomial.one()
    assert p**3 == SparsePolynomial({3: 1, 2: 3, 1: 3, 0: 1})


def test_equality_is_structural():
    p = SparsePolynomial({2: 3, 0: 1})
    assert p == SparsePolynomial({0: 1, 2: 3})
    assert p != SparsePolynomial({2: 3})
    assert p == p


def test_evaluate():
    p = SparsePolynomial({3: 1, 0: -1})
    assert p.evaluate(2) == 7
    assert p.evaluate(1) == 0
    assert p.evaluate(1j) == -1 - 1j


def test_derivative():
    p = SparsePolynomial({3: 2, 1: 5, 0: 9})
    assert p.derivative() == SparsePolynomial({2: 6, 0: 5})


@pytest.mark.parametrize(
    "op", [lambda p: p * 2.5, lambda p: 2.5 * p, lambda p: p + 1, lambda p: p - 1]
)
def test_non_polynomial_operands_raise_type_error(op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(SparsePolynomial({1: 1, 0: -1}))


def test_int_scaling_from_either_side():
    p = SparsePolynomial({1: 1, 0: -1})
    assert 2 * p == p * 2 == p.scale(2) == SparsePolynomial({1: 2, 0: -2})
    assert p * 0 == SparsePolynomial.zero()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SparsePolynomial({-1: 2})
    with pytest.raises(ValueError):
        SparsePolynomial({-1: 0})


@pytest.mark.parametrize("terms", [
    {1: 2.5, 0: 1}, {1: 2, 0.9: 1}, {2.0: 3}, {1: 2.0},
    {"2": 3}, {2: "3"}, {True: 1}, {1: True}, {1: False},
])
def test_non_integer_terms_rejected(terms):
    # int() would read {1: 2.5, 0.9: 1} as 2x + 1 and {"2": "3"} as 3x^2
    with pytest.raises(TypeError, match="must be an integer"):
        SparsePolynomial(terms)


def test_integer_type_terms_accepted():
    np = pytest.importorskip("numpy")
    p = SparsePolynomial({np.int64(2): np.int64(3), np.int32(0): np.uint8(0)})
    assert p == SparsePolynomial({2: 3})
    assert [type(v) for term in p.terms() for v in term] == [int, int]


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_dense_oracle(a, b):
    lhs = from_ascending(a) * from_ascending(b)
    assert to_ascending(lhs) == to_ascending(from_ascending(dense_multiply(a, b)))


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    pa, pb, pc = from_ascending(a), from_ascending(b), from_ascending(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert pa - pa == SparsePolynomial.zero()


def _from_json_dict(data):
    return SparsePolynomial({t["exp"]: int(t["coef"]) for t in data["terms"]})


def test_json_round_trip_with_string_coefficients():
    p = SparsePolynomial({13: 1, 10: -6, 7: 8})
    data = p.to_json_dict()
    assert data["var"] == "x"
    assert data["terms"] == [
        {"exp": 13, "coef": "1"},
        {"exp": 10, "coef": "-6"},
        {"exp": 7, "coef": "8"},
    ]
    assert _from_json_dict(json.loads(json.dumps(data))) == p


def test_json_huge_coefficients_exact():
    big = 10**40 + 7
    p = SparsePolynomial({2: big, 0: -big})
    assert _from_json_dict(p.to_json_dict()) == p


def test_dense_conversion():
    p = SparsePolynomial({3: 1, 0: -2})
    assert p.to_dense() == [1, 0, 0, -2]
    assert SparsePolynomial.zero().to_dense() == [0]
