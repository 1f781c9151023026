import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tanglekh.algebra import (GF2, QQ, LaurentPolynomial, PrimeField,
                              Q_PLUS_QINV, SADDLE, field_from_name, is_prime)


def test_field_from_name():
    assert field_from_name("q") == QQ
    assert field_from_name("f2") == GF2
    assert field_from_name("fp:5") == PrimeField(5)
    assert field_from_name("f7") == PrimeField(7)
    with pytest.raises(ValueError):
        field_from_name("gf9")
    with pytest.raises(ValueError):
        PrimeField(6)


def test_is_prime_matches_trial_division():
    for n in range(3000):
        naive = n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))
        assert is_prime(n) == naive, n


def test_prime_field_large_moduli():
    start = time.perf_counter()
    f = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1
    assert f.mul(f.coerce(3), f.inv(f.coerce(3))) == f.one
    # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    # 2^89 - 1 is prime, but above the certified bound
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_inverse(a, b):
    f = PrimeField(7)
    x = f.coerce(a)
    if x != 0:
        assert f.mul(x, f.inv(x)) == f.one
    assert f.add(f.coerce(a), f.coerce(b)) == f.coerce(a + b)
    assert f.mul(f.coerce(a), f.coerce(b)) == f.coerce(a * b)


coeffs = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)


@given(coeffs, coeffs, coeffs)
def test_laurent_ring_laws(a, b, c):
    pa, pb, pc = (LaurentPolynomial(x) for x in (a, b, c))
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert pa - pa == LaurentPolynomial.zero()


@given(coeffs)
def test_laurent_json_round_trip(a):
    p = LaurentPolynomial(a)
    assert LaurentPolynomial.from_json(p.to_json()) == p


def test_laurent_drops_zeros_and_pow():
    assert LaurentPolynomial({3: 0, 1: 2}).coeffs == {1: 2}
    assert Q_PLUS_QINV ** 2 == LaurentPolynomial({2: 1, 0: 2, -2: 1})
    assert LaurentPolynomial({0: 1}) == 1


def test_laurent_fraction_coeffs():
    p = LaurentPolynomial({1: Fraction(1, 2)})
    assert (p + p).coeffs == {1: 1}


def test_local_map_merge():
    assert SADDLE["circle-merge"] == {("+", "+"): {("+",): 1},
                                      ("+", "-"): {("-",): 1},
                                      ("-", "+"): {("-",): 1},
                                      ("-", "-"): {}}


def test_local_map_split():
    assert SADDLE["circle-split"] == {("+",): {("+", "-"): 1,
                                               ("-", "+"): 1},
                                      ("-",): {("-", "-"): 1}}
    # the two terms of the comultiplication of v+, in this order
    assert list(SADDLE["circle-split"][("+",)]) == [("+", "-"), ("-", "+")]


def test_local_map_arc_cases():
    assert SADDLE["arc-split-circle"] == {("w",): {("w", "-"): 1}}
    assert SADDLE["arc-circle-merge"] == {("w", "+"): {("w",): 1},
                                          ("w", "-"): {}}
    assert SADDLE["arc-arc-reconnect"] == {("w", "w"): {}}


THETA = {"+": 1, "-": -1, "w": -1}


def test_local_map_theta_drop():
    """Every local saddle map lowers theta by exactly 1."""
    def theta(labels):
        return sum(THETA[x] for x in labels)

    terms = 0
    for kind, table in SADDLE.items():
        for src, outs in table.items():
            for dst, coeff in outs.items():
                assert coeff == 1
                assert theta(dst) == theta(src) - 1, (kind, src, dst)
                terms += 1
    assert terms == 8
