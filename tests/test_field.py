"""Field arithmetic, conjugation, and q-analog combinatorics."""

import pytest
from hypothesis import given, strategies as st

from clflats.field import (
    SUPPORTED_ORDERS,
    conjugate,
    e_power,
    field_of_order,
    gauss_binomial,
    make_field,
)
from clflats.geometry import space_config


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    fld = field_of_order(q)
    elems = list(fld.elements())
    for a in elems:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.add(a, fld.neg(a)) == 0
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
        for b in elems:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elems:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_addition_is_digit_wise_mod_p(q):
    """add_table adds the base-p digits of the codes mod p, so the codes
    p^j, j < k, generate (F_q, +), and the unit translations of the
    spreads' character plan generate F_q^(2 nu)."""
    fld = field_of_order(q)
    p, k = fld.p, fld.k
    assert p**k == q

    def digits(a):
        return [a // p**j % p for j in range(k)]

    for a in range(q):
        for b in range(q):
            assert digits(fld.add_table[a][b]) == [(x + y) % p
                                                   for x, y in zip(digits(a), digits(b))]
    reached = {0}
    for _ in range(k * (p - 1)):
        reached |= {fld.add_table[a][p**j] for a in reached for j in range(k)}
    assert reached == set(range(q))


def test_f4_modulus_spot():
    f4 = make_field(2, 2)
    t, t_plus_1 = 2, 3  # encodings of t and t+1
    assert f4.mul(t, t_plus_1) == 1


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 4)
    with pytest.raises(ValueError):
        field_of_order(6)


@pytest.mark.parametrize("q", [4, 9])
def test_conjugation_is_involutive_automorphism(q):
    fld = field_of_order(q)
    fixed = 0
    for a in fld.elements():
        assert fld.conj(fld.conj(a)) == a
        if fld.conj(a) == a:
            fixed += 1
        for b in fld.elements():
            assert fld.conj(fld.add(a, b)) == fld.add(fld.conj(a), fld.conj(b))
            assert fld.conj(fld.mul(a, b)) == fld.mul(fld.conj(a), fld.conj(b))
    assert fixed == fld.q0
    assert fld.conj(0) == 0 and fld.conj(1) == 1


def test_conjugation_f4_spot():
    f4 = make_field(2, 2)
    assert f4.conj(2) == 3  # the generator maps to its square


def test_conjugation_needs_square_order():
    with pytest.raises(ValueError):
        field_of_order(3).conj(1)


def test_field_element_wrapper():
    f4 = make_field(2, 2)
    a, b = f4.element(2), f4.element(3)
    assert (a * b).value == 1
    assert (a + a).value == 0
    assert conjugate(a).value == 3
    other = make_field(3, 1).element(1)
    with pytest.raises(ValueError):
        _ = a + other


def _subspace_count_brute(n, k, q):
    """Independent oracle: count k-dim row spaces over F_q by spanning."""
    from itertools import combinations, product
    fld = field_of_order(q)
    vectors = [v for v in product(range(q), repeat=n) if any(v)]

    def span(rows):
        out = {(0,) * n}
        for r in rows:
            out = {tuple(fld.add(x, fld.mul(c, y)) for x, y in zip(v, r))
                   for v in out for c in range(q)}
        return frozenset(out)

    spaces = {s for rows in combinations(vectors, k)
              if len(s := span(rows)) == q**k}
    return len(spaces)


@pytest.mark.parametrize("n,k,q,expected", [(2, 1, 2, 3), (4, 2, 2, 35), (3, 1, 3, 13)])
def test_gauss_binomial_against_bruteforce(n, k, q, expected):
    assert gauss_binomial(n, k, q) == expected
    assert _subspace_count_brute(n, k, q) == expected


def test_gauss_binomial_edges():
    assert gauss_binomial(5, 0, 2) == 1
    assert gauss_binomial(5, -1, 2) == 0
    assert gauss_binomial(3, 4, 2) == 0
    with pytest.raises(ValueError):
        gauss_binomial(3, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gauss_binomial_symmetry_and_recurrence(q):
    for n in range(13):
        for k in range(n + 1):
            assert gauss_binomial(n, k, q) == gauss_binomial(n, n - k, q)
            if n:
                assert gauss_binomial(n, k, q) == (
                    gauss_binomial(n - 1, k - 1, q)
                    + q**k * gauss_binomial(n - 1, k, q))


@given(st.integers(0, 10), st.integers(0, 10), st.sampled_from([2, 3, 4, 5]))
def test_gauss_binomial_positive_in_range(n, k, q):
    v = gauss_binomial(n, k, q)
    assert v >= 0
    assert (v > 0) == (0 <= k <= n)


@pytest.mark.parametrize("case,q,twice,expected", [
    ("symplectic", 2, 2, 2),
    ("orthogonal", 3, 0, 1),
    ("unitary", 4, 1, 2),
    ("unitary", 9, 3, 27),
])
def test_e_power_values(case, q, twice, expected):
    cfg = space_config(case, q, max(1, 1))
    assert e_power(cfg, twice) == expected


def test_e_power_rejects_half_power_without_root():
    cfg = space_config("symplectic", 2, 1)
    with pytest.raises(ValueError):
        e_power(cfg, 3)


@pytest.mark.parametrize("case,q", [("symplectic", 2), ("symplectic", 3),
                                    ("unitary", 4), ("unitary", 9),
                                    ("orthogonal", 3), ("orthogonal", 5)])
def test_e_power_square_consistency(case, q):
    cfg = space_config(case, q, 1)
    for t in range(7):
        assert e_power(cfg, cfg.e2 * t) ** 2 == q ** (cfg.e2 * t)
