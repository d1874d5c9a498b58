import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codefam import matrix as mx
from codefam.code import code_from_text, code_to_text, reed_solomon
from codefam.gf import (FieldSpec, make_field, smallest_irreducible, NotPrime,
                        OrderTooLarge, DivisionByZero, FieldError)


def test_prime_field_matches_int_mod_p():
    f = make_field(7, 1)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.sub(a, b) == (a - b) % 7
            assert f.mul(a, b) == (a * b) % 7
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_smallest_irreducible_known_values():
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(2, 2) == (1, 1, 1)          # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)       # x^3 + x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)          # x^2 + 1


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (2, 4)])
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.q
    els = list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.sub(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # associativity and distributivity on all triples
    for a in els:
        for b in els:
            ab = f.mul(a, b)
            assert ab == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(ab, f.mul(a, c))


def test_generator_has_full_order():
    f = make_field(2, 4)
    seen = set()
    acc = 1
    for _ in range(f.q - 1):
        seen.add(acc)
        acc = f.mul(acc, f.generator)
    assert seen == set(range(1, f.q))


def test_frobenius_is_additive():
    f = make_field(3, 2)
    for a in range(f.q):
        for b in range(f.q):
            lhs = f.pow(f.add(a, b), 3)
            rhs = f.add(f.pow(a, 3), f.pow(b, 3))
            assert lhs == rhs


def test_vectorized_ops_match_scalar():
    f = make_field(2, 3)
    a = np.arange(f.q, dtype=np.int64)
    b = np.arange(f.q, dtype=np.int64)[::-1].copy()
    add = f.add(a, b)
    mul = f.mul(a, b)
    for i in range(f.q):
        assert int(add[i]) == f.add(int(a[i]), int(b[i]))
        assert int(mul[i]) == f.mul(int(a[i]), int(b[i]))


def test_digits_roundtrip():
    f = make_field(3, 3)
    v = np.arange(f.q, dtype=np.int64)
    d = f.to_digits(v)
    assert d.shape == (f.q, 3)
    back = f.from_digits(d)
    assert np.array_equal(back, v)


def test_pow_edge_cases():
    f = make_field(5, 1)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 3) == 0
    assert f.pow(2, 0) == 1
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_errors():
    with pytest.raises(NotPrime):
        FieldSpec(4, 1)
    with pytest.raises(OrderTooLarge):
        FieldSpec(2, 17)
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 reducible over GF(2)


def test_make_field_cached():
    assert make_field(2, 3) is make_field(2, 3)


def test_make_field_cached_per_irreducible():
    """One FieldSpec per (p, m, irreducible): code texts reuse it."""
    f = make_field(3, 2, (2, 1, 1))
    assert f is make_field(3, 2, [2, 1, 1]) and f != make_field(3, 2)
    text = code_to_text(reed_solomon(f, 2, 4))
    assert code_from_text(text).spec is code_from_text(text).spec is f


# -- differential tests against schoolbook polynomial arithmetic ----------

def oracle_digits(f, v):
    return [v // f.p ** i % f.p for i in range(f.m)]


def oracle_value(f, ds):
    return sum(d % f.p * f.p ** i for i, d in enumerate(ds))


def oracle_add(f, a, b, sign=1):
    """a + sign*b, digit by digit."""
    return oracle_value(f, [x + sign * y for x, y in
                            zip(oracle_digits(f, a), oracle_digits(f, b))])


def oracle_mul(f, a, b):
    """a*b by the schoolbook polynomial product, reduced mod the irreducible:
    each coefficient c of x^d, d >= m, becomes -c*f_i on x^(d-m+i)."""
    m = f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(oracle_digits(f, a)):
        for j, y in enumerate(oracle_digits(f, b)):
            prod[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d] % f.p
        for i in range(m):
            prod[d - m + i] -= c * f.irreducible[i]
    return oracle_value(f, prod[:m])


def oracle_pow(f, a, e):
    """a^e for e >= 0 by square and multiply with oracle_mul."""
    out = 1
    while e:
        if e & 1:
            out = oracle_mul(f, out, a)
        a, e = oracle_mul(f, a, a), e >> 1
    return out


# (p, m, irreducible) -> (generator, sha256 prefix of the _exp, _log, _inv,
# _neg and _add_table arrays), recorded when the tables were still built
# from schoolbook products.  x is not primitive in GF(3^2) with x^2 + 1 nor
# in GF(2^8); GF(3^6) and GF(5^4) add digit-wise, with no add table.
FIELD_TABLES = {
    (2, 1, None): (1, "62b867960a0426b9"),
    (3, 1, None): (2, "926c8c6f81385f68"),
    (2, 2, None): (2, "335a846445b0dc75"),
    (2, 3, None): (2, "464ffa952162696a"),
    (3, 2, None): (4, "8d0d8f200adacb4e"),
    (13, 1, None): (2, "f6760c434565179a"),
    (2, 4, None): (2, "c6a23c552bbd0a59"),
    (5, 2, None): (7, "b984441ab4745d31"),
    (3, 3, None): (3, "63db2743b9f92f15"),
    (257, 1, None): (3, "fb234b17cd597b5a"),
    (3, 6, None): (4, "dec8a0b0e4799a5b"),
    (3, 2, (1, 0, 1)): (4, "8d0d8f200adacb4e"),
    (3, 2, (2, 1, 1)): (3, "86759f220e381717"),
    (2, 8, None): (6, "04863d9200319e3c"),
    (5, 4, None): (30, "d92ab39893649e7d"),
}
FIELDS = [make_field(*key) for key in FIELD_TABLES]


@pytest.mark.parametrize("key", FIELD_TABLES, ids=str)
def test_field_tables_pinned(key):
    f = make_field(*key)
    h = hashlib.sha256()
    for name in ("_exp", "_log", "_inv", "_neg", "_add_table"):
        a = getattr(f, name)
        h.update(name.encode())
        h.update(b"none" if a is None else np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert (f.generator, h.hexdigest()[:16]) == FIELD_TABLES[key]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_ops_match_schoolbook(data):
    f = data.draw(st.sampled_from(FIELDS))
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    assert f.mul(a, b) == oracle_mul(f, a, b)
    assert f.add(a, b) == oracle_add(f, a, b)
    assert f.sub(a, b) == oracle_add(f, a, b, -1)
    assert f.neg(a) == oracle_add(f, 0, a, -1)
    e = data.draw(st.integers(0, 2 * f.q))
    assert f.pow(a, e) == oracle_pow(f, a, e)
    if a:
        assert oracle_mul(f, a, f.inv(a)) == 1
        assert oracle_mul(f, f.pow(a, -e), oracle_pow(f, a, e)) == 1
    digits = oracle_digits(f, a)
    assert f.to_digits(a).tolist() == digits
    assert f.from_digits(digits) == a and type(f.from_digits(digits)) is int


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_ops_match_schoolbook(data):
    f = data.draw(st.sampled_from(FIELDS))
    shape = data.draw(st.sampled_from([(0,), (5,), (2, 3)]))
    a, b = (np.array(data.draw(st.lists(st.integers(0, f.q - 1), min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape)))),
                     dtype=np.int64).reshape(shape) for _ in range(2))
    pairs = list(zip(a.ravel().tolist(), b.ravel().tolist()))
    assert f.mul(a, b).ravel().tolist() == [oracle_mul(f, x, y) for x, y in pairs]
    assert f.add(a, b).ravel().tolist() == [oracle_add(f, x, y) for x, y in pairs]
    assert f.sub(a, b).ravel().tolist() == [oracle_add(f, x, y, -1) for x, y in pairs]
    assert f.neg(a).ravel().tolist() == [oracle_add(f, 0, x, -1) for x, _ in pairs]
    digits = f.to_digits(a)
    assert digits.shape == shape + (f.m,)
    assert digits.reshape(-1, f.m).tolist() == [oracle_digits(f, x) for x in a.ravel().tolist()]
    assert np.array_equal(f.from_digits(digits), a)


def test_gf_2_16_irreducible_and_generator():
    f = make_field(2, 16)
    assert f.irreducible == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
    n = f.q - 1  # 3 * 5 * 17 * 257
    assert oracle_pow(f, f.generator, n) == 1
    assert all(oracle_pow(f, f.generator, n // r) != 1 for r in (3, 5, 17, 257))


@pytest.mark.parametrize("p,m", [(13, 1), (2, 4), (2, 10)])
def test_field_pickles_after_its_row_kernel_is_built(p, m):
    """FieldSpecs stay shareable with worker processes once an elimination
    has built their (closure-holding) row kernel."""
    f = FieldSpec(p, m)
    a, b = np.array([[1, 2], [3, 1]]), np.array([1, 0])  # invertible in all three
    want = mx.solve(f, a, b)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and "_row_ops" not in vars(g)
    assert np.array_equal(mx.solve(g, a, b), want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_kernel_scalar_ops_match_schoolbook(data):
    """The row kernel's single-encoding sub and mul (Reed-Solomon
    interpolation's arithmetic) on every table path: mod p, q x q tables,
    log/antilog for p = 2 and Zech logarithms for odd p above 256."""
    f = data.draw(st.sampled_from(FIELDS + [make_field(2, 10)]))
    inverses, _, _, sub, mul = f._row_ops
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    assert sub(a, b) == oracle_add(f, a, b, -1)
    assert mul(a, b) == oracle_mul(f, a, b)
    if a:
        assert oracle_mul(f, a, inverses[a]) == 1
