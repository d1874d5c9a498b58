import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codefam import matrix as mx
from codefam.gf import make_field


def naive_matmul(spec, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = spec.add(acc, spec.mul(int(a[i, k]), int(b[k, j])))
            out[i, j] = acc
    return out


def column_loop_matmul(spec, a, b):
    """The column loop `matrix.matmul` runs over extension fields, and ran
    over prime fields too before they went to one int64 product."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        colk = a[:, k]
        nz = np.nonzero(colk)[0]
        if len(nz) == 0:
            continue
        term = spec.mul(colk[nz][:, None], b[k][None, :])
        out[nz] = spec.add(out[nz], term)
    return out


MATMUL_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(13, 1),
                 make_field(257, 1), make_field(2, 2), make_field(2, 4)]


def field_matrix(spec, rows, cols):
    return st.lists(st.integers(0, spec.q - 1), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda v: np.array(v, dtype=np.int64).reshape(rows, cols))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_column_loop(data):
    spec = data.draw(st.sampled_from(MATMUL_FIELDS))
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(field_matrix(spec, r, k)), data.draw(field_matrix(spec, k, c))
    assert np.array_equal(mx.matmul(spec, a, b), column_loop_matmul(spec, a, b))


@pytest.mark.parametrize("spec", MATMUL_FIELDS, ids=lambda s: f"GF{s.q}")
def test_matmul_inner_dimension_zero(spec):
    out = mx.matmul(spec, np.zeros((3, 0), dtype=np.int64), np.zeros((0, 4), dtype=np.int64))
    assert out.shape == (3, 4) and not out.any() and out.dtype == np.int64


def test_matmul_prime_field_is_exact_at_the_largest_entries():
    spec = make_field(65521, 1)
    a = np.full((2, 300), spec.q - 1, dtype=np.int64)
    want = (spec.q - 1) ** 2 * 300 % spec.q
    assert (mx.matmul(spec, a, a.T) == want).all()


def test_pack_rows_bit_layout():
    a = np.array([[1, 0, 1, 1]], dtype=np.int64)
    assert mx.pack_rows(a) == [0b1101]


def test_rank_packed_vs_generic_elimination():
    f2 = make_field(2, 1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 2, size=(5, 7), dtype=np.int64)
        fast = mx.rank(f2, a)
        _, pivots = mx._eliminate(f2, a)
        assert fast == len(pivots)


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1)])
def test_rank_properties(p, m):
    spec = make_field(p, m)
    rng = np.random.default_rng(1)
    eye = mx.identity(4)
    assert mx.rank(spec, eye) == 4
    assert mx.rank(spec, np.zeros((3, 3), dtype=np.int64)) == 0
    for _ in range(20):
        a = rng.integers(0, spec.q, size=(4, 6), dtype=np.int64)
        r = mx.rank(spec, a)
        assert r == mx.rank(spec, a.T)          # row rank == column rank
        assert 0 <= r <= 4
        doubled = np.concatenate([a, a], axis=0)
        assert mx.rank(spec, doubled) == r


def test_matmul_matches_naive():
    spec = make_field(2, 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 4, size=(3, 4), dtype=np.int64)
        b = rng.integers(0, 4, size=(4, 5), dtype=np.int64)
        assert np.array_equal(mx.matmul(spec, a, b), naive_matmul(spec, a, b))


def test_solve_unique_system():
    spec = make_field(5, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        while True:
            a = rng.integers(0, 5, size=(4, 4), dtype=np.int64)
            if mx.rank(spec, a) == 4:
                break
        x = rng.integers(0, 5, size=4, dtype=np.int64)
        b = mx.matvec(spec, a, x)
        sol = mx.solve(spec, a, b)
        assert np.array_equal(sol, x)


def test_solve_sentinels():
    spec = make_field(2, 1)
    a = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert mx.solve(spec, a, np.array([0, 1])) is mx.NO_SOLUTION
    assert mx.solve(spec, a, np.array([1, 1])) is mx.UNDERDETERMINED
    # overdetermined but consistent
    a = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    sol = mx.solve(spec, a, np.array([1, 0, 1]))
    assert np.array_equal(sol, [1, 0])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_kernel_basis(p, m):
    spec = make_field(p, m)
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.integers(0, spec.q, size=(3, 6), dtype=np.int64)
        K = mx.kernel_basis(spec, a)
        assert K.shape[0] == 6 - mx.rank(spec, a)
        if K.shape[0]:
            assert not mx.matmul(spec, a, K.T).any()
            assert mx.rank(spec, K) == K.shape[0]


def test_as_matrix_validation():
    spec = make_field(2, 1)
    with pytest.raises(ValueError):
        mx.as_matrix(spec, [[0, 2]])
    with pytest.raises(ValueError):
        mx.as_matrix(spec, [0, 1])
