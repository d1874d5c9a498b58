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


# ----------------------------------------------------------------------
# The row-list path (below matrix.ROW_PATH_CELLS cells) against the array
# path and a scalar Gauss-Jordan oracle.
# ----------------------------------------------------------------------

# GF(2^10) and GF(3^6) are past gf._ROW_TABLE_MAX_Q: their row kernels read
# log/antilog lists (and Zech logarithms for p = 3) instead of q x q tables
ELIMINATION_FIELDS = [make_field(p, m) for p, m in [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1),
                                                    (2, 4), (257, 1), (2, 10), (3, 6)]]


def oracle_rref(spec, a):
    """Reduced row echelon form (list of rows) and pivot columns of `a` by
    Gauss-Jordan one scalar field operation at a time."""
    m = [[int(v) for v in row] for row in a]
    ncols = a.shape[1]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = spec.inv(m[r][c])
        m[r] = [spec.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [spec.sub(v, spec.mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def oracle_kernel(spec, a):
    R, pivots = oracle_rref(spec, a)
    n = a.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for j, f in enumerate(free):
        basis[j, f] = 1
        for i, c in enumerate(pivots):
            basis[j, c] = spec.neg(R[i][f])
    return basis


def oracle_solve(spec, a, b):
    rhs = b[:, None] if b.ndim == 1 else b
    R, pivots = oracle_rref(spec, np.concatenate([a, rhs], axis=1))
    ncols = a.shape[1]
    if pivots and pivots[-1] >= ncols:
        return mx.NO_SOLUTION
    if len(pivots) < ncols:
        return mx.UNDERDETERMINED
    x = np.array([row[ncols:] for row in R[:ncols]], dtype=np.int64).reshape(ncols, -1)
    return x[:, 0] if b.ndim == 1 else x


def on_each_path(fn):
    """[fn() on row lists, on arrays, at the ROW_PATH_CELLS threshold]."""
    saved = mx.ROW_PATH_CELLS
    out = []
    try:
        for cells in (1 << 62, 0, saved):
            mx.ROW_PATH_CELLS = cells
            out.append(fn())
    finally:
        mx.ROW_PATH_CELLS = saved
    return out


@st.composite
def low_rank_matrix(draw):
    """(field, matrix of rank at most a drawn k, rng): a product of r x k and
    k x c random factors, the second one sparse at a drawn density; k is
    min(r, c) about half the time, and any smaller rank otherwise.  Half
    the shapes have fewer cells than ROW_PATH_CELLS, half at least as many,
    and half are transposed (more rows than columns)."""
    spec = draw(st.sampled_from(ELIMINATION_FIELDS))
    if draw(st.booleans()):
        r = draw(st.integers(16, 24))
        c = draw(st.integers(-(-mx.ROW_PATH_CELLS // r), 36))
    else:
        r, c = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    if draw(st.booleans()):
        r, c = c, r
    k = draw(st.one_of(st.just(min(r, c)), st.integers(0, min(r, c))))
    density = draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    left = rng.integers(0, spec.q, size=(r, k))
    right = rng.integers(0, spec.q, size=(k, c)) * (rng.random((k, c)) < density)
    return spec, mx.matmul(spec, left, right), rng


@settings(max_examples=60, deadline=None)
@given(low_rank_matrix())
def test_rank_row_path_matches_array_path_and_oracle(case):
    spec, a, _ = case
    want = len(oracle_rref(spec, a)[1])
    assert on_each_path(lambda: mx.rank(spec, a)) == [want] * 3
    assert on_each_path(lambda: len(mx._eliminate(spec, a)[1])) == [want] * 3
    assert on_each_path(lambda: mx._rank_rows(spec, a.tolist())) == [want] * 3


@settings(max_examples=60, deadline=None)
@given(low_rank_matrix())
def test_kernel_basis_row_path_matches_array_path_and_oracle(case):
    spec, a, _ = case
    want = oracle_kernel(spec, a)
    for got in on_each_path(lambda: mx.kernel_basis(spec, a)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(low_rank_matrix(), st.sampled_from([None, 1, 3]),
       st.booleans())
def test_solve_row_path_matches_array_path_and_oracle(case, nrhs, consistent):
    """One right-hand side (a vector) or several (columns); consistent ones
    give the unique solution or UNDERDETERMINED, random ones mostly
    NO_SOLUTION once a is rank-deficient."""
    spec, a, rng = case
    shape = (a.shape[1],) if nrhs is None else (a.shape[1], nrhs)
    b = rng.integers(0, spec.q, size=(a.shape[0],) + shape[1:])
    if consistent:
        x = rng.integers(0, spec.q, size=shape)
        b = mx.matvec(spec, a, x) if nrhs is None else mx.matmul(spec, a, x)
    want = oracle_solve(spec, a, b)
    for got in on_each_path(lambda: mx.solve(spec, a, b)):
        if isinstance(want, np.ndarray):
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert got.shape == want.shape
        else:
            assert got is want


@pytest.mark.parametrize("spec", ELIMINATION_FIELDS, ids=lambda s: f"GF{s.q}")
def test_solve_outcomes_on_each_path(spec):
    """NO_SOLUTION, UNDERDETERMINED and a unique solution, one and several
    right-hand sides, on both sides of the cell threshold."""
    rng = np.random.default_rng(spec.q)
    for r, c in [(4, 3), (40, 20)]:
        while True:
            a = rng.integers(0, spec.q, size=(r, c))
            if mx.rank(spec, a) == c:
                break
        x = rng.integers(0, spec.q, size=(c, 2))
        b = mx.matmul(spec, a, x)
        # row 0 repeated with a different right-hand side; column 0 repeated
        tall, bad = np.concatenate([a, a[:1]]), np.concatenate([b, b[:1]])
        bad[-1, 0] = spec.add(int(bad[-1, 0]), 1)
        wide = np.concatenate([a, a[:, :1]], axis=1)
        for got in on_each_path(lambda: mx.solve(spec, a, b)):
            assert np.array_equal(got, x)
        for got in on_each_path(lambda: mx.solve(spec, a, b[:, 0])):
            assert np.array_equal(got, x[:, 0])
        assert on_each_path(lambda: mx.solve(spec, tall, bad)) == [mx.NO_SOLUTION] * 3
        assert on_each_path(lambda: mx.solve(spec, wide, b)) == [mx.UNDERDETERMINED] * 3
