from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codefam import code as cd
from codefam import ensemble as ens
from codefam import graphcode as gc
from codefam import matrix as mx
from codefam import symmetric as sym
from codefam.gf import make_field

f2 = make_field(2, 1)


@pytest.fixture(scope="module")
def outer():
    return sym.build_outer_graph(2, 4, 2, Fraction(1, 4))


@pytest.fixture(scope="module")
def sgc(outer):
    inner = gc.build_bipartite(2, 4, 4, Fraction(1, 4), Fraction(1, 4),
                               Fraction(1, 4), rng_seed=5, ell=2, ell0=2,
                               k_row=2, family_size=4, eps_fam=Fraction(1, 4))
    return sym.concat_graph(outer, inner)


def basis_matrices(C):
    return [row.reshape(C.side, C.side) for row in C.G]


def block(X, ell, i, j):
    """The ell x ell block (i, j) of X."""
    return X[i * ell:(i + 1) * ell, j * ell:(j + 1) * ell]


def test_symmetric_tensor_dimension_and_symmetry():
    A = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64)
    C = sym.symmetric_tensor(f2, A)
    assert C.dim == 3  # k(k+1)/2 with k=2
    for M in basis_matrices(C):
        assert np.array_equal(M, M.T)
    with pytest.raises(sym.RankDeficient):
        sym.symmetric_tensor(f2, [[1, 1], [1, 1]])


def test_truncate_diagonal_kills_degenerate_base():
    # A = I2: codewords are the symmetric matrices themselves, so zeroing
    # the 1x1 diagonal blocks drops the E_ii directions
    C = sym.symmetric_tensor(f2, mx.identity(2))
    with pytest.raises(sym.KernelNontrivial):
        sym.truncate_diagonal(C, 2, 1)


def test_build_outer_graph_fixture(outer):
    assert outer.dim == 10
    assert outer.side == 8
    # every basis codeword is symmetric with zero diagonal blocks
    for M in basis_matrices(outer.space):
        assert np.array_equal(M, M.T)
        for i in range(outer.n):
            assert not block(M, outer.ell, i, i).any()


def test_build_outer_graph_validation():
    with pytest.raises(sym.SymmetricCodeError):
        sym.build_outer_graph(4, 4, 2, Fraction(1, 4))  # composite q
    with pytest.raises(sym.SymmetricCodeError):
        sym.build_outer_graph(2, 5, 2, Fraction(1, 4))  # q^ell < n


def test_concat_preserves_symmetry_and_dimension(sgc):
    assert sgc.N == 16
    assert sgc.dim == 10
    assert sgc.rate == Fraction(10, 120) == Fraction(1, 12)
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = sgc.encode(rng.integers(0, 2, size=sgc.dim, dtype=np.int64))
        assert np.array_equal(X, X.T)
        D = sgc.D_in
        for i in range(sgc.n):
            assert not X[i * D:(i + 1) * D, i * D:(i + 1) * D].any()


def test_decode_graph_roundtrip(sgc):
    rng = np.random.default_rng(1)
    msg = rng.integers(0, 2, size=sgc.dim, dtype=np.int64)
    X = [list(r) for r in sgc.encode(msg)]
    assert np.array_equal(sym.decode_graph(sgc, X, set(), set()), msg)
    assert np.array_equal(sym.decode_graph(sgc, X, {3}, {3}), msg)
    assert np.array_equal(sym.decode_graph(sgc, X, {0}, {9}), msg)


def test_verify_graph_modes(sgc):
    rep = sym.verify_graph(sgc, Fraction(1, 16))
    assert rep.passed and rep.mode == "exhaustive"
    assert rep.patterns_tested == 17  # empty set + 16 singletons
    mc = sym.verify_graph(sgc, Fraction(1, 16), mode="montecarlo",
                          budget=20, rng_seed=4)
    assert mc.passed and mc.rng_seed == 4
    with pytest.raises(sym.SymmetricCodeError):
        sym.verify_graph(sgc, Fraction(1, 16), mode="montecarlo", budget=5)


def test_concat_validation(outer):
    inner = gc.build_bipartite(2, 4, 8, Fraction(1, 4), Fraction(1, 4),
                               Fraction(1, 4), rng_seed=1, ell=2, ell0=2,
                               k_row=2, family_size=4, eps_fam=Fraction(1, 4))
    with pytest.raises(sym.SymmetricCodeError):
        sym.concat_graph(outer, inner)  # not square


def test_vertex_units_match_brute_force(sgc):
    msgs = np.array([[(v >> i) & 1 for i in range(sgc.dim)]
                     for v in range(1, 2 ** sgc.dim)], dtype=np.int64)
    cws = mx.matmul(f2, msgs, sgc.G).reshape(-1, sgc.N, sgc.N)
    for size in range(3):
        for S in combinations(range(sgc.N), size):
            keep = [a for a in range(sgc.N) if a not in S]
            hidden = ~cws[:, keep][:, :, keep].reshape(len(msgs), -1).any(axis=1)
            assert sgc.unit_code.corrects(S) == (not hidden.any()), S


def test_verify_graph_budget_and_unknown_mode(sgc):
    with pytest.raises(ens.BudgetExceeded):
        sym.verify_graph(sgc, Fraction(1, 16), budget=16)  # 17 patterns
    with pytest.raises(ens.EnsembleError):
        sym.verify_graph(sgc, Fraction(1, 16), mode="sampled", rng_seed=1)


# ----------------------------------------------------------------------
# The block-by-block encoder and decoder, kept as the reference for the
# concatenation core the code now encodes and decodes through.
# ----------------------------------------------------------------------

def oracle_encode_outer_word(SGC, X):
    """Each off-diagonal ell x ell block of the outer word X encoded by the
    inner code; blocks below the diagonal encode their transpose and are
    placed transposed."""
    n, D = SGC.n, SGC.D_in
    out = np.zeros((SGC.N, SGC.N), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            blk = block(X, SGC.ell, i, j)
            if i <= j:
                enc = SGC.inner.encode_matrix(blk.reshape(-1))
            else:
                enc = SGC.inner.encode_matrix(blk.T.reshape(-1)).T
            out[i * D:(i + 1) * D, j * D:(j + 1) * D] = enc
    return out


def oracle_generator(SGC):
    space = SGC.outer.space
    return cd.unit_generator(lambda e: oracle_encode_outer_word(
        SGC, mx.matmul(SGC.spec, e[None, :], space.G)[0].reshape(space.side, space.side)),
        space.dim)


def oracle_decode_graph(SGC, received, E, F):
    """Inner-decode every block outside the too-damaged super-rows E0 and
    super-columns F0 (transposing blocks below the diagonal), then solve
    the outer code on the recovered cells."""
    n, e, D = SGC.n, SGC.ell, SGC.D_in
    E = frozenset(E)
    F = frozenset(F)
    thresh = SGC.outer.delta_prime * D
    E0 = {i for i in range(n)
          if sum(1 for a in E if a // D == i) > thresh}
    F0 = {j for j in range(n)
          if sum(1 for b in F if b // D == j) > thresh}
    side = SGC.outer.side
    known_cols: list[int] = []
    known_vals: list[int] = []
    for i in range(n):
        if i in E0:
            continue
        Ei = sorted(a % D for a in E if a // D == i)
        for j in range(n):
            if j in F0 or i == j:
                continue
            Fj = sorted(b % D for b in F if b // D == j)
            blk = [[None if (a in Ei or b in Fj or
                             received[i * D + a][j * D + b] is None)
                    else int(received[i * D + a][j * D + b])
                    for b in range(D)] for a in range(D)]
            try:
                if i < j:
                    cell = SGC.inner.decode_matrix(blk, S=Ei, T=Fj).reshape(e, e)
                else:
                    blk_t = [[blk[a][b] for a in range(D)] for b in range(D)]
                    cell = SGC.inner.decode_matrix(
                        blk_t, S=Fj, T=Ei).reshape(e, e).T
            except cd.DecodingFailure:
                continue
            for x in range(e):
                for y in range(e):
                    known_cols.append((i * e + x) * side + (j * e + y))
                    known_vals.append(int(cell[x, y]))
    return cd._solve_erasures(SGC.spec, SGC.outer.space.G, known_cols, known_vals,
                              "outer block-erasure solve failed")


@pytest.fixture(scope="module", params=["q2", "q3"])
def any_sgc(request, sgc):
    if request.param == "q2":
        return sgc
    outer = sym.build_outer_graph(3, 3, 2, Fraction(1, 4))
    inner = gc.build_bipartite(3, 4, 4, Fraction(1, 4), Fraction(1, 4),
                               Fraction(1, 4), rng_seed=2, ell=2, ell0=2,
                               k_row=2, family_size=4, eps_fam=Fraction(1, 4))
    return sym.concat_graph(outer, inner)


def test_generator_matches_block_oracle(any_sgc):
    assert np.array_equal(any_sgc.G, oracle_generator(any_sgc))


def _outcome(decode, *args):
    try:
        return decode(*args)
    except cd.DecodingFailure as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_graph_matches_block_oracle(any_sgc, data):
    """Same message or the same DecodingFailure, within the design radius
    and beyond it."""
    N, q = any_sgc.N, any_sgc.spec.q
    E = data.draw(st.sets(st.integers(0, N - 1), max_size=6))
    F = data.draw(st.sets(st.integers(0, N - 1), max_size=6))
    lost = data.draw(st.sets(st.integers(0, N * N - 1), max_size=N * N // 4))
    msg = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=any_sgc.dim,
                                      max_size=any_sgc.dim)), dtype=np.int64)
    X = any_sgc.encode(msg)
    received = [[None if a * N + b in lost else int(X[a, b]) for b in range(N)]
                for a in range(N)]
    want = _outcome(oracle_decode_graph, any_sgc, received, E, F)
    got = _outcome(sym.decode_graph, any_sgc, received, E, F)
    if isinstance(want, cd.DecodingFailure):
        assert isinstance(got, cd.DecodingFailure) and str(got) == str(want)
    else:
        assert np.array_equal(got, want) and np.array_equal(got, msg)
