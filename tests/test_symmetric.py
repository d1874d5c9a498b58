from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

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


def test_symmetric_tensor_dimension_and_symmetry():
    A = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64)
    C = sym.symmetric_tensor(f2, A)
    assert C.dim == 3  # k(k+1)/2 with k=2
    for M in C.basis_matrices():
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
    for M in outer.space.basis_matrices():
        assert np.array_equal(M, M.T)
        for i in range(outer.n):
            assert not outer.block(M, i, i).any()


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
