from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from codefam import code as cd
from codefam import ensemble as ens
from codefam import graphcode as gc
from codefam.gf import make_field

f2 = make_field(2, 1)


@pytest.fixture(scope="module")
def bp():
    return gc.build_bipartite(2, 4, 8, Fraction(1, 4), Fraction(1, 4),
                              Fraction(1, 4), rng_seed=1, ell=2, ell0=2,
                              k_row=2, family_size=4, eps_fam=Fraction(1, 4))


def test_row_code_roundtrip():
    row = gc.RowCodeRS(f2, 4, 2, 2, 2)  # symbols in GF(2^4), code over GF(4)
    assert row.ell == 4 and row.k_total == 8
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 2, size=8, dtype=np.int64)
    syms = row.encode_syms(msg)
    assert syms.shape == (4, 4)
    # M - k_row = 2 symbol erasures are corrected, a third is not
    assert np.array_equal(row.decode_digits(syms, [False, True, True, False]), msg)
    assert np.array_equal(row.decode_syms([None, *syms[1:3], None]), msg)
    with pytest.raises(cd.DecodingFailure):
        row.decode_digits(syms, [False, True, False, False])


def test_bipartite_shapes_and_rate(bp):
    assert (bp.M, bp.N, bp.k_total) == (4, 8, 4)
    assert bp.rate == Fraction(1, 8)
    assert bp.rate == bp.row_rate * bp.col_rate
    assert bp.provenance["rng_seed"] == 1


def test_bipartite_encode_decode(bp):
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 2, size=4, dtype=np.int64)
    X = bp.encode_matrix(msg)
    assert X.shape == (4, 8)
    out = bp.decode_matrix([list(r) for r in X], S={1}, T={0, 6})
    assert np.array_equal(out, msg)


def test_bipartite_corrects_matches_decode(bp):
    rng = np.random.default_rng(6)
    msg = rng.integers(0, 2, size=4, dtype=np.int64)
    X = [list(r) for r in bp.encode_matrix(msg)]
    for S in [(), (2,)]:
        for T in combinations(range(8), 2):
            ok = bp.corrects(S, T)
            try:
                dec = bp.decode_matrix(X, S=S, T=T)
                decoded = bool(np.array_equal(dec, msg))
            except cd.DecodingFailure:
                decoded = False
            # rank-correctability implies the decoder succeeds
            assert not ok or decoded


def test_bipartite_feasibility_check():
    with pytest.raises(gc.InfeasibleAtDeskScale):
        gc.build_bipartite(2, 4, 8, Fraction(1, 2), Fraction(1, 4),
                           Fraction(1, 4), rng_seed=0, ell=2, ell0=2,
                           k_row=3, family_size=4, eps_fam=Fraction(1, 4))
    with pytest.raises(gc.InfeasibleAtDeskScale):
        gc.build_bipartite(4, 4, 8, Fraction(1, 4), Fraction(1, 4),
                           Fraction(1, 4), rng_seed=0, ell=2, ell0=2,
                           k_row=2, family_size=4, eps_fam=Fraction(1, 4))  # q=4 not prime


def test_column_family_is_verified(bp):
    rep = ens.verify_family(bp.col_family)
    assert rep.passed


def test_random_matrix_code_determinism():
    a = gc.sample_random_bipartite(2, 4, 4, Fraction(1, 2), rng_seed=9)
    b = gc.sample_random_bipartite(2, 4, 4, Fraction(1, 2), rng_seed=9)
    assert np.array_equal(a.G, b.G)
    assert a.corrects((), ()) is True


def test_nearly_mds_fixture():
    nm = gc.build_nearly_mds(2, 12, Fraction(1, 4), Fraction(1, 2), M=4,
                             rng_seed=3, ell=4, ell0=2, k_row=3,
                             eps_fam=Fraction(1, 4))
    assert nm.rate == Fraction(1, 4)
    assert nm.rate >= 1 - nm.delta - nm.eta
    rng = np.random.default_rng(8)
    msg = rng.integers(0, 2, size=nm.k_total, dtype=np.int64)
    X = nm.encode_columns(msg)
    assert X.shape == (4, 12)
    out = nm.decode_columns([list(r) for r in X], T={0, 5, 11})
    assert np.array_equal(out, msg)
    assert nm.corrects_columns({0, 5, 11})


def test_nearly_mds_rate_gate():
    with pytest.raises(gc.InfeasibleAtDeskScale):
        gc.build_nearly_mds(2, 12, Fraction(1, 4), Fraction(1, 8), M=4,
                            rng_seed=3, ell=4, ell0=2, k_row=3,
                            eps_fam=Fraction(1, 4))


def test_improved_nearly_mds_fixture():
    code = gc.build_nearly_mds_improved(2, 12, Fraction(1, 4), Fraction(1, 2),
                                        M_b=2, D=4, rng_seed=7)
    assert code.rate == Fraction(1, 3)
    assert code.rate >= 1 - code.delta - code.eta
    assert code.search_enumerations == 0
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 2, size=code.k_total, dtype=np.int64)
    X = code.encode_columns(msg)
    assert X.shape == (4, 12)
    out = code.decode_columns([list(r) for r in X], T={1, 4, 9})
    assert np.array_equal(out, msg)


def test_improved_nearly_mds_determinism():
    a = gc.build_nearly_mds_improved(2, 12, Fraction(1, 4), Fraction(1, 2),
                                     M_b=2, D=4, rng_seed=7)
    b = gc.build_nearly_mds_improved(2, 12, Fraction(1, 4), Fraction(1, 2),
                                     M_b=2, D=4, rng_seed=7)
    assert np.array_equal(a.generator(), b.generator())
