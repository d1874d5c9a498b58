import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest

from codefam import code as cd
from codefam import ensemble as ens
from codefam.gf import make_field

f2 = make_field(2, 1)
f5 = make_field(5, 1)


def family_F2():
    """Three 2x3 generators over GF(2) with known per-pattern fractions."""
    G1 = cd.LinearCode(f2, [[1, 0, 0], [0, 1, 0]])
    G2 = cd.LinearCode(f2, [[1, 0, 0], [0, 0, 1]])
    G3 = cd.LinearCode(f2, [[0, 1, 0], [0, 0, 1]])
    return ens.ErasureFamily([G1, G2, G3], Fraction(1, 3), Fraction(2, 3))


def test_failure_fraction_known_values():
    F = family_F2()
    assert ens.failure_fraction(F, {0}) == Fraction(2, 3)
    assert ens.failure_fraction(F, {1}) == Fraction(2, 3)
    assert ens.failure_fraction(F, {2}) == Fraction(2, 3)
    assert ens.failure_fraction(F, set()) == 0
    single = ens.ErasureFamily([cd.reed_solomon(f5, 2, 4)], Fraction(1, 2), 0)
    for pat in combinations(range(4), 2):
        assert ens.failure_fraction(single, pat) == 0


def test_verify_family_exhaustive():
    F = family_F2()
    rep = ens.verify_family(F)
    assert rep.mode == "exhaustive"
    assert rep.patterns_tested == 3
    assert rep.worst_fail_fraction == Fraction(2, 3)
    assert rep.passed
    strict = ens.ErasureFamily(F.codes, Fraction(1, 3), Fraction(1, 2))
    assert not ens.verify_family(strict).passed


def test_verify_family_montecarlo():
    F = family_F2()
    rep = ens.verify_family(F, mode="montecarlo", budget=50, rng_seed=7)
    assert rep.mode == "montecarlo"
    assert rep.rng_seed == 7
    assert rep.worst_fail_fraction == Fraction(2, 3)
    # determinism
    rep2 = ens.verify_family(F, mode="montecarlo", budget=50, rng_seed=7)
    assert rep2.worst_pattern == rep.worst_pattern
    with pytest.raises(ens.EnsembleError):
        ens.verify_family(F, mode="montecarlo", budget=10)


def test_verify_family_montecarlo_names_smallest_worst_draw():
    F = ens.sample_random_family(f2, 8, Fraction(1, 4), Fraction(1, 4),
                                 Fraction(1, 4), 4, rng_seed=1)
    rep = ens.verify_family(F, mode="montecarlo", budget=40, rng_seed=3)
    rng = random.Random(3)
    draws = [tuple(sorted(rng.sample(range(8), 2))) for _ in range(40)]
    fracs = {pat: ens.failure_fraction(F, pat) for pat in draws}
    worst = max(fracs.values())
    assert rep.worst_fail_fraction == worst > 0
    assert rep.worst_pattern == min(p for p in draws if fracs[p] == worst)


def test_verify_family_budget():
    F = ens.sample_random_family(f2, 16, Fraction(1, 4), Fraction(1, 4),
                                 Fraction(1, 4), 4, rng_seed=0)
    with pytest.raises(ens.BudgetExceeded):
        ens.verify_family(F, budget=10)


def test_correction_monotonicity_property():
    """If a pattern is correctable, so is every subset of it."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        G = rng.integers(0, 2, size=(3, 8), dtype=np.int64)
        try:
            C = cd.LinearCode(f2, G)
        except cd.CodeError:
            continue
        for pat in combinations(range(8), 3):
            if cd.corrects_pattern(C, pat):
                for sub in combinations(pat, 2):
                    assert cd.corrects_pattern(C, sub)


def test_existence_params_values():
    assert ens.existence_params(2, Fraction(1, 4), 1, 1) == (2, 3)
    assert ens.existence_params(4, Fraction(1, 4), Fraction(1, 2),
                                Fraction(1, 2))[0] == 4
    assert ens.existence_params(2, Fraction(1, 4), Fraction(1, 4),
                                Fraction(1, 4)) == (32, 28)


def test_existence_params_exact_on_grid():
    """t_min against the integer test, n0 against 60-digit logarithms (n0's
    bound is never an integer, as e is transcendental, so 60 digits decide
    its ceiling)."""
    fracs = sorted({Fraction(a, b) for b in range(2, 13) for a in range(1, b)})
    for q in (2, 3, 256):
        for eta in fracs:
            for eps in fracs:
                ab = eta * eps
                t_ref = next(t for t in count(1)
                             if q ** (t * ab.numerator) >= 4 ** ab.denominator)
                with localcontext() as ctx:
                    ctx.prec = 60
                    y = (2 * (1 - Decimal(eps.numerator).ln()
                              + Decimal(eps.denominator).ln()) * eta.denominator
                         / (eta.numerator * Decimal(q).ln()))
                    n_ref = int(y.to_integral_value(rounding=ROUND_CEILING))
                assert ens.existence_params(q, 0, eta, eps) == (t_ref, n_ref), (q, eta, eps)
    assert ens.existence_params(2, 0, Fraction(1, 3), Fraction(3, 11))[0] == 22
    with pytest.raises(ens.EnsembleError):
        ens.existence_params(2, 0, Fraction(1, 4), 0)


def test_sample_random_family_shape_and_determinism():
    F = ens.sample_random_family(f2, 16, Fraction(1, 4), Fraction(1, 4),
                                 Fraction(1, 4), 5, rng_seed=3)
    assert (F.n, F.k, len(F)) == (16, 8, 5)
    assert F.rate == Fraction(1, 2)
    F2 = ens.sample_random_family(f2, 16, Fraction(1, 4), Fraction(1, 4),
                                  Fraction(1, 4), 5, rng_seed=3)
    for a, b in zip(F.codes, F2.codes):
        assert np.array_equal(a.G, b.G)
    with pytest.raises(ens.RateNonpositive):
        ens.sample_random_family(f2, 4, Fraction(1, 2), Fraction(1, 2),
                                 Fraction(1, 4), 2, rng_seed=0)


def test_rref_generators_count():
    # number of 1-dim subspaces of F_2^3 is 7; of 2-dim subspaces also 7
    assert len(ens._rref_generators(f2, 1, 3)) == 7
    assert len(ens._rref_generators(f2, 2, 3)) == 7


def test_exhaustive_inner_search_fixture():
    fam = ens.exhaustive_inner_search(f2, 4, Fraction(55, 56), Fraction(1, 28), 2)
    assert (fam.n, fam.k, len(fam)) == (4, 1, 2)
    for c in fam.codes:
        assert np.array_equal(c.G, [[1, 1, 1, 1]])  # repetition code, twice
    assert ens.verify_family(fam).passed


def test_exhaustive_inner_search_instrumented_and_exhausted():
    before = ens.SEARCH_STATS["ensembles_examined"]
    calls = ens.SEARCH_STATS["calls"]
    ens.exhaustive_inner_search(f2, 3, Fraction(1, 3), Fraction(0), 1)
    assert ens.SEARCH_STATS["ensembles_examined"] > before
    assert ens.SEARCH_STATS["calls"] == calls + 1
    with pytest.raises(ens.SearchExhausted):
        # a [2,2] code corrects no erasure at all
        ens.exhaustive_inner_search(f2, 2, Fraction(1, 2), Fraction(0), 1, k=2)


def test_manifest_roundtrip(tmp_path):
    F = family_F2()
    man = ens.family_to_manifest(F, {"note": "unit"})
    G = ens.family_from_manifest(man)
    assert (G.n, G.k, G.delta, G.epsilon) == (F.n, F.k, F.delta, F.epsilon)
    for a, b in zip(F.codes, G.codes):
        assert np.array_equal(a.G, b.G)
    path = tmp_path / "fam.json"
    ens.save_family(F, str(path))
    H = ens.load_family(str(path))
    assert len(H) == len(F)
    # byte stability of the file
    text = path.read_text()
    ens.save_family(H, str(path))
    assert path.read_text() == text


def test_family_validation():
    with pytest.raises(ens.EnsembleError):
        ens.ErasureFamily([], Fraction(1, 2), 0)
    with pytest.raises(ens.EnsembleError):
        ens.ErasureFamily([cd.reed_solomon(f5, 2, 4),
                           cd.reed_solomon(f5, 2, 5)], Fraction(1, 2), 0)
