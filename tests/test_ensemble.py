import math
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from codefam import code as cd
from codefam import ensemble as ens
from codefam import matrix as mx
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


def test_sample_random_family_k_above_n_raises_before_drawing(monkeypatch):
    """delta = -1 gives k = 8 > n = 4: no 8 x 4 generator has rank 8, so
    the draw loop refuses before its first draw instead of drawing forever."""
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("drew a generator")
    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    with pytest.raises(cd.InfeasibleAtDeskScale, match="no \\[4,8\\] code exists"):
        ens.sample_random_family(f2, 4, -1, 0, "1/4", 2, 0)


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


def test_exhaustive_inner_search_budget_bounds_the_ensemble_walk():
    """2^15 candidate matrices fit the budget, but the C(157, 3) ensembles
    of the 155 [5, 3] codes do not: the walk stops at the budget."""
    before = ens.SEARCH_STATS["ensembles_examined"]
    with pytest.raises(ens.BudgetExceeded):
        ens.exhaustive_inner_search(f2, 5, Fraction(2, 5), Fraction(0), 3, k=3,
                                    budget=10 ** 5)
    assert ens.SEARCH_STATS["ensembles_examined"] - before == 10 ** 5


def oracle_inner_search(spec, L, delta_in, mu, family_size, k):
    """The search as it was before its fail-mask ANDs, counting the failing
    members of each pattern in turn: the first qualifying ensemble's
    generators (None when none qualifies) and the ensembles examined."""
    codes = [cd.LinearCode(spec, G) for G in ens._rref_generators(spec, k, L)]
    patterns = list(combinations(range(L), math.floor(delta_in * L)))
    masks = []
    for c in codes:
        m = 0
        for idx, pat in enumerate(patterns):
            if cd.corrects_pattern(c, pat):
                m |= 1 << idx
        masks.append(m)
    examined = 0
    for combo in combinations_with_replacement(range(len(codes)), family_size):
        examined += 1
        ok = True
        for idx in range(len(patterns)):
            fails = sum(1 for ci in combo if not masks[ci] & 1 << idx)
            if fails > mu * family_size:
                ok = False
                break
        if ok:
            return [codes[ci].G.tolist() for ci in combo], examined
    return None, examined


@st.composite
def inner_searches(draw):
    L = draw(st.integers(1, 5))
    b = draw(st.integers(1, 3))
    return (draw(st.sampled_from([2, 3])), L, Fraction(draw(st.integers(0, L - 1)), L),
            Fraction(draw(st.integers(0, b - 1)), b), draw(st.integers(1, 3)),
            draw(st.integers(1, min(L, 3))))


@settings(max_examples=60, deadline=None)
@given(inner_searches())
@example((2, 2, Fraction(1, 2), Fraction(0), 1, 2))      # exhausted: [2,2] corrects nothing
@example((2, 5, Fraction(2, 5), Fraction(1, 3), 3, 1))
def test_inner_search_matches_count_per_pattern_oracle(case):
    q, L, delta_in, mu, size, k = case
    spec = make_field(q, 1)
    codes = len(ens._rref_generators(spec, k, L))
    assume(math.comb(codes + size - 1, size) <= 3000)
    want = oracle_inner_search(spec, L, delta_in, mu, size, k)
    before = ens.SEARCH_STATS["ensembles_examined"]
    try:
        got = [c.G.tolist() for c in ens.exhaustive_inner_search(spec, L, delta_in, mu,
                                                                  size, k=k).codes]
    except ens.SearchExhausted:
        got = None
    assert (got, ens.SEARCH_STATS["ensembles_examined"] - before) == want


def test_exhaustive_inner_search_past_64_patterns():
    """70 patterns of 4 erasures in 8 positions, two mask words a code:
    the family and the count recorded before the masks came from codeword
    supports."""
    before = ens.SEARCH_STATS["ensembles_examined"]
    fam = ens.exhaustive_inner_search(f2, 8, Fraction(1, 2), Fraction(1, 2), 2, k=2)
    assert [c.G.tolist() for c in fam.codes] == [
        [[0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
        [[0, 1, 0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 0, 1, 1, 1]]]
    assert ens.SEARCH_STATS["ensembles_examined"] - before == 1531


def test_exhaustive_inner_search_budget_stops_before_a_later_hit():
    """The hit is the 74,351st ensemble: a budget one short of it covers
    exactly the budget and raises, and that budget finds it."""
    args = (f2, 7, Fraction(2, 7), Fraction(1, 3), 3)
    before = ens.SEARCH_STATS["ensembles_examined"]
    with pytest.raises(ens.BudgetExceeded):
        ens.exhaustive_inner_search(*args, k=2, budget=74350)
    assert ens.SEARCH_STATS["ensembles_examined"] - before == 74350
    fam = ens.exhaustive_inner_search(*args, k=2, budget=74351)
    assert ens.SEARCH_STATS["ensembles_examined"] - before == 74350 + 74351
    assert ens.verify_family(fam).passed


@pytest.mark.parametrize("size,mu,delta_in", [
    (0, Fraction(1, 2), Fraction(1, 2)), (-1, Fraction(1, 2), Fraction(1, 2)),
    (2, Fraction(-1, 2), Fraction(1, 2)), (2, Fraction(3, 2), Fraction(1, 2)),
    (2, Fraction(1), Fraction(1, 2)), (2, Fraction(1, 2), Fraction(-1, 4))])
def test_exhaustive_inner_search_rejects_size_and_fractions(size, mu, delta_in):
    """A family size below 1, or mu or delta outside [0, 1), raises
    EnsembleError itself before anything is enumerated; a negative mu
    (whose crowd of failing members would be 0) returns no family."""
    before = dict(ens.SEARCH_STATS)
    with pytest.raises(ens.EnsembleError) as exc:
        ens.exhaustive_inner_search(f2, 4, delta_in, mu, size, k=2)
    assert type(exc.value) is ens.EnsembleError
    assert ens.SEARCH_STATS == before


MASK_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), f5]


@st.composite
def mask_cases(draw):
    """(field, L, k, erasures, generator count, seed, entry density, chunk
    cells): the chunk cells at 1 put one generator in each chunk."""
    L = draw(st.integers(1, 8))
    return (draw(st.sampled_from(MASK_FIELDS)), L, draw(st.integers(1, min(L, 3))),
            draw(st.integers(0, L - 1)), draw(st.integers(1, 6)),
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([0.3, 0.6, 1.0])),
            draw(st.sampled_from([1, 64, ens.MASK_CHUNK_CELLS])))


@settings(max_examples=60, deadline=None)
@given(mask_cases())
@example((make_field(2, 2), 8, 2, 4, 6, 1, 0.6, ens.MASK_CHUNK_CELLS))  # 70 patterns
@example((make_field(3, 1), 8, 3, 4, 6, 2, 0.3, 1))  # 70 patterns, six chunks
def test_fail_masks_match_corrects_pattern(case):
    """Codeword-support fail masks against one rank check per pattern."""
    spec, L, k, s, count, seed, density, cells = case
    rng = np.random.default_rng(seed)
    gens = []
    while len(gens) < count:
        G = rng.integers(0, spec.q, (k, L)) * (rng.random((k, L)) < density)
        if mx.rank(spec, G) == k:
            gens.append(G)
    patterns = list(combinations(range(L), s))
    saved = ens.MASK_CHUNK_CELLS
    try:
        ens.MASK_CHUNK_CELLS = cells
        masks = ens._fail_masks(spec, np.array(gens), patterns)
    finally:
        ens.MASK_CHUNK_CELLS = saved
    assert masks.shape == (count, -(-len(patterns) // 64))
    for G, words in zip(gens, masks):
        code = cd.LinearCode(spec, G)
        want = sum(1 << i for i, pat in enumerate(patterns) if not cd.corrects_pattern(code, pat))
        assert int.from_bytes(words.tobytes(), "little") == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(2, 5), st.data())
def test_inner_search_matches_oracle_past_two_failing_members(q, L, data):
    """Ensembles of 3 to 5 that tolerate 2 to 4 failing members a pattern,
    so the branch and bound keeps three levels or more."""
    size = data.draw(st.integers(3, 5))
    mu = Fraction(data.draw(st.integers(2, size - 1)), size)
    k = data.draw(st.integers(1, min(L, 2)))
    delta_in = Fraction(data.draw(st.integers(1, L - 1)), L)
    spec = make_field(q, 1)
    codes = len(ens._rref_generators(spec, k, L))
    assume(math.comb(codes + size - 1, size) <= 3000)
    want = oracle_inner_search(spec, L, delta_in, mu, size, k)
    before = ens.SEARCH_STATS["ensembles_examined"]
    try:
        got = [c.G.tolist() for c in ens.exhaustive_inner_search(spec, L, delta_in, mu,
                                                                  size, k=k).codes]
    except ens.SearchExhausted:
        got = None
    assert (got, ens.SEARCH_STATS["ensembles_examined"] - before) == want


def test_manifest_roundtrip():
    F = family_F2()
    man = ens.family_to_manifest(F, {"note": "unit"})
    G = ens.family_from_manifest(man)
    assert (G.n, G.k, G.delta, G.epsilon) == (F.n, F.k, F.delta, F.epsilon)
    for a, b in zip(F.codes, G.codes):
        assert np.array_equal(a.G, b.G)
    # the manifest of the read-back family is the same manifest
    assert ens.family_to_manifest(G, {"note": "unit"}) == man


def test_family_validation():
    with pytest.raises(ens.EnsembleError):
        ens.ErasureFamily([], Fraction(1, 2), 0)
    with pytest.raises(ens.EnsembleError):
        ens.ErasureFamily([cd.reed_solomon(f5, 2, 4),
                           cd.reed_solomon(f5, 2, 5)], Fraction(1, 2), 0)
