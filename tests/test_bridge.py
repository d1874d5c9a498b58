from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from codefam import bridge as br
from codefam import code as cd
from codefam import ensemble as ens
from codefam.gf import make_field

f2 = make_field(2, 1)
f5 = make_field(5, 1)


def family_F2():
    G1 = cd.LinearCode(f2, [[1, 0, 0], [0, 1, 0]])
    G2 = cd.LinearCode(f2, [[1, 0, 0], [0, 0, 1]])
    G3 = cd.LinearCode(f2, [[0, 1, 0], [0, 0, 1]])
    return ens.ErasureFamily([G1, G2, G3], Fraction(1, 3), Fraction(2, 3))


def test_family_extractor_roundtrip():
    F = family_F2()
    E = br.family_to_extractor(F)
    assert (E.D, E.m, E.n) == (3, 2, 3)
    back = ens.ErasureFamily([cd.LinearCode(E.spec, G) for G in E.maps], F.delta, F.epsilon)
    for a, b in zip(F.codes, back.codes):
        assert np.array_equal(a.G, b.G)


def test_extractor_known_example():
    # G = [1 1] over GF(2): the parity extractor is exact on one free bit
    E = br.LinearSeededMap(f2, [np.array([[1, 1]], dtype=np.int64)])
    assert br.extractor_error_on_source(E, {1})["exact"] == [True]
    assert br.extractor_error_on_source(E, set())["exact"] == [False]
    # F2 with free = {1, 2}: exactly the members correcting erasure {0}
    res = br.extractor_error_on_source(br.family_to_extractor(family_F2()), {1, 2})
    assert res["exact"] == [False, False, True]
    assert res["failing_fraction"] == Fraction(2, 3)


def test_error_equals_failure_fraction_on_complement():
    F = family_F2()
    E = br.family_to_extractor(F)
    for size in range(F.n + 1):
        for free in combinations(range(F.n), size):
            comp = frozenset(range(F.n)) - set(free)
            res = br.extractor_error_on_source(E, free)
            assert res["failing_fraction"] == ens.failure_fraction(F, comp)


def test_condenser_duality():
    """Seed z is exact on free set S iff its dual is lossless on [n] \\ S."""
    F = family_F2()
    E = br.family_to_extractor(F)
    C = br.family_to_condenser(F)
    assert (C.m, C.n) == (1, 3)
    for size in range(F.n + 1):
        for free in combinations(range(F.n), size):
            comp = sorted(frozenset(range(F.n)) - set(free))
            exact = br.extractor_error_on_source(E, free)["exact"]
            lossless = br.condenser_lossless_check(C, comp)["lossless"]
            assert exact == lossless


def test_condenser_rejects_rate_one_member():
    full = ens.ErasureFamily([cd.LinearCode(f2, mx_identity(3))], 0, 0)
    with pytest.raises(br.BridgeError):
        br.family_to_condenser(full)


def mx_identity(n):
    return np.eye(n, dtype=np.int64)


def test_statistical_distance_dichotomy():
    for F in [family_F2(),
              ens.ErasureFamily([cd.reed_solomon(f5, 2, 4)],
                                Fraction(1, 2), 0)]:
        E = br.family_to_extractor(F)
        for size in range(F.n + 1):
            for free in combinations(range(F.n), size):
                for z in range(E.D):
                    dist = br.statistical_distance_oracle(E, z, free)
                    from codefam import matrix as mx
                    exact = mx.rank(E.spec, E.maps[z][:, list(free)]) == E.m
                    if exact:
                        assert dist == 0
                    else:
                        assert dist >= Fraction(1, 2)


def test_distance_independent_of_fixing():
    E = br.family_to_extractor(family_F2())
    d0 = br.statistical_distance_oracle(E, 0, {1}, fixed_values={0: 1, 2: 0})
    d1 = br.statistical_distance_oracle(E, 0, {1}, fixed_values={0: 0, 2: 1})
    assert d0 == d1


def test_apply_and_validation():
    E = br.family_to_extractor(family_F2())
    y = E.apply(0, [1, 1, 0])
    assert list(y) == [1, 1]
    with pytest.raises(br.BridgeError):
        br.extractor_error_on_source(E, {5})
    with pytest.raises(br.BridgeError):
        br.LinearSeededMap(f2, [])
