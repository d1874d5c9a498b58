from fractions import Fraction

import numpy as np
import pytest

from codefam import code as cd
from codefam import ensemble as ens
from codefam import family_construct as fc
from codefam import shuffler as sf
from codefam.gf import make_field

f2 = make_field(2, 1)


@pytest.fixture(scope="module")
def fixture_params():
    inner = ens.exhaustive_inner_search(f2, 4, Fraction(55, 56), Fraction(1, 28), 2)
    outer = cd.gv_search(f2, 4, 2)
    sh = sf.make_seeded_random(16, 4, 8, rng_seed=123)
    return fc.ShuffledFamilyParams(outer, inner, sh,
                                   Fraction(1, 8), Fraction(3, 7), Fraction(1, 2))


def test_plan_parameters_fixture():
    plan = fc.plan_parameters(2, Fraction(1, 8), Fraction(3, 7), Fraction(1, 2))
    assert plan.mu == Fraction(1, 28)
    assert plan.delta_in == Fraction(55, 56)
    assert plan.balance_triple == (Fraction(1, 6), Fraction(3, 28), Fraction(3, 7))
    assert plan.inner_size_min >= 1


def test_plan_parameters_infeasible():
    with pytest.raises(fc.InfeasibleAtDeskScale):
        fc.plan_parameters(2, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(fc.InfeasibleAtDeskScale):
        fc.plan_parameters(2, Fraction(1, 8), Fraction(1, 4), Fraction(2))


def test_params_validation(fixture_params):
    p = fixture_params
    assert (p.M, p.L, p.N, p.D) == (4, 4, 16, 8)
    assert p.k_total == 3
    assert p.rate == Fraction(3, 16)
    bad_sh = sf.make_seeded_random(16, 8, 2, rng_seed=0)
    with pytest.raises(fc.ParamMismatch):
        fc.ShuffledFamilyParams(p.outer, p.inner, bad_sh,
                                p.delta, p.eta, p.epsilon)


def test_outer_distance_certificate(fixture_params):
    cert = fixture_params.outer_distance_certificate()
    assert cert["mode"] == "measured"
    assert cert["distance"] == 2
    assert cert["passed"] is True


def frozen_positions(slots, N):
    return sorted(set(range(N)) - set(slots.flat))


def discarded_slots(slots):
    return [tuple(s) for s in np.argwhere(slots == fc.DISCARDED).tolist()]


def test_placement_accounting(fixture_params):
    p = fixture_params
    for z in range(p.D):
        slots = fc.placement(p.sh, p.L, z)
        # N = L*M and the shuffler is balanced, so no freezing/discarding here
        assert frozen_positions(slots, p.N) == []
        assert discarded_slots(slots) == []
        # slot j of block i is the j-th position of S_i^z
        for i, blk in enumerate(p.sh.blocks(z)):
            assert slots[i].tolist() == blk


def test_placement_freeze_and_discard():
    # custom unbalanced shuffler: block 0 overfull, block 1 underfull
    sh = sf.Shuffler(4, 1, 2, [[0, 0, 0, 1]])
    slots = fc.placement(sh, 2, 0)
    assert frozen_positions(slots, 4) == [2]     # third position of block 0
    assert discarded_slots(slots) == [(1, 1)]    # block 1 short one slot


def test_encode_decode_roundtrip(fixture_params):
    p = fixture_params
    rng = np.random.default_rng(0)
    for z in [0, 3, 7]:
        for ci in [0, 1]:
            msg = rng.integers(0, 2, size=p.k_total, dtype=np.int64)
            cw = fc.encode_member(p, z, ci, msg)
            received = list(cw)
            received[5] = None
            received[11] = None                  # floor(delta*N) = 2 erasures
            out = fc.decode_member(p, z, ci, received)
            assert np.array_equal(out, msg)


def test_member_generator_matches_encode(fixture_params):
    p = fixture_params
    G = fc.member_generator(p, 2, 1)
    msg = np.array([1, 0, 1], dtype=np.int64)
    from codefam import matrix as mx
    assert np.array_equal(mx.matvec(f2, G.T, msg), fc.encode_member(p, 2, 1, msg))


def test_build_family_and_indexing(fixture_params):
    p = fixture_params
    fam = fc.build_family(p)
    assert len(fam) == p.D * len(p.inner) == 16
    assert (fam.n, fam.k) == (16, 3)
    assert fam.rate == p.rate
    G = fc.member_generator(p, 3, 1)
    assert np.array_equal(fam.codes[3 * len(p.inner) + 1].G, G)   # z * |inner| + ci
    assert ens.verify_family(fam).passed


@pytest.mark.parametrize("ci", [-1, 2])
def test_member_code_index_out_of_range(fixture_params, ci):
    """A negative inner-code index does not wrap to the last code."""
    msg = np.zeros(fixture_params.k_total, dtype=np.int64)
    with pytest.raises(fc.ParamMismatch):
        fc.encode_member(fixture_params, 0, ci, msg)
    with pytest.raises(fc.ParamMismatch):
        fc.decode_member(fixture_params, 0, ci, [0] * fixture_params.N)
