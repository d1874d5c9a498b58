from fractions import Fraction

import numpy as np
import pytest

from codefam import shuffler as sf


def test_blocks_partition_and_order():
    sh = sf.make_seeded_random(12, 3, 4, rng_seed=5)
    for z in range(4):
        blocks = sh.blocks(z)
        flat = sorted(x for blk in blocks for x in blk)
        assert flat == list(range(12))
        for blk in blocks:
            assert blk == sorted(blk)
        for i, blk in enumerate(blocks):
            for x in blk:
                assert sh.table[z, x] == i
    with pytest.raises(sf.SeedOutOfRange):
        sh.blocks(4)


def test_round_robin():
    sh = sf.make_round_robin(8, 4)
    assert sh.blocks(0) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    with pytest.raises(sf.Indivisible):
        sf.make_round_robin(9, 4)


def test_seeded_random_sizes_and_determinism():
    sh = sf.make_seeded_random(10, 3, 6, rng_seed=1)
    for z in range(6):
        sizes = sorted(len(b) for b in sh.blocks(z))
        assert sizes == [3, 3, 4]  # first N % M blocks get the extra slot
    sh2 = sf.make_seeded_random(10, 3, 6, rng_seed=1)
    assert np.array_equal(sh.table, sh2.table)
    sh3 = sf.make_seeded_random(10, 3, 6, rng_seed=2)
    assert not np.array_equal(sh.table, sh3.table)


def test_check_balance_exact_counting():
    # one seed, two blocks: S = {0,1,2} lands 3-0 across blocks
    table = [[0, 0, 0, 1, 1, 1]]
    sh = sf.Shuffler(6, 1, 2, table)
    cert = sf.check_balance(sh, {0, 1, 2}, Fraction(0), Fraction(0), Fraction(1, 2))
    # target 3/2, window [3/4, 9/4]: counts are 3 and 0, both outside
    assert cert.violations_per_seed == [2]
    assert cert.seed_pass == [False]
    assert not cert.overall_pass
    # relaxing eps2 to allow both violations makes the seed pass
    cert2 = sf.check_balance(sh, {0, 1, 2}, Fraction(0), Fraction(1), Fraction(1, 2))
    assert cert2.seed_pass[0]
    assert cert2.overall_pass


def test_check_balance_window_is_two_sided():
    table = [[0, 0, 1, 1]]
    sh = sf.Shuffler(4, 1, 2, table)
    # S = {0,1}: counts (2, 0), target 1, window (1 +- 1/2)
    cert = sf.check_balance(sh, {0, 1}, Fraction(0), Fraction(0), Fraction(1, 2))
    assert cert.violations_per_seed == [2]
    # S = {0,2}: counts (1, 1), inside the window
    cert = sf.check_balance(sh, {0, 2}, Fraction(0), Fraction(0), Fraction(1, 2))
    assert cert.violations_per_seed == [0]
    assert cert.overall_pass


def test_check_balance_validation():
    sh = sf.make_round_robin(8, 4)
    with pytest.raises(sf.ShufflerError):
        sf.check_balance(sh, set(), 1, 1, 1)
    with pytest.raises(sf.ShufflerError):
        sf.check_balance(sh, {8}, 1, 1, 1)


def test_size_balance_of_seeded_random():
    sh = sf.make_seeded_random(16, 4, 8, rng_seed=123)
    cert = sf.check_size_balance(sh, Fraction(1, 6), Fraction(3, 28), Fraction(3, 7))
    assert cert.overall_pass
    assert cert.violations_per_seed == [0] * 8  # balanced by construction


def test_serialization_roundtrip():
    for sh in [sf.make_round_robin(8, 4),
               sf.make_seeded_random(10, 3, 6, rng_seed=9),
               sf.Shuffler(4, 2, 2, [[0, 1, 0, 1], [1, 1, 0, 0]])]:
        text = sf.shuffler_to_text(sh)
        back = sf.shuffler_from_text(text)
        assert (back.N, back.D, back.M) == (sh.N, sh.D, sh.M)
        assert np.array_equal(back.table, sh.table)
        assert sf.shuffler_to_text(back) == text


def test_shuffler_validation():
    with pytest.raises(sf.ShufflerError):
        sf.Shuffler(4, 1, 2, [[0, 1, 2, 0]])  # block index out of range
    with pytest.raises(sf.ShufflerError):
        sf.Shuffler(2, 1, 4, [[0, 1]])        # N < M
