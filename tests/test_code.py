from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from codefam import code as cd
from codefam import matrix as mx
from codefam.gf import make_field

f2 = make_field(2, 1)
f3 = make_field(3, 1)
f5 = make_field(5, 1)


def brute_force_corrects(C, pat):
    """Pattern correctable iff no nonzero codeword is supported inside it."""
    pat = frozenset(pat)
    q, k = C.spec.q, C.k
    for v in range(1, q ** k):
        msg = np.array([(v // q ** i) % q for i in range(k)], dtype=np.int64)
        cw = cd.encode(C, msg)
        if all(j in pat for j in np.nonzero(cw)[0]):
            return False
    return True


def test_encode_shapes_and_linearity():
    C = cd.reed_solomon(f5, 2, 4)
    a = cd.encode(C, [1, 2])
    b = cd.encode(C, [3, 0])
    s = C.spec.add(a, b)
    assert np.array_equal(s, cd.encode(C, C.spec.add(np.array([1, 2]), np.array([3, 0]))))
    with pytest.raises(cd.LengthMismatch):
        cd.encode(C, [1, 2, 3])


def test_generator_must_be_full_rank():
    with pytest.raises(cd.CodeError):
        cd.LinearCode(f2, [[1, 1], [1, 1]])


def test_erasure_pattern_validation():
    C = cd.reed_solomon(f5, 2, 5)
    assert cd.corrects_pattern(C, {1, 3}) and not cd.corrects_pattern(C, {0, 1, 3, 4})
    for pat in ({5}, {-1}):
        with pytest.raises(cd.CodeError):
            cd.corrects_pattern(C, pat)


def test_corrects_pattern_matches_brute_force():
    codes = [
        cd.reed_solomon(f5, 2, 5),
        cd.LinearCode(f2, [[1, 0, 1, 1], [0, 1, 1, 0]]),
        cd.LinearCode(f3, [[1, 0, 2, 1], [0, 1, 1, 1]]),
    ]
    for C in codes:
        for size in range(C.n + 1):
            for pat in combinations(range(C.n), size):
                assert cd.corrects_pattern(C, pat) == brute_force_corrects(C, pat)


def test_erasure_decode_roundtrip_and_failure():
    C = cd.reed_solomon(f5, 3, 5)
    msg = np.array([4, 0, 2], dtype=np.int64)
    cw = list(cd.encode(C, msg))
    cw[1] = None
    cw[4] = None
    assert np.array_equal(cd.erasure_decode(C, cw), msg)
    cw[0] = None
    with pytest.raises(cd.DecodingFailure):
        cd.erasure_decode(C, cw)


def test_rs_is_mds():
    for q_spec, n in [(f5, 5), (make_field(2, 3), 8)]:
        for k in range(1, n + 1):
            C = cd.reed_solomon(q_spec, k, n)
            assert cd.min_distance(C) == n - k + 1


def test_rs_validation():
    with pytest.raises(cd.TooManyPoints):
        cd.reed_solomon(f5, 2, 6)
    with pytest.raises(cd.DuplicatePoint):
        cd.reed_solomon(f5, 2, 3, points=[0, 1, 1])


def test_min_distance_equals_smallest_uncorrectable_pattern():
    C = cd.LinearCode(f2, [[1, 1, 0, 1, 0], [0, 1, 1, 0, 1], [1, 0, 0, 1, 1]])
    d_enum = cd.min_distance(C)
    d_pattern = next(w for w in range(1, C.n + 1)
                     if any(not cd.corrects_pattern(C, S)
                            for S in combinations(range(C.n), w)))
    assert d_enum == d_pattern


def test_min_distance_too_large():
    big = cd.reed_solomon(make_field(2, 8), 4, 30)  # q^k and 2^n both huge
    with pytest.raises(cd.TooLarge):
        cd.min_distance(big)


def test_bundle_matches_base():
    base = cd.reed_solomon(f5, 2, 4)
    B = cd.InterleavedCode(base, 3)
    msg = np.array([[1, 2], [0, 4], [3, 3]], dtype=np.int64)  # codeword t carries msg[t]
    digits = msg.T.reshape(-1)              # digit (i, t): symbol i of codeword t
    syms = B.encode_syms(digits)
    assert syms.shape == (4, 3)
    for t in range(3):
        assert np.array_equal(syms[:, t], cd.encode(base, msg[t]))
    assert np.array_equal(B.decode_digits(syms, [j != 2 for j in range(4)]), digits)
    for pat in [*combinations(range(4), 2), *combinations(range(4), 3)]:
        known = [j not in pat for j in range(4)]
        if cd.corrects_pattern(base, pat):
            assert np.array_equal(B.decode_digits(syms, known), digits)
        else:
            with pytest.raises(cd.DecodingFailure):
                B.decode_digits(syms, known)


def test_split_join_symbols_roundtrip():
    big = make_field(2, 4)
    small = make_field(2, 2)
    vec = np.arange(16, dtype=np.int64)
    split = cd.split_symbols(big, small, vec)
    assert split.shape == (32,)
    assert np.array_equal(cd.join_symbols(big, small, split), vec)
    with pytest.raises(cd.DimensionMismatch):
        cd.symbol_digit_map(big, f3)


def test_concatenate_dimensions_and_distance():
    outer = cd.reed_solomon(make_field(2, 2), 2, 4)   # [4,2] over GF(4), d=3
    inner = cd.LinearCode(f2, [[1, 0, 1], [0, 1, 1]])  # [3,2] over GF(2), d=2
    C = cd.concatenate(outer, inner)
    assert (C.k, C.n) == (4, 12)
    assert cd.min_distance(C) >= 3 * 2 - 2  # >= d_out * d_in is not guaranteed
    assert cd.min_distance(C) >= cd.min_distance(inner)


def test_concatenate_consistent_with_direct_encoding():
    big = make_field(2, 2)
    outer = cd.reed_solomon(big, 2, 4)
    inner = cd.LinearCode(f2, [[1, 0, 1], [0, 1, 1]])
    C = cd.concatenate(outer, inner)
    msg_q = np.array([1, 0, 1, 1], dtype=np.int64)
    via_concat = cd.encode(C, msg_q)
    outer_msg = cd.join_symbols(big, f2, msg_q)
    ocw = cd.encode(outer, outer_msg)
    syms = cd.split_symbols(big, f2, ocw).reshape(4, 2)
    direct = np.concatenate([cd.encode(inner, syms[b]) for b in range(4)])
    assert np.array_equal(via_concat, direct)


def test_expand_code_preserves_erasure_behavior():
    big = make_field(2, 2)
    C = cd.reed_solomon(big, 2, 4)
    E = cd.expand_code(C, f2)
    assert (E.k, E.n) == (4, 8)
    # erasing both bits of symbols S must be correctable iff S was
    for S in combinations(range(4), 2):
        bits = [2 * s + t for s in S for t in range(2)]
        assert cd.corrects_pattern(E, bits) == cd.corrects_pattern(C, S)


def test_gv_search_known_instances():
    C = cd.gv_search(f2, 4, 2)
    assert (C.n, C.k) == (4, 3)        # even-weight code
    assert cd.min_distance(C) == 2
    C = cd.gv_search(f2, 7, 3)
    assert C.k >= 4                    # Hamming [7,4,3] meets GV here
    assert cd.min_distance(C) >= 3
    with pytest.raises(cd.Infeasible):
        cd.gv_search(f2, 3, 4)


def test_plotkin_rate_bound():
    assert cd.plotkin_rate_bound(2, Fraction(1, 4)) == Fraction(1, 2)
    assert cd.plotkin_rate_bound(3, Fraction(1, 3)) == Fraction(1, 2)
    assert cd.plotkin_rate_bound(2, Fraction(3, 4)) == 0


def test_dual_parity():
    C = cd.reed_solomon(f5, 2, 5)
    H = C.unit_code.H
    assert H.shape == (3, 5)
    assert not mx.matmul(f5, C.G, H.T).any()
    assert mx.rank(f5, H) == 3


def test_serialization_roundtrip():
    C = cd.reed_solomon(make_field(2, 2), 2, 4)
    text = cd.code_to_text(C)
    D = cd.code_from_text(text)
    assert D.spec == C.spec
    assert np.array_equal(D.G, C.G)
    # byte stability
    assert cd.code_to_text(D) == text
