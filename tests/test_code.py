from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from codefam import code as cd
from codefam import ensemble as ens
from codefam import matrix as mx
from codefam.gf import make_field

f2 = make_field(2, 1)
f3 = make_field(3, 1)
f4 = make_field(2, 2)
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


@pytest.mark.parametrize("spec,bad", [(make_field(13, 1), 16), (make_field(13, 1), -1),
                                       (make_field(2, 4), 16), (make_field(3, 2), 9)],
                         ids=["GF13-16", "GF13-neg", "GF16-16", "GF9-9"])
def test_erasure_decode_rejects_symbols_outside_the_field(spec, bad):
    """A received symbol outside [0, q) is an input error on both decode
    paths (GF(13) returned a non-field message, GF(16) an IndexError)."""
    C = cd.reed_solomon(spec, 2, 4)
    for code in (C, cd.LinearCode(spec, C.G)):
        with pytest.raises(cd.CodeError, match="received symbols"):
            cd.erasure_decode(code, [bad, None, 1, None])


# Reed-Solomon interpolation against elimination (`_solve_erasures`) on the
# same generator, one field per arithmetic path of the row kernel: mod p,
# q x q tables for p = 2 and for odd p (with the add table), and above 256
# log/antilog lists for p = 2 and Zech logarithms for odd p.
RS_FIELDS = [make_field(p, m) for p, m in [(5, 1), (13, 1), (2, 1), (2, 4), (2, 8), (3, 2),
                                           (3, 3), (2, 10), (3, 6)]]


@st.composite
def rs_words(draw, spec):
    """(code, survivors, r, words): an RS code over `spec` on random points,
    fewer than, exactly or more than k survivors, and the n x r matrix of
    r >= 1 codewords (r = 0: one codeword, read as a vector), one survivor
    corrupted in some draws."""
    n = draw(st.integers(1, min(spec.q, 12)))
    k = draw(st.integers(1, n))
    points = draw(st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n, unique=True))
    C = cd.reed_solomon(spec, k, n, points=points)
    s = {"fewer": draw(st.integers(0, k - 1)), "exactly": k,
         "more": draw(st.integers(k, n))}[draw(st.sampled_from(["fewer", "exactly", "more"]))]
    surv = sorted(draw(st.permutations(range(n)))[:s])
    r = draw(st.integers(0, 3))
    msgs = np.array(draw(st.lists(st.integers(0, spec.q - 1), min_size=max(r, 1) * k,
                                  max_size=max(r, 1) * k)), dtype=np.int64).reshape(-1, k)
    words = mx.matmul(spec, msgs, C.G).T
    if surv and draw(st.booleans()):
        i, t = draw(st.sampled_from(surv)), draw(st.integers(0, len(words[0]) - 1))
        words[i, t] = spec.add(int(words[i, t]), draw(st.integers(1, spec.q - 1)))
    return C, surv, r, words


def outcome(fn):
    """What a decode returns (values, shape and dtype) or its failure message."""
    try:
        x = fn()
    except cd.DecodingFailure as exc:
        return "DecodingFailure", str(exc)
    return x.tolist(), x.shape, x.dtype


@pytest.mark.parametrize("spec", RS_FIELDS, ids=lambda f: f"GF{f.p}^{f.m}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rs_interpolation_matches_elimination(spec, data):
    C, surv, r, words = data.draw(rs_words(spec))
    plain = cd.LinearCode(spec, C.G)
    assert type(C) is cd.ReedSolomonCode
    vals = words[surv, 0].tolist() if r == 0 else words[surv]
    failure = f"{len(surv)} survivors"
    assert (outcome(lambda: C._solve(surv, vals, failure))
            == outcome(lambda: cd._solve_erasures(spec, C.G, surv, vals, failure)))
    if r == 0:
        received = [int(v) if i in surv else None for i, v in enumerate(words[:, 0])]
        assert (outcome(lambda: cd.erasure_decode(C, received))
                == outcome(lambda: cd.erasure_decode(plain, received)))
    else:
        digits = spec.to_digits(words).reshape(C.n, r * spec.m)
        known = [i in surv for i in range(C.n)]
        assert (outcome(lambda: cd.InterleavedCode(C, r).decode_digits(digits, known))
                == outcome(lambda: cd.InterleavedCode(plain, r).decode_digits(digits, known)))


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


def brute_force_distance(C):
    """The least weight of the codewords of all q^k - 1 nonzero messages."""
    msgs = np.array(list(product(range(C.spec.q), repeat=C.k))[1:], dtype=np.int64)
    return int(np.count_nonzero(mx.matmul(C.spec, msgs, C.G), axis=1).min())


@st.composite
def codes(draw, fallback):
    """A random [n, k] code; with `fallback`, one that q^k > 2^n sends to
    min_distance's pattern scan once BRUTE_FORCE_BOUND is 2^n."""
    spec = draw(st.sampled_from([f3, f4, f5] if fallback else [f2, f3, f4, f5]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(next(k for k in range(1, n + 1) if spec.q ** k > 2 ** n)
                         if fallback else 1, n))
    G = draw(st.lists(st.integers(0, spec.q - 1), min_size=k * n, max_size=k * n))
    try:
        return cd.LinearCode(spec, np.array(G, dtype=np.int64).reshape(k, n))
    except cd.CodeError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(codes(fallback=False))
def test_min_distance_lines_match_brute_force(C):
    assert cd.min_distance(C) == brute_force_distance(C)


@settings(max_examples=100, deadline=None)
@given(codes(fallback=True), st.sampled_from(["walk", "supports"]))
def test_min_distance_scan_fallback_matches_brute_force(C, side):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cd, "BRUTE_FORCE_BOUND", 2 ** C.n)
        mp.setattr(ens, "SUPPORT_SIDE_CELLS", -1 if side == "walk" else 1 << 62)
        assert cd.min_distance(C) == brute_force_distance(C)
        mp.setattr(cd, "BRUTE_FORCE_BOUND", 2 ** C.n - 1)
        with pytest.raises(cd.TooLarge):
            cd.min_distance(C)


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("q,k", [(2, 1), (2, 5), (3, 3), (4, 3), (5, 2)])
def test_lines_enumerate_each_line_once_in_order(q, k, rows):
    """One message per line of F_q^k, its first nonzero entry 1: by the
    position of that entry, then lexicographically."""
    def lead(m):
        return next(i for i, x in enumerate(m) if x)

    want = sorted((m for m in product(range(q), repeat=k) if any(m) and m[lead(m)] == 1),
                  key=lambda m: (lead(m), m))
    chunks = list(cd._lines(q, k) if rows is None else cd._lines(q, k, rows))
    assert all(0 < len(c) <= (rows or 1 << 16) and c.dtype == np.int64 for c in chunks)
    assert np.concatenate(chunks).tolist() == [list(m) for m in want]


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


def gv_search_oracle(spec, n, d):
    """gv_search as a span dict keyed by integer encodings, with one scalar
    field operation per new codeword and both duplicate checks."""
    def int_to_vec(v):
        out = np.zeros(n, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            out[i] = v % spec.q
            v //= spec.q
        return out

    q = spec.q
    if q ** n > cd.BRUTE_FORCE_BOUND * 16:
        raise cd.TooLarge
    if d > n:
        raise cd.Infeasible
    rows, span = [], {0: np.zeros(n, dtype=np.int64)}
    for v in range(1, q ** n):
        vec, ok, new = int_to_vec(v), True, {}
        for w in span.values():
            for c in range(1, q):
                cand = spec.add(w, spec.mul(np.int64(c), vec))
                key = int(np.dot(cand, q ** np.arange(n - 1, -1, -1)))
                if key in span or key in new or np.count_nonzero(cand) < d:
                    ok = False
                    break
                new[key] = cand
            if not ok:
                break
        if ok:
            rows.append(vec)
            span.update(new)
    if not rows:
        raise cd.Infeasible
    return np.stack(rows)


@st.composite
def gv_instances(draw):
    spec = draw(st.sampled_from([f2, f3, f4, f5]))
    n = draw(st.integers(1, {2: 6, 3: 4, 4: 3, 5: 3}[spec.q]))
    return spec, n, draw(st.integers(0, n + 1))


@settings(max_examples=60, deadline=None)
@given(gv_instances())
@example((f2, 4, 0))
@example((f4, 3, 1))
@example((f3, 3, 4))
def test_gv_search_matches_span_dict_oracle(case):
    spec, n, d = case
    try:
        want = gv_search_oracle(spec, n, d)
    except cd.Infeasible:
        with pytest.raises(cd.Infeasible):
            cd.gv_search(spec, n, d)
        return
    assert np.array_equal(cd.gv_search(spec, n, d).G, want)


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
