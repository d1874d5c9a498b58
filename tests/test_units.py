"""Differential tests of the erasure-unit rank criterion.

At tiny sizes a set of erased units is correctable exactly when no nonzero
codeword is supported inside the erased cells; the oracle below checks that
by listing every codeword.  The linear algebra (solve, kernels, reduced
echelon forms) and the inner search are pinned the same way, to brute
force over every vector or matrix.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codefam import code as cd
from codefam import ensemble as ens
from codefam import graphcode as gc
from codefam import matrix as mx
from codefam import symmetric as sym
from codefam.gf import make_field

FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2)]
f2 = FIELDS[0]


def oracle_corrects(spec, G, erased_cells) -> bool:
    """No nonzero codeword of the row space of G vanishes off erased_cells."""
    msgs = np.array(list(product(range(spec.q), repeat=G.shape[0])), dtype=np.int64)
    cws = mx.matmul(spec, msgs, G)
    off = [c for c in range(G.shape[1]) if c not in erased_cells]
    hidden = cws.any(axis=1) & ~cws[:, off].any(axis=1)
    return not hidden.any()


def matrices(spec, rows, cols):
    return st.lists(st.lists(st.integers(0, spec.q - 1), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda m: np.array(m, dtype=np.int64).reshape(rows, cols))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_positions_match_brute_force(data):
    spec = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, min(3, n)))
    G = data.draw(matrices(spec, k, n))
    assume(mx.rank(spec, G) == k)
    C = cd.LinearCode(spec, G)
    pat = data.draw(st.sets(st.integers(0, n - 1)))
    assert cd.corrects_pattern(C, tuple(pat)) == oracle_corrects(spec, G, pat)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rows_and_columns_match_brute_force(data):
    spec = data.draw(st.sampled_from(FIELDS))
    M, N = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    R = gc.RandomMatrixCode(spec, M, N, k, rng_seed=data.draw(st.integers(0, 2 ** 16)))
    S = data.draw(st.sets(st.integers(0, M - 1)))
    T = data.draw(st.sets(st.integers(0, N - 1)))
    cells = {i * N + j for i in range(M) for j in range(N) if i in S or j in T}
    assert R.corrects(S, T) == oracle_corrects(spec, R.G, cells)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vertex_sets_match_brute_force(data):
    spec = data.draw(st.sampled_from(FIELDS))
    side = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 2))
    A = data.draw(matrices(spec, k, side))
    assume(mx.rank(spec, A) == k)
    space = sym.symmetric_tensor(spec, A)
    grid = cd.grid_units(side, side)
    vertices = [grid[a] | grid[side + a] for a in range(side)]
    units = cd.UnitCode(spec, space.G, vertices, dim=space.dim)
    S = data.draw(st.sets(st.integers(0, side - 1)))
    cells = {a * side + b for a in range(side) for b in range(side)
             if a in S or b in S}
    assert units.corrects(S) == oracle_corrects(spec, space.G, cells)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_gf2_path_matches_generic_elimination(data):
    k, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))
    G = data.draw(matrices(f2, k, n))
    assert mx.rank_packed(mx.pack_rows(G)) == len(mx._eliminate(f2, G)[1])
    units = cd.UnitCode(f2, G, [1 << i for i in range(n)])
    erased = data.draw(st.sets(st.integers(0, n - 1)))
    surv = [c for c in range(n) if c not in erased]
    generic = len(mx._eliminate(f2, G[:, surv])[1]) if surv else 0
    assert units.corrects(erased) == (generic == k)


# every field the reduced-form check runs on: GF(2) (packed rows), prime
# and extension fields with list tables, and one above _ROW_TABLE_MAX_Q
# (log/antilog lists)
ECHELON_FIELDS = [make_field(p, m) for p, m in
                  ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (13, 1), (2, 4), (257, 1))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduced_form_check_matches_rank_of_survivors(data):
    """Over every field, `UnitCode.corrects` reads the reduced echelon form;
    on every set of erased units it agrees with the direct criterion, the
    rank of G on the surviving cells against `dim`, for any G: rank
    deficient, with more rows than `dim`, `dim` = 0, all-zero or with zero
    columns, and units that group several cells."""
    spec = data.draw(st.sampled_from(ECHELON_FIELDS))
    k, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 10))
    entries = st.one_of(st.just(0), st.integers(0, spec.q - 1))  # zero half the time
    G = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=k, max_size=k)), dtype=np.int64).reshape(k, n)
    if k > 1 and data.draw(st.booleans()):  # a row that depends on the others
        G[-1] = spec.add(spec.mul(G[0], data.draw(st.integers(0, spec.q - 1))), G[-2])
    dim = data.draw(st.integers(0, k + 1))
    cells = st.sets(st.integers(0, n - 1)) if n else st.just(set())
    unit_cells = data.draw(st.lists(cells, max_size=6))
    units = [sum(1 << c for c in cs) for cs in unit_cells]
    U = cd.UnitCode(spec, G, units, dim)
    for size in range(len(units) + 1):
        for erased in combinations(range(len(units)), size):
            lost = set().union(*(cs for u, cs in enumerate(unit_cells) if u in erased))
            surv = [c for c in range(n) if c not in lost]
            assert U.corrects(erased) == (mx.rank(spec, G[:, surv]) == dim), (G, units, erased)
    for bad in (-1, len(units)):
        with pytest.raises(cd.CodeError, match="out of range"):
            U.corrects([bad])


def test_row_column_scan_stops_at_first_failure():
    """Rows outer, columns inner: the order of a nested (S, T) loop."""
    for seed, rate in product(range(8), (Fraction(1, 12), Fraction(1, 6))):
        R = gc.sample_random_bipartite(2, 3, 4, rate, rng_seed=seed)
        axes = [(3, 1, 1), (4, 2, 2)]
        rep = ens.verify_units(R.unit_code, axes)
        pairs = [(S, T) for S in combinations(range(3), 1)
                 for T in combinations(range(4), 2)]
        fails = [i for i, (S, T) in enumerate(pairs) if not R.corrects(S, T)]
        if fails:
            S, T = pairs[fails[0]]
            assert not rep.passed and rep.patterns_tested == fails[0] + 1
            assert ens.split_pattern(rep.worst_pattern, axes) == [list(S), list(T)]
        else:
            assert rep.passed and rep.patterns_tested == len(pairs)
            assert rep.worst_pattern == ()


@pytest.mark.parametrize("mode,seed", [("exhaustive", None), ("montecarlo", 7)])
def test_stopping_scan_checks_nothing_past_its_first_failure(mode, seed, monkeypatch):
    """On the per-pattern side, a scan that stops at its first failing
    pattern calls `UnitCode.corrects` once per code on each pattern before
    it, in scan or draw order, then on that pattern only.  Five GF(3)
    [8, 4] codes fail their 7th pattern of size 3 in scan order, and their
    5th drawn from seed 7 (so its draws come in batches of 1, 1, 2 and 4)."""
    spec = FIELDS[1]
    codes = [cd.UnitCode(spec, G, [1 << i for i in range(8)], dim=mx.rank(spec, G))
             for G in np.random.default_rng(4).integers(0, 3, (5, 4, 8))]
    if mode == "exhaustive":
        order = list(combinations(range(8), 3))
    else:
        rng = random.Random(seed)
        order = [tuple(sorted(rng.sample(range(8), 3))) for _ in range(56 * 5)]
    calls = []
    corrects = cd.UnitCode.corrects

    def counted(self, erased):
        calls.append(tuple(erased))
        return corrects(self, erased)
    monkeypatch.setattr(ens, "SUPPORT_SIDE_CELLS", -1)  # the per-pattern side
    monkeypatch.setattr(cd.UnitCode, "corrects", counted)
    worst, witness, tested = ens.scan_patterns([(8, 3, 3)], codes, mode, 56 * 5, seed,
                                               stop_at_failure=True)
    assert worst and 1 < tested < len(order) and witness == order[tested - 1]
    before = (tested - 1) * len(codes)
    assert calls[:before] == [pat for pat in order[:tested - 1] for _ in codes]
    assert calls[before:] == [witness] * len(codes)


def draw_code(data, spec, k, n):
    G = data.draw(matrices(spec, k, n))
    assume(mx.rank(spec, G) == k)
    return cd.LinearCode(spec, G)


def draw_concatenation(data, p, pool):
    """A concatenation of a random interleaved outer code with codes drawn
    from `pool` (one shape), some digits discarded and some cells in no block."""
    inner = pool[0]
    e = inner.spec.m
    r = data.draw(st.sampled_from([r for r in (1, 2) if inner.k * e % r == 0]))
    n_out = data.draw(st.integers(1, 3))
    base_spec = make_field(p, inner.k * e // r)
    base = draw_code(data, base_spec, data.draw(st.integers(1, min(2, n_out))), n_out)
    inners = [data.draw(st.sampled_from(pool)) for _ in range(n_out)]
    slots = n_out * inner.n * e
    n_cells = slots + data.draw(st.integers(0, 2))
    perm = data.draw(st.permutations(range(n_cells)))
    dropped = data.draw(st.sets(st.integers(0, slots - 1)))
    cells = np.array([-1 if s in dropped else perm[s] for s in range(slots)])
    return cd.ConcatenatedCode(cd.InterleavedCode(base, r), inners,
                               cells.reshape(n_out, -1), n_cells)


def block_oracle_fails(code, erased) -> bool:
    """Whether decoding fails with the cells (or positions) in `erased` lost.

    A LinearCode fails when its rank criterion does.  A block of a
    concatenation fails when its inner oracle fails on its erased symbols,
    a symbol being erased when any of its digits is discarded or erased,
    and the concatenation fails when its outer code cannot correct the
    failed blocks."""
    if isinstance(code, cd.LinearCode):
        return not cd.corrects_pattern(code, sorted(erased))
    lost = np.array([c < 0 or c in erased for c in code.cells.reshape(-1).tolist()])
    lost = lost.reshape(len(code.inners), -1, code.e).any(axis=2)
    failed = [b for b, inner in enumerate(code.inners)
              if block_oracle_fails(inner, set(np.flatnonzero(lost[b]).tolist()))]
    return not cd.corrects_pattern(code.outer.base, failed)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_concatenated_code_matches_block_oracle(data):
    """decode succeeds exactly when the outer code corrects the failed blocks,
    also when the inner code is itself a concatenation."""
    p = data.draw(st.sampled_from([2, 3]))
    if data.draw(st.booleans()):  # nested: the inner code is a concatenation
        leaf_spec = make_field(p, data.draw(st.sampled_from([1, 2])))
        leaf = [draw_code(data, leaf_spec, 1, data.draw(st.integers(1, 2)))]
        pool = [draw_concatenation(data, p, leaf)]
    else:
        e = data.draw(st.sampled_from([1, 2]))
        n_in = data.draw(st.integers(1, 3))
        k_in = data.draw(st.integers(1, min(2, n_in)))
        pool = [draw_code(data, make_field(p, e), k_in, n_in)
                for _ in range(data.draw(st.integers(1, 2)))]
    core = draw_concatenation(data, p, pool)

    msg = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=core.k,
                                      max_size=core.k)), dtype=np.int64)
    cw = core.encode(msg)
    assert np.array_equal(core.G, cd.unit_generator(core.encode, core.k))
    assert np.array_equal(cw, mx.matmul(core.spec, msg[None, :], core.G)[0])
    assert not cw[sorted(set(range(core.n)) - set(core.cells.reshape(-1).tolist()))].any()

    erased = data.draw(st.sets(st.integers(0, core.n - 1)))
    received = [None if c in erased else int(v) for c, v in enumerate(cw)]
    if not block_oracle_fails(core, erased):
        assert np.array_equal(core.decode(received), msg)
    else:
        with pytest.raises(cd.DecodingFailure):
            core.decode(received)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pack_rows_matches_bitwise_reference(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 70))
    G = data.draw(matrices(f2, rows, cols)).reshape(rows, cols)
    assert mx.pack_rows(G) == [sum(int(v) << j for j, v in enumerate(row)) for row in G]


def all_vectors(spec, n):
    return np.array(list(product(range(spec.q), repeat=n)), dtype=np.int64)


def brute_solve(spec, a, b):
    """Every x with a @ x = b, by listing all of F_q^n."""
    xs = all_vectors(spec, a.shape[1])
    hits = [x for x in xs if np.array_equal(mx.matvec(spec, a, x), b)]
    if not hits:
        return mx.NO_SOLUTION
    return hits[0] if len(hits) == 1 else mx.UNDERDETERMINED


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_brute_force(data):
    spec = data.draw(st.sampled_from(FIELDS))
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))
    a = data.draw(matrices(spec, m, n))
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = mx.matvec(spec, a, data.draw(matrices(spec, 1, n))[0])
    else:
        b = data.draw(matrices(spec, 1, m))[0]
    got, want = mx.solve(spec, a, b), brute_solve(spec, a, b)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got is want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_many_right_hand_sides_matches_columns(data):
    spec = data.draw(st.sampled_from(FIELDS))
    m, n, r = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 1))
    a = data.draw(matrices(spec, m, n))
    B = mx.matmul(spec, a, data.draw(matrices(spec, n, r)))
    if m and data.draw(st.booleans()):  # spoil one column
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, r - 1))
        B[i, j] = (B[i, j] + 1) % spec.q
    cols = [mx.solve(spec, a, B[:, j]) for j in range(r)]
    got = mx.solve(spec, a, B)
    if any(c is mx.NO_SOLUTION for c in cols):
        assert got is mx.NO_SOLUTION
    elif any(c is mx.UNDERDETERMINED for c in cols):
        assert got is mx.UNDERDETERMINED
    else:
        assert got.shape == (n, r) and got.base is None
        assert np.array_equal(got, np.stack(cols, axis=1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_basis_matches_brute_force(data):
    """Row i is the one kernel vector that is e_i on the free columns, a
    column being free when it lies in the span of the columns before it."""
    spec = data.draw(st.sampled_from(FIELDS))
    m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
    a = data.draw(matrices(spec, m, n))
    free = [c for c in range(n) if mx.rank(spec, a[:, :c + 1]) == mx.rank(spec, a[:, :c])]
    kernel = [x for x in all_vectors(spec, n) if not mx.matvec(spec, a, x).any()]
    want = [[x for x in kernel if np.array_equal(x[free], e)] for e in np.eye(len(free))]
    assert all(len(w) == 1 for w in want)
    assert np.array_equal(mx.kernel_basis(spec, a),
                          np.array([w[0] for w in want]).reshape(len(free), n))


# (field, k, L) with at most 1024 candidate k x L matrices
RREF_CASES = [(spec, k, L) for spec in FIELDS for L in range(1, 11) for k in range(1, L + 1)
              if spec.q ** (k * L) <= 1024]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RREF_CASES))
def test_rref_generators_match_scan(case):
    """The direct construction lists exactly the full-rank matrices equal to
    their own reduced echelon form, in row-major integer order."""
    spec, k, L = case
    scan = []
    for flat in product(range(spec.q), repeat=k * L):
        G = np.array(flat, dtype=np.int64).reshape(k, L)
        if mx.rank(spec, G) == k and np.array_equal(G, mx._reduce(spec, *mx._eliminate(spec, G))):
            scan.append(G)
    got = ens._rref_generators(spec, k, L)
    assert len(got) == len(scan)
    assert all(np.array_equal(g, h) for g, h in zip(got, scan))


def test_rref_order_holds_past_one_byte():
    gens = ens._rref_generators(make_field(257, 1), 1, 2)
    assert [g.tolist() for g in gens] == sorted(g.tolist() for g in gens)
    assert len(gens) == 258 and gens[-1].tolist() == [[1, 256]]


def product_order_search(spec, L, delta_in, mu, size, k):
    """First ensemble in product order passing the family property, or None."""
    codes = [cd.LinearCode(spec, G) for G in ens._rref_generators(spec, k, L)]
    pats = list(combinations(range(L), math.floor(delta_in * L)))
    ok = [[cd.corrects_pattern(c, pat) for pat in pats] for c in codes]
    for combo in product(range(len(codes)), repeat=size):
        if all(sum(not ok[ci][j] for ci in combo) <= mu * size for j in range(len(pats))):
            return [codes[ci].G for ci in combo]
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inner_search_matches_product_order(data):
    spec = data.draw(st.sampled_from(FIELDS))
    L = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, L))
    assume(spec.q ** (k * L) <= 4096)
    size = data.draw(st.integers(1, 3))
    assume(len(ens._rref_generators(spec, k, L)) ** size <= 3000)
    delta_in = Fraction(data.draw(st.integers(0, L - 1)), L)
    mu = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)]))
    want = product_order_search(spec, L, delta_in, mu, size, k)
    if want is None:
        with pytest.raises(ens.SearchExhausted):
            ens.exhaustive_inner_search(spec, L, delta_in, mu, size, k=k)
    else:
        got = ens.exhaustive_inner_search(spec, L, delta_in, mu, size, k=k)
        assert [c.G.tolist() for c in got.codes] == [G.tolist() for G in want]
