"""Differential tests of the erasure-unit rank criterion.

At tiny sizes a set of erased units is correctable exactly when no nonzero
codeword is supported inside the erased cells; the oracle below checks that
by listing every codeword.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
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
