"""Differential tests of the two sides of the pattern scan.

`ens.scan_patterns` tests each pattern's kept cells against the codes'
light codeword supports when every code has few codeword lines (the
support side), and otherwise walks each code's patterns depth first with
an echelon basis of parity-check columns, failing every completion of a
dependent prefix at once (the walk side).  `ens.SUPPORT_SIDE_CELLS`
picks the side, so the tests force each one through it.  The oracle is
the per-pattern primal loop both replaced: every pattern in scan order,
one `UnitCode.corrects` rank check per code.  In Monte Carlo mode the
oracle draws as the scan does and checks each draw the same way.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codefam import code as cd
from codefam import ensemble as ens
from codefam import graphcode as gc
from codefam import matrix as mx
from codefam.gf import make_field

FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2)]
f2 = FIELDS[0]
QUARTER = Fraction(1, 4)


def scan_order(axes):
    """Every pattern of the axes: by size, then in lexicographic order."""
    def patterns(axes, sizes, start=0):
        if not axes:
            yield ()
            return
        n = axes[0][0]
        for head in combinations(range(start, start + n), sizes[0]):
            for tail in patterns(axes[1:], sizes[1:], start + n):
                yield head + tail
    for sizes in product(*(range(lo, hi + 1) for _, lo, hi in axes)):
        yield from patterns(axes, sizes)


def primal_scan(axes, codes, stop_at_failure=False):
    """(worst, witness, tested) by one primal rank check per pattern and code."""
    worst, witness, tested = Fraction(0), (), 0
    for pat in scan_order(axes):
        frac = Fraction(sum(1 for c in codes if not c.corrects(pat)), len(codes))
        tested += 1
        if frac > worst or (frac == worst and pat < witness):
            worst, witness = frac, pat
        if stop_at_failure and frac:
            break
    return worst, witness, tested


def montecarlo_oracle(axes, codes, budget, seed, stop_at_failure=False):
    """(worst, witness, tested) of `budget` draws of the largest sizes from
    random.Random(seed), one primal rank check per draw and code."""
    rng = random.Random(seed)
    starts = list(accumulate((n for n, _, _ in axes), initial=0))
    worst, witness, tested = Fraction(0), None, 0
    for _ in range(budget):
        pat = tuple(s + u for (n, _, hi), s in zip(axes, starts)
                    for u in sorted(rng.sample(range(n), hi)))
        frac = Fraction(sum(1 for c in codes if not c.corrects(pat)), len(codes))
        tested += 1
        if witness is None or frac > worst or (frac == worst and pat < witness):
            worst, witness = frac, pat
        if stop_at_failure and frac:
            break
    return worst, witness, tested


@contextmanager
def side(name, chunk_cells=None):
    """Force every code onto one side of the scan ("walk" or "supports"),
    optionally with `chunk_cells` as the support side's chunk bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ens, "SUPPORT_SIDE_CELLS", -1 if name == "walk" else 1 << 62)
        if chunk_cells is not None:
            mp.setattr(ens, "MASK_CHUNK_CELLS", chunk_cells)
        yield


def matrices(spec, rows, cols):
    return st.lists(st.integers(0, spec.q - 1), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda v: np.array(v, dtype=np.int64).reshape(rows, cols))


@st.composite
def unit_layouts(draw):
    """(cells, units, axes): positions on one axis, the rows and columns of
    a grid on two axes, or the vertices of a square grid (a vertex is its
    row and its column, so vertices share cells) on one axis."""
    def axis(n):
        lo = draw(st.integers(0, n))
        return n, lo, draw(st.integers(lo, n + 1))  # hi = n + 1: sizes with no pattern
    kind = draw(st.sampled_from(["positions", "grid", "vertices"]))
    if kind == "positions":
        n = draw(st.integers(1, 7))
        return n, [1 << i for i in range(n)], [axis(n)]
    if kind == "grid":
        M, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return M * N, cd.grid_units(M, N), [axis(M), axis(N)]
    side = draw(st.integers(2, 3))
    grid = cd.grid_units(side, side)
    return side * side, [grid[a] | grid[side + a] for a in range(side)], [axis(side)]


@st.composite
def scans(draw):
    spec = draw(st.sampled_from(FIELDS))
    n, units, axes = draw(unit_layouts())
    codes = []
    for _ in range(draw(st.integers(1, 4))):
        # any row count up to n: rank-deficient generators, and n - dim = 0
        G = draw(matrices(spec, draw(st.integers(1, n)), n))
        codes.append(cd.UnitCode(spec, G, units, dim=mx.rank(spec, G)))
    return axes, codes


@settings(max_examples=300, deadline=None)
@given(scans(), st.booleans())
def test_scan_matches_primal_oracle(scan, stop):
    """The walk side."""
    axes, codes = scan
    with side("walk"):
        got = ens.scan_patterns(axes, codes, stop_at_failure=stop)
    assert got == primal_scan(axes, codes, stop)


def gf3_family():
    """Five [8, 4] codes over GF(3) that fail some patterns of 3 positions."""
    spec = FIELDS[1]
    gens = np.random.default_rng(2).integers(0, 3, (5, 4, 8))
    return [(8, 3, 3)], [cd.UnitCode(spec, G, [1 << i for i in range(8)], dim=mx.rank(spec, G))
                         for G in gens]


@settings(max_examples=300, deadline=None)
@given(scans(), st.booleans(), st.sampled_from([1, 64, ens.MASK_CHUNK_CELLS]),
       st.integers(0, 2 ** 32 - 1))
@example(gf3_family(), False, 1, 0)  # 56 patterns, one support test a chunk
def test_support_side_matches_primal_oracle(scan, stop, chunk_cells, seed):
    """The support side in both modes, with chunk bounds down to one
    support test (and one pattern, and one generator) a chunk."""
    axes, codes = scan
    with side("supports", chunk_cells):
        got = ens.scan_patterns(axes, codes, stop_at_failure=stop)
    assert got == primal_scan(axes, codes, stop)
    # Monte Carlo draws need hi <= n on every axis
    axes = [(n, min(lo, n), min(hi, n)) for n, lo, hi in axes]
    want = montecarlo_oracle(axes, codes, 40, seed, stop)
    for name in ("supports", "walk"):
        with side(name, chunk_cells):
            got = ens.scan_patterns(axes, codes, "montecarlo", 40, seed, stop_at_failure=stop)
        assert got == want


def test_full_rank_square_code_fails_every_nonempty_pattern():
    """n - dim = 0: H has no rows, so every nonempty erasure fails."""
    for spec in FIELDS:
        C = cd.UnitCode(spec, mx.identity(4), [1 << i for i in range(4)])
        assert C.H.shape == (0, 4)
        assert ens.scan_patterns([(4, 0, 2)], [C]) == (1, (0,), 11)
        assert ens.scan_patterns([(4, 0, 2)], [C], stop_at_failure=True) == (1, (0,), 2)


def test_rank_other_than_dim_is_rejected():
    C = cd.UnitCode(f2, np.array([[1, 1, 0]]), [1, 2, 4], dim=2)
    with pytest.raises(cd.CodeError):
        ens.scan_patterns([(3, 1, 1)], [C])


def test_exhaustive_scan_makes_no_primal_rank_checks(monkeypatch):
    F = ens.sample_random_family(f2, 12, QUARTER, QUARTER, QUARTER, 8, rng_seed=4)
    s = ens.max_pattern_size(F)
    family_want = primal_scan([(F.n, s, s)], [c.unit_code for c in F.codes])
    R = gc.sample_random_bipartite(2, 3, 4, Fraction(1, 6), rng_seed=3)
    axes = [(3, 1, 1), (4, 2, 2)]
    graph_want = primal_scan(axes, [R.unit_code], stop_at_failure=True)

    def no_primal(self, erased):
        raise AssertionError("an exhaustive scan made a primal rank check")
    monkeypatch.setattr(cd.UnitCode, "corrects", no_primal)
    for name in ("supports", "walk"):
        with side(name):
            rep = ens.verify_family(F)
            assert (rep.worst_fail_fraction, rep.worst_pattern,
                    rep.patterns_tested) == family_want
            rep = ens.verify_units(R.unit_code, axes)
            assert (rep.worst_fail_fraction, rep.worst_pattern,
                    rep.patterns_tested) == graph_want
    with side("walk"), pytest.raises(AssertionError):  # Monte Carlo walked codes check each draw
        ens.verify_family(F, mode="montecarlo", budget=5, rng_seed=1)


def test_budget_counts_one_check_per_pattern_and_code():
    C = cd.LinearCode(f2, [[1, 0, 1, 1], [0, 1, 1, 0]]).unit_code
    axes = [(4, 2, 2)]
    assert ens.scan_patterns(axes, [C, C], budget=12)[2] == math.comb(4, 2)
    with pytest.raises(ens.BudgetExceeded, match="12 rank checks exceed budget 11"):
        ens.scan_patterns(axes, [C, C], budget=11)


@pytest.mark.parametrize("budget", [0, -1])
def test_montecarlo_budget_below_one_draws_nothing_and_raises(budget):
    C = cd.LinearCode(f2, [[1, 0, 1, 1], [0, 1, 1, 0]]).unit_code
    with pytest.raises(ens.BudgetExceeded):
        ens.scan_patterns([(4, 2, 2)], [C], mode="montecarlo", budget=budget, rng_seed=1)
    assert ens.scan_patterns([(4, 2, 2)], [C], mode="montecarlo", budget=1, rng_seed=1)[2] == 1


@pytest.mark.parametrize("axes,mode,match", [
    ([(12, 13, 13)], "exhaustive", "admit no pattern"),
    ([(12, 7, 6)], "exhaustive", "admit no pattern"),
    ([(12, 13, 13)], "montecarlo", "erases up to 13 of its 12 units"),
    ([(8, 0, 3), (4, 0, 5)], "montecarlo", "erases up to 5 of its 4 units"),
], ids=["exhaustive-sizes-above-n", "exhaustive-lo-above-hi", "montecarlo-hi-above-n",
        "montecarlo-second-axis-hi-above-n"])
def test_scan_of_no_pattern_raises(axes, mode, match):
    """A scan that could test no pattern certifies nothing: exhaustive axes
    with no pattern, or a Monte Carlo axis that erases more units than it
    has (axes where only some sizes have patterns stay legal)."""
    C = cd.reed_solomon(make_field(13, 1), 6, 12).unit_code
    seed = 1 if mode == "montecarlo" else None
    with pytest.raises(ens.EnsembleError, match=match):
        ens.scan_patterns(axes, [C], mode, 5, seed)
