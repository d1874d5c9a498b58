"""Differential tests of the dual-side pattern scan.

Exhaustive `ens.scan_patterns` walks each code's patterns depth first with
an echelon basis of parity-check columns and fails every completion of a
dependent prefix at once.  The oracle below is the per-pattern primal loop
it replaced: every pattern in scan order, one `UnitCode.corrects` rank
check per code.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def pruning_oracle(axes, codes):
    """The notes of a full scan: per code and size combination, the minimal
    uncorrectable prefixes shorter than their patterns, and the patterns
    that have one."""
    starts = list(accumulate((n for n, _, _ in axes), initial=0))
    prefixes, patterns = set(), 0
    for i, c in enumerate(codes):
        for pat in scan_order(axes):
            cut = next((j for j in range(1, len(pat)) if not c.corrects(pat[:j])), None)
            if cut is not None:
                patterns += 1
                sizes = tuple(sum(1 for u in pat if s <= u < s + n)
                              for (n, _, _), s in zip(axes, starts))
                prefixes.add((i, sizes, pat[:cut]))
    return {"prefixes_pruned": len(prefixes), "patterns_pruned": patterns}


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
    axes, codes = scan
    worst, witness, tested, notes = ens.scan_patterns(axes, codes, stop_at_failure=stop)
    assert (worst, witness, tested) == primal_scan(axes, codes, stop)
    assert notes["patterns_pruned"] <= tested * len(codes)
    if not stop:
        assert notes == pruning_oracle(axes, codes)


def test_full_rank_square_code_fails_every_nonempty_pattern():
    """n - dim = 0: H has no rows, so every nonempty erasure fails."""
    for spec in FIELDS:
        C = cd.UnitCode(spec, mx.identity(4), [1 << i for i in range(4)])
        assert C.H.shape == (0, 4)
        assert ens.scan_patterns([(4, 0, 2)], [C])[:3] == (1, (0,), 11)
        assert ens.scan_patterns([(4, 0, 2)], [C], stop_at_failure=True)[:3] == (1, (0,), 2)


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
    rep = ens.verify_family(F)
    assert (rep.worst_fail_fraction, rep.worst_pattern, rep.patterns_tested) == family_want
    rep = ens.verify_units(R.unit_code, axes)
    assert (rep.worst_fail_fraction, rep.worst_pattern, rep.patterns_tested) == graph_want
    with pytest.raises(AssertionError):  # Monte Carlo mode checks each draw
        ens.verify_family(F, mode="montecarlo", budget=5, rng_seed=1)


def test_notes_count_pruning_deterministically():
    reps = [ens.verify_family(ens.sample_random_family(f2, 12, QUARTER, QUARTER, QUARTER,
                                                       8, rng_seed=5))
            for _ in range(2)]
    assert reps[0].notes == reps[1].notes
    notes = reps[0].notes
    assert 0 < notes["prefixes_pruned"] <= notes["patterns_pruned"]
    assert notes["patterns_pruned"] <= reps[0].patterns_tested * 8
    mc = ens.verify_family(ens.sample_random_family(f2, 12, QUARTER, QUARTER, QUARTER,
                                                    8, rng_seed=5),
                           mode="montecarlo", budget=20, rng_seed=1)
    assert mc.notes == {"prefixes_pruned": 0, "patterns_pruned": 0}


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
