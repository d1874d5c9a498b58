"""Differential tests of the two sides of the pattern scan.

`ens.scan_patterns` tests each pattern's kept cells against the codes'
light codeword supports when every code has few codeword lines (the
support side), and otherwise checks each pattern, in scan order, with one
`UnitCode.corrects` call per code (the per-pattern side).
`ens.SUPPORT_SIDE_CELLS` picks the side, so the tests force each one
through it.  The oracle is the plain primal loop: every pattern in scan
order, one rank check of G on its survivors per code.  In Monte Carlo
mode the oracle draws as the scan does and checks each draw the same way.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
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


@cache
def packed_rows(code):
    return mx.pack_rows(code.G)


def survivors_rank_ok(code, pat):
    """The direct criterion: G keeps rank `dim` on the cells `pat` leaves
    (over GF(2) on G's packed rows ANDed with the survivors, as `mx.rank`
    packs them)."""
    lost = 0
    for u in pat:
        lost |= code.units[u]
    if code.spec.q == 2:
        return mx.rank_packed([row & ~lost for row in packed_rows(code)]) == code.dim
    surv = [c for c in range(code.G.shape[1]) if not lost >> c & 1]
    return mx.rank(code.spec, code.G[:, surv]) == code.dim


def primal_scan(axes, codes, stop_at_failure=False):
    """(worst, witness, tested) by one primal rank check per pattern and code."""
    worst, witness, tested = Fraction(0), (), 0
    for pat in scan_order(axes):
        frac = Fraction(sum(1 for c in codes if not survivors_rank_ok(c, pat)), len(codes))
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
        frac = Fraction(sum(1 for c in codes if not survivors_rank_ok(c, pat)), len(codes))
        tested += 1
        if witness is None or frac > worst or (frac == worst and pat < witness):
            worst, witness = frac, pat
        if stop_at_failure and frac:
            break
    return worst, witness, tested


@contextmanager
def side(name, chunk_cells=None):
    """Force every code onto one side of the scan ("per-pattern" or
    "supports"), optionally with `chunk_cells` as the support side's chunk
    bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ens, "SUPPORT_SIDE_CELLS", -1 if name == "per-pattern" else 1 << 62)
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
    a grid on two axes, the vertices of a square grid (a vertex is its row
    and its column, so vertices share cells) on one axis, or positions on
    three axes."""
    def axis(n):
        lo = draw(st.integers(0, n))
        return n, lo, draw(st.integers(lo, n + 1))  # hi = n + 1: sizes with no pattern
    kind = draw(st.sampled_from(["positions", "grid", "vertices", "three axes"]))
    if kind == "positions":
        n = draw(st.integers(1, 7))
        return n, [1 << i for i in range(n)], [axis(n)]
    if kind == "three axes":
        sizes = [draw(st.integers(1, 2)) for _ in range(3)]
        return sum(sizes), [1 << i for i in range(sum(sizes))], [axis(n) for n in sizes]
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


def three_pairs():
    """One position of each of three pairs: 8 patterns, and this [6, 3]
    code fails only (0, 3, 4), the first pattern that pairs the first
    axis's first choice with the second axis's second."""
    G = np.array([[0, 0, 1, 0, 1, 1], [0, 1, 0, 1, 1, 1], [1, 0, 0, 1, 1, 0]])
    return [(2, 1, 1)] * 3, [cd.UnitCode(f2, G, [1 << i for i in range(6)])]


@settings(max_examples=300, deadline=None)
@given(scans(), st.booleans())
@example(three_pairs(), False)
@example(three_pairs(), True)
def test_scan_matches_primal_oracle(scan, stop):
    """The per-pattern side."""
    axes, codes = scan
    with side("per-pattern"):
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
@example(three_pairs(), False, ens.MASK_CHUNK_CELLS, 0)
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
    for name in ("supports", "per-pattern"):
        with side(name, chunk_cells):
            got = ens.scan_patterns(axes, codes, "montecarlo", 40, seed, stop_at_failure=stop)
        assert got == want


@st.composite
def gf2_generators(draw):
    """(gens, most): 1 to 3 random GF(2) k x L generators, k from 0 to 10
    and L from 1 to 64 (63 and 64 often: the top bits of a uint64), some
    with a row repeated so that a zero codeword is light."""
    L = draw(st.one_of(st.sampled_from([63, 64]), st.integers(1, 64)))
    k = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gens = rng.integers(0, 2, (draw(st.integers(1, 3)), k, L))
    if k > 1 and draw(st.booleans()):
        gens[0, k - 1] = gens[0, draw(st.integers(0, k - 2))]
    return gens, draw(st.integers(0, L))


@settings(max_examples=120, deadline=None)
@given(gf2_generators(), st.sampled_from([1, ens.MASK_CHUNK_CELLS]))
def test_gf2_supports_match_codeword_oracle(case, chunk_cells):
    """The packed GF(2) listing against the codewords of `_lines` times each
    G (`mx.matmul`), with their weights and cell masks made here: the same
    supports per generator, grouped in generator order, zero ones kept."""
    gens, most = case
    k = gens.shape[1]
    msgs = np.concatenate(list(cd._lines(2, k))) if k else np.zeros((0, 0), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ens, "MASK_CHUNK_CELLS", chunk_cells)
        owners, supports = ens._supports(f2, gens, most)
    assert (np.diff(owners) >= 0).all()
    for i, G in enumerate(gens):
        words = mx.matmul(f2, msgs, G)
        want = sorted(sum(1 << int(c) for c in np.flatnonzero(w)) for w in words
                      if np.count_nonzero(w) <= most)
        assert sorted(map(int, supports[owners == i])) == want


def test_full_rank_square_code_fails_every_nonempty_pattern():
    """n - dim = 0: H has no rows, so every nonempty erasure fails."""
    for spec in FIELDS:
        C = cd.UnitCode(spec, mx.identity(4), [1 << i for i in range(4)])
        assert mx.kernel_basis(spec, C.G).shape == (0, 4)
        assert ens.scan_patterns([(4, 0, 2)], [C]) == (1, (0,), 11)
        assert ens.scan_patterns([(4, 0, 2)], [C], stop_at_failure=True) == (1, (0,), 2)


def test_stopped_scan_builds_no_pattern_past_its_first_failure(monkeypatch):
    """On the per-pattern side an exhaustive scan builds each pattern as it
    checks it: a [12, 10] code fails every pattern of 3 positions, so a
    scan that stops reads one choice of the axis, and one that does not
    reads all 220."""
    read = []
    blocks = ens._size_blocks

    def counted(choices):
        for pick in choices:
            read.append(pick)
            yield pick
    monkeypatch.setattr(ens, "_size_blocks",
                        lambda axes: ([counted(first), *rest] for first, *rest in blocks(axes)))
    C = cd.UnitCode(f2, np.hstack([mx.identity(10), np.zeros((10, 2), dtype=np.int64)]),
                    [1 << i for i in range(12)])
    with side("per-pattern"):
        assert ens.scan_patterns([(12, 3, 3)], [C], stop_at_failure=True) == (1, (0, 1, 2), 1)
        assert read == [(0, 1, 2)]
        assert ens.scan_patterns([(12, 3, 3)], [C]) == (1, (0, 1, 2), 220)
        assert len(read) == 221


def test_rank_other_than_dim_is_rejected():
    """On both sides, in both modes, whether or not the scan stops: a G
    with fewer rows than dim, and one with dim rows, the same row twice
    (the support side lists its zero codeword)."""
    for G, name, mode, stop in product(([[1, 1, 0]], [[1, 1, 0], [1, 1, 0]]),
                                       ("supports", "per-pattern"), ("exhaustive", "montecarlo"),
                                       (False, True)):
        C = cd.UnitCode(f2, np.array(G), [1, 2, 4], dim=2)
        with side(name), pytest.raises(cd.CodeError, match="rank 1, not dim = 2"):
            ens.scan_patterns([(3, 1, 1)], [C], mode, 5, 1 if mode == "montecarlo" else None,
                              stop_at_failure=stop)


def test_exhaustive_scan_makes_no_primal_rank_checks(monkeypatch):
    """The support side makes no per-pattern rank check; the per-pattern
    side and Monte Carlo draws off the support side do."""
    F = ens.sample_random_family(f2, 12, QUARTER, QUARTER, QUARTER, 8, rng_seed=4)
    s = ens.max_pattern_size(F)
    family_want = primal_scan([(F.n, s, s)], [c.unit_code for c in F.codes])
    R = gc.sample_random_bipartite(2, 3, 4, Fraction(1, 6), rng_seed=3)
    axes = [(3, 1, 1), (4, 2, 2)]
    graph_want = primal_scan(axes, [R.unit_code], stop_at_failure=True)

    def no_primal(self, erased):
        raise AssertionError("an exhaustive scan made a primal rank check")
    monkeypatch.setattr(cd.UnitCode, "corrects", no_primal)
    with side("supports"):
        rep = ens.verify_family(F)
        assert (rep.worst_fail_fraction, rep.worst_pattern, rep.patterns_tested) == family_want
        rep = ens.verify_units(R.unit_code, axes)
        assert (rep.worst_fail_fraction, rep.worst_pattern, rep.patterns_tested) == graph_want
    for scan in (lambda: ens.verify_family(F),
                 lambda: ens.verify_family(F, mode="montecarlo", budget=5, rng_seed=1)):
        with side("per-pattern"), pytest.raises(AssertionError):
            scan()


def test_gf2_family_at_n20_is_certified_on_the_support_side(monkeypatch):
    """Families share the support side's set-up, so its bound grows with
    the member count: 32 GF(2) [20, 10] codes (1,023 lines x 20 cells
    each, above one code's bound) are certified from their supports, with
    no per-pattern check, and agree with the primal oracle."""
    F = ens.sample_random_family(f2, 20, QUARTER, QUARTER, QUARTER, 32, rng_seed=1)
    codes = [c.unit_code for c in F.codes]
    assert not ens._on_supports(codes[0], 1) and ens._on_supports(codes[0], 32)
    want = primal_scan([(20, 5, 5)], codes)

    def no_primal(self, erased):
        raise AssertionError("a support-side scan made a primal rank check")
    monkeypatch.setattr(cd.UnitCode, "corrects", no_primal)
    rep = ens.verify_family(F)
    assert (rep.worst_fail_fraction, rep.worst_pattern, rep.patterns_tested) == want


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
