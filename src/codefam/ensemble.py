"""
Erasure code families: indexed ensembles of same-length linear codes in
which every bounded erasure pattern is correctable by all but a small
fraction of members.

Provides exact (exhaustive) and Monte Carlo family verification, random
sampling at the existence-lemma size, and a deterministic exhaustive
search for tiny inner ensembles.  Every certificate is one pattern scan
(`scan_patterns`), which tests patterns either against the codes' light
codeword supports, in bulk, or one at a time with `UnitCode.corrects`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, islice, product, tee
from operator import or_

import numpy as np

from codefam import matrix as mx
from codefam.code import (CodeError, InfeasibleAtDeskScale, LinearCode, UnitCode, _lines,
                          corrects_pattern, code_to_text, code_from_text)
from codefam.gf import FieldSpec


class EnsembleError(ValueError):
    pass


class BudgetExceeded(EnsembleError):
    pass


class RateNonpositive(EnsembleError):
    pass


class SearchExhausted(EnsembleError):
    pass


# Running tally of candidate ensembles examined by exhaustive_inner_search;
# lets callers assert that a construction path avoided the search entirely.
SEARCH_STATS = {"ensembles_examined": 0, "calls": 0}


class ErasureFamily:
    """Indexed list of [n, k] codes with family parameters (delta, epsilon)."""

    def __init__(self, codes: list[LinearCode], delta, epsilon):
        if not codes:
            raise EnsembleError("family must contain at least one code")
        n = codes[0].n
        k = codes[0].k
        spec = codes[0].spec
        for c in codes:
            if (c.n, c.k, c.spec) != (n, k, spec):
                raise EnsembleError("all family members must share (spec, n, k)")
        self.codes = list(codes)
        self.spec = spec
        self.n = n
        self.k = k
        self.delta = Fraction(delta)
        self.epsilon = Fraction(epsilon)
        if not (0 <= self.delta < 1 and 0 <= self.epsilon < 1):
            raise EnsembleError("delta and epsilon must lie in [0, 1)")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    def __len__(self):
        return len(self.codes)

    def __repr__(self):
        return (f"ErasureFamily({len(self.codes)} codes, [{self.n},{self.k}] "
                f"over GF({self.spec.p}^{self.spec.m}), "
                f"delta={self.delta}, epsilon={self.epsilon})")


@dataclass
class VerifyReport:
    """Outcome of a pattern scan; a graph code's fail fraction is 0 or 1."""
    worst_fail_fraction: Fraction
    worst_pattern: tuple
    patterns_tested: int
    mode: str
    rng_seed: int | None = None
    passed: bool = False


def split_pattern(pat, axes) -> list[list[int]]:
    """The units a pattern erases on each axis, numbered from 0 per axis."""
    starts = accumulate((n for n, _, _ in axes), initial=0)
    return [[u - s for u in pat if s <= u < s + n] for (n, _, _), s in zip(axes, starts)]


def _size_blocks(axes):
    """The exhaustive scan's patterns, one block per size combination that
    has any, in scan order (by size, then lexicographically): per axis, the
    `combinations` of the units it erases.  A block's patterns, in order,
    are the product of its axes' choices."""
    starts = list(accumulate((n for n, _, _ in axes), initial=0))
    for sizes in product(*(range(lo, hi + 1) for _, lo, hi in axes)):
        if all(k <= n for (n, _, _), k in zip(axes, sizes)):
            yield [combinations(range(s, s + n), k) for (n, _, _), s, k in zip(axes, starts, sizes)]


def _pattern_count(axes) -> int:
    """How many patterns `_size_blocks` gives."""
    return sum(math.prod(math.comb(n, k) for (n, _, _), k in zip(axes, sizes))
               for sizes in product(*(range(lo, hi + 1) for _, lo, hi in axes)))


# `scan_patterns` tests codeword supports instead of checking each pattern
# when every code has at most 64 cells (a support is one uint64) and its
# codeword lines times its cells are at most this times the number of
# codes.  The support side costs about lines x cells per code (one
# `matmul` for all the codes) plus a vectorized test of each pattern
# against every support; the per-pattern side one `UnitCode.corrects`
# call (2-6 us over GF(2)) per pattern and code, and stops at a first
# failure without paying for supports.  Measured, supports vs
# per-pattern (2-core VM, Python 3.11.7, numpy 2.4.6, medians):
#   families, t = 32, full scans: GF(2) n = 16 7 vs 120 ms, n = 20
#     (2^14.3 per code) 50 vs 1,258 ms; GF(3) n = 16 33 vs 538 ms
#   one random code, full scans: GF(2) [32, 9..12] over 4,960 patterns
#     (2^14-2^17) 2.0-5.8 vs 11.5-12.5 ms, [32, 14] (2^19) 19.4 vs 12.9 ms
#   single-code benchmark checks, first failure ends them: nearly-MDS
#     (dim 12, 48 cells, 220 patterns, 2^17.6) 5.9 vs 0.86 ms
# So a single code keeps the bound that leaves these checks per-pattern,
# and a family's bound grows with its size: GF(2) families at t = 32 are
# on the support side up to n = 28.  Off the benchmark, the per-pattern
# side costs about 3-5 us per pattern on large exhaustive scans of one
# code (improved nearly-MDS, 96 cells, 10,626 patterns: 148-173 ms;
# random GF(2) [32, 16], 35,960 patterns: 119-174 ms), and a Monte Carlo
# scan of a large family pays for its supports up front (GF(2) n = 28,
# t = 32: 0.44 s for 200 draws, 0.66 s for 10^4).
SUPPORT_SIDE_CELLS = 1 << 14

# Codeword cells (lines x generators x cells) that one `matmul` of
# `_supports` makes, support x pattern tests that one chunk of `_fails`
# makes, and patterns that `_support_scan` builds, at once: 128 KB int64
# temporaries.  2^16 ran certify no faster (2-core VM, six 10 s runs) and
# raised its peak RSS by about 1 MB.
MASK_CHUNK_CELLS = 1 << 14


def _supports(spec: FieldSpec, gens: np.ndarray, most: int):
    """(owners, supports): the supports, as cell bitmasks, of the nonzero
    codewords of weight at most `most` of every generator in `gens` (n x k
    x L, L <= 64), one codeword per line, each with the index of the
    generator it comes from, in generator order.  The lines are multiplied
    by a chunk of the generators at a time, stacked side by side."""
    n, k, L = gens.shape
    msgs = np.concatenate([np.zeros((0, k), dtype=np.int64), *_lines(spec.q, k)])  # k = 0: none
    bits = np.uint64(1) << np.arange(L, dtype=np.uint64)
    owners, supports = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint64)]
    step = max(1, MASK_CHUNK_CELLS // max(1, len(msgs) * L))
    for lo in range(0, n, step):
        chunk = gens[lo:lo + step]
        words = mx.matmul(spec, msgs, chunk.transpose(1, 0, 2).reshape(k, len(chunk) * L))
        nonzero = words.reshape(len(msgs), len(chunk), L).transpose(1, 0, 2) != 0
        code, line = np.nonzero(nonzero.sum(axis=2) <= most)
        owners.append(code + lo)
        supports.append(nonzero[code, line] @ bits)
    return np.concatenate(owners), np.concatenate(supports)


def _fails(owners, supports, kept: np.ndarray, ncodes: int) -> np.ndarray:
    """(ncodes x patterns) bools: code i fails pattern j iff one of its
    supports (grouped by owner, in order) misses every cell that j keeps.

    A linear code fails an erasure pattern iff some nonzero codeword has
    its support inside the erased set (MacWilliams-Sloane, ch. 1).
    """
    fails = np.zeros((ncodes, len(kept)), dtype=bool)
    if len(supports):
        starts = np.flatnonzero(np.diff(owners, prepend=-1))
        step = max(1, MASK_CHUNK_CELLS // len(supports))
        for lo in range(0, len(kept), step):
            inside = (supports[:, None] & kept[None, lo:lo + step]) == 0
            fails[owners[starts], lo:lo + step] = np.logical_or.reduceat(inside, starts, axis=0)
    return fails


def _on_supports(code: UnitCode, ncodes: int) -> bool:
    """Whether `scan_patterns` may test the codeword supports of this code,
    one of `ncodes`: a support fits a uint64, and its codeword lines x cells
    are at most SUPPORT_SIDE_CELLS times `ncodes`, since one `matmul` finds
    the supports of all the codes and each pattern is tested against all
    of them at once."""
    q, cells = code.spec.q, code.G.shape[1]
    return cells <= 64 and (q ** code.dim - 1) // (q - 1) * cells <= SUPPORT_SIDE_CELLS * ncodes


def _rank_error(code: UnitCode) -> CodeError:
    return CodeError(f"G has rank {mx.rank(code.spec, code.G)}, not dim = {code.dim}")


def _support_counter(codes: list[UnitCode], axes):
    """A function from erased-cell masks (uint64) to how many of `codes`
    fail each, by `_fails` on the supports no heavier than the most cells
    a pattern of the axes erases.

    Each G is first reduced to `dim` rows, since a G with more rows than
    its rank has a nonzero message that encodes to 0; CodeError when the
    rank of a G is not its dim.
    """
    starts = accumulate((n for n, _, _ in axes), initial=0)
    units = codes[0].units
    # the heaviest hi units of each axis: exactly the most cells a pattern
    # erases when no two units share a cell, and at least it otherwise
    most = sum(sum(sorted((u.bit_count() for u in units[s:s + n]), reverse=True)[:hi])
               for (n, _, hi), s in zip(axes, starts))
    by_dim: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, c in enumerate(codes):
        G = c.G
        if len(G) > c.dim:
            ech, pivots = mx._eliminate(c.spec, G)
            G = np.asarray(ech[:len(pivots)], dtype=np.int64).reshape(len(pivots), G.shape[1])
        if len(G) != c.dim:
            raise _rank_error(c)
        by_dim.setdefault(c.dim, []).append((i, G))
    owners, supports = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint64)]
    for members in by_dim.values():
        o, s = _supports(codes[0].spec, np.array([G for _, G in members]), most)
        owners.append(np.array([i for i, _ in members])[o])
        supports.append(s)
    order = np.argsort(np.concatenate(owners), kind="stable")
    owners, supports = np.concatenate(owners)[order], np.concatenate(supports)[order]
    if (supports == 0).any():  # G has dim rows but lower rank
        raise _rank_error(codes[owners[np.argmax(supports == 0)]])
    full = np.uint64((1 << codes[0].G.shape[1]) - 1)
    return lambda erased: _fails(owners, supports, full & ~erased, len(codes)).sum(axis=0)


def _support_scan(axes, counts, units: list[int], stop: bool):
    """Exhaustive `scan_patterns` on the support side, `counts` from
    `_support_counter`: (worst fail count, smallest pattern reaching it,
    patterns tested)."""
    units = np.array(units, dtype=np.uint64)

    def erased(picks):  # the cells that each choice of units erases
        return np.bitwise_or.reduce(units[np.array(picks, dtype=np.intp)], axis=1)

    top, witness, tested = 0, (), 0
    for choices in _size_blocks(axes):
        # a block's patterns, in scan order, are the products of one choice
        # of units per axis: the later axes' at once, the first's in chunks
        tail, tails = np.zeros(1, dtype=np.uint64), [()]
        for picks in map(list, choices[1:]):
            tail = (tail[:, None] | erased(picks)[None, :]).ravel()
            tails = [t + p for t in tails for p in picks]
        while head := list(islice(choices[0], max(1, MASK_CHUNK_CELLS // len(tail)))):
            failing = counts((erased(head)[:, None] | tail[None, :]).ravel())
            peak = int(failing.max())
            if stop and peak:
                j = int(np.argmax(failing > 0))
                return int(failing[j]), head[j // len(tails)] + tails[j % len(tails)], tested + j + 1
            tested += len(failing)
            if peak >= top and peak:
                # within a block scan order is lexicographic: its first hit is its smallest
                j = int(np.argmax(failing == peak))
                hit = head[j // len(tails)] + tails[j % len(tails)]
                witness = hit if peak > top else min(witness, hit)
                top = peak
    return top, witness, tested


def _keep_worst(pairs, stop: bool):
    """(worst fail count, smallest pattern reaching it, patterns tested)
    over (pattern, codes failing it) pairs, in scan order or as drawn;
    stop ends at the first failing pattern."""
    worst, witness, tested = 0, None, 0
    for pat, fails in pairs:
        tested += 1
        if witness is None or fails > worst or (fails == worst and pat < witness):
            worst, witness = fails, pat
        if stop and fails:
            break
    return worst, witness, tested


def scan_patterns(axes, codes: list[UnitCode], mode: str = "exhaustive",
                  budget: int = 10 ** 7, rng_seed: int | None = None, *,
                  stop_at_failure: bool = False):
    """(worst fail fraction, smallest pattern reaching it, patterns tested).

    Each axis (n, lo, hi) is one kind of erasure unit; a pattern erases lo
    to hi of its n units, numbered after those of the earlier axes, and is
    one sorted tuple.  Its fail fraction is the share of `codes` (over the
    same units) that cannot correct it.  Exhaustive mode covers the
    patterns by size, then in lexicographic order, within `budget` rank
    checks (one per pattern and code); with no failures it names no
    pattern.  Monte Carlo mode draws `budget` (at least one) patterns of
    the largest sizes.  stop_at_failure ends the scan at the first failing
    pattern.

    EnsembleError when the exhaustive axes admit no pattern, or when a
    Monte Carlo axis erases more units than it has; CodeError when the
    rank of a code's G is not its dim.

    Two sides give the same answers.  When every code qualifies
    (`_on_supports`: at most 64 cells and few codeword lines per code),
    each pattern's kept cells are tested against the codes' light
    codeword supports (`_support_counter`).  Otherwise each pattern, in
    scan order or as drawn, is checked with `UnitCode.corrects` per code.
    """
    if mode == "exhaustive":
        total = _pattern_count(axes)
        if not total:
            raise EnsembleError(f"the axes {axes} admit no pattern")
        count = total * len(codes)
        if count > budget:
            raise BudgetExceeded(f"{count} rank checks exceed budget {budget}")
    elif mode != "montecarlo":
        raise EnsembleError(f"unknown mode {mode!r}")
    elif rng_seed is None:
        raise EnsembleError("montecarlo mode requires rng_seed")
    elif budget < 1:
        raise BudgetExceeded(f"montecarlo budget {budget} draws no pattern")
    else:
        for n, _, hi in axes:
            if hi > n:
                raise EnsembleError(f"an axis erases up to {hi} of its {n} units")
    if all(_on_supports(c, len(codes)) for c in codes):
        counts, units = _support_counter(codes, axes), codes[0].units
        if mode == "exhaustive":
            worst, witness, tested = _support_scan(axes, counts, units, stop_at_failure)
            return Fraction(worst, len(codes)), witness, tested

        def failing(pats):
            return counts(np.array([reduce(or_, (units[u] for u in pat), 0) for pat in pats],
                                   dtype=np.uint64)).tolist()
    else:
        for c in codes:  # as `_support_counter` checks on the support side
            if len(c._echelon[0]) != c.dim:
                raise _rank_error(c)

        def failing(pats):  # lazily, so that stop_at_failure checks no later pattern
            return (sum(1 for c in codes if not c.corrects(pat)) for pat in pats)
        if mode == "exhaustive":
            pats, again = tee(sum(parts, ()) for choices in _size_blocks(axes)
                              for parts in product(*choices))
            worst, witness, tested = _keep_worst(zip(pats, failing(again)), stop_at_failure)
            return Fraction(worst, len(codes)), witness if worst else (), tested
    rng = random.Random(rng_seed)
    starts = list(accumulate((n for n, _, _ in axes), initial=0))

    def draws():
        # in doubling batches of at most 1,024, so that stop_at_failure
        # draws at most twice the patterns it tests
        drawn = 0
        while drawn < budget:
            pats = [tuple(s + u for (n, _, hi), s in zip(axes, starts)
                          for u in sorted(rng.sample(range(n), hi)))
                    for _ in range(min(max(drawn, 1), budget - drawn, 1024))]
            drawn += len(pats)
            yield from zip(pats, failing(pats))

    worst, witness, tested = _keep_worst(draws(), stop_at_failure)
    return Fraction(worst, len(codes)), witness, tested


def verify_units(code: UnitCode, axes, mode: str = "exhaustive",
                 budget: int = 10 ** 5, rng_seed: int | None = None) -> VerifyReport:
    """The first pattern of the axes that `code` cannot correct, if any."""
    worst, witness, tested = scan_patterns(
        axes, [code], mode, budget, rng_seed, stop_at_failure=True)
    return VerifyReport(worst, witness if worst else (), tested, mode, rng_seed,
                        passed=not worst)


def failure_fraction(F: ErasureFamily, pat) -> Fraction:
    """Fraction of family members that cannot correct the pattern."""
    fails = sum(1 for c in F.codes if not corrects_pattern(c, pat))
    return Fraction(fails, len(F.codes))


def max_pattern_size(F: ErasureFamily) -> int:
    return math.floor(F.delta * F.n)


def verify_family(F: ErasureFamily, mode: str = "exhaustive",
                  budget: int = 10 ** 7, rng_seed: int | None = None) -> VerifyReport:
    """Certify the family property.

    Exhaustive mode enumerates every pattern of size exactly floor(delta*n)
    (smaller patterns are covered by correction monotonicity, which is
    property-tested separately, not assumed silently).  Monte Carlo mode
    samples `budget` uniform patterns of that size.  The report passes when
    the worst per-pattern failing fraction is <= epsilon.  The members are
    scanned by `scan_patterns`: on the support side when every member's
    codeword lines are few for a family of its size (GF(2) at t = 32: up
    to n = 28), else one `UnitCode.corrects` check per pattern and member.
    """
    s = max_pattern_size(F)
    worst, witness, tested = scan_patterns(
        [(F.n, s, s)], [c.unit_code for c in F.codes], mode, budget, rng_seed)
    return VerifyReport(
        worst_fail_fraction=worst,
        worst_pattern=witness,
        patterns_tested=tested,
        mode=mode,
        rng_seed=rng_seed if mode == "montecarlo" else None,
        passed=worst <= F.epsilon,
    )


def existence_params(q: int, delta, eta, epsilon) -> tuple[int, int]:
    """Family size and length thresholds from the random-coding argument.

    t_min = ceil(2 / (eta * epsilon * log2 q)),
    n0    = ceil(2 * log2(e / epsilon) / (eta * log2 q)),
    decided exactly: t_min is the least t with q^(t*a) >= 4^b for eta *
    epsilon = a/b, n0 the least n with q^(n*c) * epsilon^(2d) >= e^(2d)
    for eta = c/d.
    """
    eta = Fraction(eta)
    epsilon = Fraction(epsilon)
    if q < 2 or eta <= 0 or not 0 < epsilon <= 1:
        raise EnsembleError("need q >= 2, eta > 0 and 0 < epsilon <= 1")
    a, b = (eta * epsilon).numerator, (eta * epsilon).denominator
    c, d = eta.numerator, eta.denominator
    t_min = _least(lambda t: q ** (t * a) >= 4 ** b)
    n0 = _least(lambda n: _at_least_e_power(q ** (n * c) * epsilon ** (2 * d), 2 * d))
    return t_min, n0


def _least(pred) -> int:
    """Least n >= 1 with pred(n), for pred false below some n and true from it on."""
    hi = 1
    while not pred(hi):
        hi *= 2
    return bisect_left(range(hi + 1), True, hi // 2 + 1, key=pred)


def _at_least_e_power(x: Fraction, k: int) -> bool:
    """x >= e^k (k >= 1).  e lies between lo = sum of 1/i! for i <= j and
    lo + 1/(j! * j); j grows until the bounds decide, which they do as e^k
    is irrational."""
    lo, term, j = Fraction(2), Fraction(1), 1
    while lo ** k <= x < (lo + term / j) ** k:
        j += 1
        term /= j
        lo += term
    return x >= lo ** k


def sample_random_family(spec: FieldSpec, n: int, delta, eta, epsilon,
                         t: int, rng_seed: int) -> ErasureFamily:
    """t codes with uniformly random full-rank k x n generators.

    k = floor((1 - delta - eta) * n).  Generators that come out rank
    deficient are resampled (probability <= q^(k-n) each), keeping the
    family rate exactly uniform.
    """
    delta = Fraction(delta)
    eta = Fraction(eta)
    k = math.floor((1 - delta - eta) * n)
    if k < 1:
        raise RateNonpositive(f"rate (1 - {delta} - {eta}) gives k = {k}")
    return ErasureFamily(_random_codes(spec, k, n, t, np.random.default_rng(rng_seed)),
                         delta, epsilon)


def _random_codes(spec: FieldSpec, k: int, n: int, t: int, rng) -> list[LinearCode]:
    """t codes whose k x n generators `rng` draws uniformly, drawing again
    each one that is not full rank; InfeasibleAtDeskScale when k > n."""
    if k > n:  # no k x n generator has rank k, so no draw would ever be kept
        raise InfeasibleAtDeskScale(f"no [{n},{k}] code exists: ell = {k} exceeds N = {n}")
    codes = []
    while len(codes) < t:
        G = rng.integers(0, spec.q, size=(k, n), dtype=np.int64)
        try:
            codes.append(LinearCode(spec, G))
        except CodeError:  # not full row rank: draw again
            pass
    return codes


def _rref_generators(spec: FieldSpec, k: int, L: int) -> np.ndarray:
    """All k x L generators in reduced row echelon form, in lexicographic
    order of their row-major entries, stacked into one n x k x L array.

    One RREF matrix per k-dimensional subspace, so enumerating these walks
    every [L, k] code exactly once.  Each pivot set contributes a 1 at
    every row's pivot and every field value in each entry right of that
    pivot outside the pivot columns.
    """
    blocks = []
    for pivots in combinations(range(L), k):
        free = [(r, c) for r, p in enumerate(pivots)
                for c in range(p + 1, L) if c not in pivots]
        fills = np.array(list(product(range(spec.q), repeat=len(free))), dtype=np.int64)
        G = np.zeros((len(fills), k, L), dtype=np.int64)
        G[:, range(k), pivots] = 1
        G[:, [r for r, _ in free], [c for _, c in free]] = fills
        blocks.append(G.reshape(len(fills), k * L))
    flat = np.concatenate(blocks)
    return flat[np.lexsort(flat.T[::-1])].reshape(-1, k, L)


def _fail_masks(spec: FieldSpec, gens: np.ndarray, patterns) -> np.ndarray:
    """Per generator, the patterns its code cannot correct (`_fails`), as
    bits of uint64 words: bit i of word w is pattern 64 w + i."""
    L = gens.shape[2]
    kept = np.array([sum(1 << c for c in range(L) if c not in pat) for pat in patterns],
                    dtype=np.uint64)
    owners, supports = _supports(spec, gens, max(map(len, patterns), default=0))
    fails = np.zeros((len(gens), -(-len(patterns) // 64) * 64), dtype=bool)
    fails[:, :len(patterns)] = _fails(owners, supports, kept, len(gens))
    return np.packbits(fails, axis=1, bitorder="little").view("<u8")


def _first_ensemble(fails: np.ndarray, size: int, crowd: int, limit: int):
    """The first non-decreasing `size`-tuple of rows of `fails`, in
    lexicographic order, in which no pattern is failed by `crowd` members
    (with multiplicity), if it is among the first `limit` tuples: (its
    rows, its 1-based rank), or else (None, limit).

    Branch and bound, depth first: levels[j] holds the patterns failed by
    at least j chosen members (levels[0] every pattern).  A candidate that
    fails a pattern of levels[crowd - 1] fails every tuple it would join,
    and levels only grow down a branch, so one filter per node drops it
    from the node's whole subtree.  Ranks count pruned tuples too, in
    closed form.
    """
    n = len(fails)

    def before(lo: int, c: int, rest: int) -> int:
        # tuples whose member here lies in [lo, c), with `rest` members after it
        return math.comb(n - lo + rest, rest + 1) - math.comb(n - c + rest, rest + 1)

    def walk(rest, lo, cands, levels, start):
        # cands: the rows from lo on that the parent node let through
        cands = cands[~(fails[cands] & levels[-1]).any(axis=1)]
        for j, c in enumerate(cands.tolist()):
            at = start + before(lo, c, rest)  # tuples ahead of this subtree
            if at >= limit:
                return None
            if not rest:
                return [c], at + 1
            grown = levels.copy()
            grown[1:] |= levels[:-1] & fails[c]
            found = walk(rest - 1, c, cands[j:], grown, at)
            if found:
                return [c] + found[0], found[1]
        return None

    levels = np.zeros((crowd, fails.shape[1]), dtype=np.uint64)
    levels[0] = ~np.uint64(0)
    return walk(size - 1, 0, np.arange(n), levels, 0) or (None, limit)


def exhaustive_inner_search(spec: FieldSpec, L: int, delta_in, mu,
                            family_size: int, k: int | None = None,
                            budget: int = 10 ** 8) -> ErasureFamily:
    """First ensemble, in canonical order, meeting the family property.

    Candidate codes are enumerated one per subspace (RREF representatives
    in row-major integer order), and ensembles are non-decreasing tuples of
    those codes in lexicographic order.  The family property does not
    depend on member order, so the first hit is also the first in product
    order.  Each code's failed patterns come from its codeword supports
    (`_fail_masks`), and the tuples are walked by branch and bound
    (`_first_ensemble`).  SEARCH_STATS["ensembles_examined"] grows by the
    tuples covered in canonical order, pruned ones included: the hit's
    rank, or every tuple when the search is exhausted.  Deterministic;
    raises SearchExhausted when no ensemble of the requested size achieves
    worst failing fraction <= mu, and BudgetExceeded when the q^(k*L)
    candidate matrices or the ensembles to examine number more than
    `budget`.
    """
    delta_in = Fraction(delta_in)
    mu = Fraction(mu)
    if family_size < 1:
        raise EnsembleError(f"family size {family_size} is below 1")
    if not (0 <= delta_in < 1 and 0 <= mu < 1):
        raise EnsembleError("delta and mu must lie in [0, 1)")
    if k is None:
        k = L - math.floor(delta_in * L)
    if k < 1 or k > L:
        raise EnsembleError(f"inner dimension k = {k} out of range")
    if spec.q ** (k * L) > budget:
        raise BudgetExceeded("code enumeration space too large")
    gens = _rref_generators(spec, k, L)
    fails = _fail_masks(spec, gens, list(combinations(range(L), math.floor(delta_in * L))))
    SEARCH_STATS["calls"] += 1
    # an ensemble fails a pattern when more than mu * family_size of its
    # members (with multiplicity) fail it: some `crowd` of them share a bit
    crowd = math.floor(mu * family_size) + 1
    total = math.comb(len(gens) + family_size - 1, family_size)
    hit, covered = _first_ensemble(fails, family_size, crowd, min(budget, total))
    SEARCH_STATS["ensembles_examined"] += covered
    if hit is not None:
        return ErasureFamily([LinearCode(spec, gens[i].copy()) for i in hit], delta_in, mu)
    if covered < total:
        raise BudgetExceeded(f"more than {budget} ensembles to examine")
    raise SearchExhausted(
        f"no size-{family_size} ensemble of [{L},{k}] codes over "
        f"GF({spec.p}^{spec.m}) achieves mu = {mu}")


# ----------------------------------------------------------------------
# Manifest I/O: JSON with inline generators.
# ----------------------------------------------------------------------

def family_to_manifest(F: ErasureFamily, provenance: dict | None = None) -> dict:
    return {
        "field": {"p": F.spec.p, "m": F.spec.m,
                  "irreducible": list(F.spec.irreducible)},
        "n": F.n,
        "k": F.k,
        "delta": str(F.delta),
        "epsilon": str(F.epsilon),
        "codes": [code_to_text(c) for c in F.codes],
        "provenance": provenance or {},
    }


def fraction_from_text(text: str) -> Fraction:
    """A fraction written as text, as manifests and flags write them; any
    other value (a float is not exact) is rejected."""
    if not isinstance(text, str):
        raise TypeError(f"a fraction is written as a string, not {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def family_from_manifest(man: dict) -> ErasureFamily:
    if man.get("kind") == "family":  # a build-family construction manifest
        man = man["family"]
    codes = [code_from_text(t) for t in man["codes"]]
    return ErasureFamily(codes, fraction_from_text(man["delta"]),
                         fraction_from_text(man["epsilon"]))
