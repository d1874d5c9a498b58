"""
Erasure code families: indexed ensembles of same-length linear codes in
which every bounded erasure pattern is correctable by all but a small
fraction of members.

Provides exact (exhaustive) and Monte Carlo family verification, random
sampling at the existence-lemma size, and a deterministic exhaustive
search for tiny inner ensembles.  Every certificate is one pattern scan
(`scan_patterns`), which tests patterns either against the codes' light
codeword supports, in bulk, or one at a time with `UnitCode.corrects`.
The supports are listed from every nonzero codeword (`_supports`): over
GF(2) as a span of bit-packed rows, built by XOR, and over other fields
as the product of the codeword lines with the generators.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, islice, product

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
# codes.  The support side lists every codeword of every code at once
# (over GF(2) 2^dim packed words per code, elsewhere lines x cells in one
# `matmul`) and tests each pattern against every light support; the
# per-pattern side makes one `UnitCode.corrects` call (2-6 us over GF(2))
# per pattern and code, and stops at a first failure without paying for
# supports.  Measured, supports vs per-pattern (2-core VM, Python 3.11.7,
# numpy 2.4.6, medians):
#   families, t = 32, full scans: GF(2) n = 16 2.5 vs 112 ms, n = 20
#     (2^14.3 per code) 45 vs 1,088 ms; GF(3) n = 16 33 vs 538 ms
#   one random code, full scans: GF(2) [32, 9..14] over 4,960 patterns
#     (2^14-2^19) 1.1-1.2 vs 9.4-10.5 ms, [32, 20] (2^25) 5.5 vs 10.8 ms
#   single-code benchmark checks, first failure ends them: nearly-MDS
#     (dim 12, 48 cells, 220 patterns, 2^17.6) 0.21 vs 0.77 ms
# The bound was set when GF(2) supports came from a `matmul` too (then
# nearly-MDS 5.9 vs 0.86 ms), and still leaves single-code checks
# per-pattern.  Since the packed listing the support side wins them over
# GF(2) unless one fails early, which the bound cannot see: random
# [48, 12..16] codes failing the first of those 220 patterns took
# 3.1-9.9 ms on supports, 0.05-0.08 ms per-pattern.  A family's bound
# grows with its size: GF(2) families at t = 32 are on the support side
# up to n = 28.  Off the benchmark, the per-pattern side costs about 3-5
# us per pattern on large exhaustive scans of one code (improved
# nearly-MDS, 96 cells, 10,626 patterns: 148-173 ms; random GF(2)
# [32, 16], 35,960 patterns: 119-174 ms), and a Monte Carlo scan of a
# large family lists its supports before its first draw (GF(2) n = 28,
# t = 32: 6.4 ms for 200 draws and 170 ms for 10^4, against 20 ms and
# 1.0 s per-pattern).
SUPPORT_SIDE_CELLS = 1 << 14

# Codewords that one chunk of `_supports` makes (over GF(2) packed words,
# 2^dim per generator; otherwise cells, lines x generators x cells, of
# one `matmul`), support x pattern tests that one chunk of `_fails`
# makes, and patterns in one run of `_scan_order`, whose erased-cell
# masks the support side builds as one uint64 array: 128 KB arrays of
# 8-byte items.  2^16 ran certify no faster (2-core VM, six 10 s runs)
# and raised its peak RSS by about 1 MB.
MASK_CHUNK_CELLS = 1 << 14


def _supports(spec: FieldSpec, gens: np.ndarray, most: int):
    """(owners, supports): the supports, as cell bitmasks, of the nonzero
    codewords of weight at most `most` of every generator in `gens` (n x k
    x L, L <= 64), one codeword per line, each with the index of the
    generator it comes from, grouped by generator in generator order.

    Over GF(2) each row packs into one uint64 (bit c is cell c) and a
    chunk of generators spans its 2^k codewords by doubling: those whose
    first nonzero message entry is j are row j XOR the span of the rows
    after it, one vectorized XOR per row for the whole chunk.  Over other
    fields the lines of `_lines` are multiplied by a chunk of the
    generators at a time, stacked side by side.  A G of lower rank than
    its rows keeps its zero codewords, which the caller rejects.
    """
    n, k, L = gens.shape
    bits = np.uint64(1) << np.arange(L, dtype=np.uint64)
    owners, supports = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint64)]
    if spec.q == 2:
        rows = gens.astype(np.uint64) @ bits
        step = max(1, MASK_CHUNK_CELLS >> k)
        for lo in range(0, n, step):
            chunk = rows[lo:lo + step]
            words = np.zeros((len(chunk), 1 << k), dtype=np.uint64)
            for j in range(k - 1, -1, -1):
                size = 1 << (k - 1 - j)
                np.bitwise_xor(words[:, :size], chunk[:, j, None], out=words[:, size:2 * size])
            light = np.bitwise_count(words) <= most
            light[:, 0] = False  # the zero message
            owners.append(np.nonzero(light)[0] + lo)
            supports.append(words[light])
    else:
        msgs = np.concatenate([np.zeros((0, k), dtype=np.int64), *_lines(spec.q, k)])  # k = 0: none
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
        # each owner's first support (np.diff with a prepend costs more)
        starts = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
        step = max(1, MASK_CHUNK_CELLS // len(supports))
        for lo in range(0, len(kept), step):
            inside = (supports[:, None] & kept[None, lo:lo + step]) == 0
            fails[owners[starts], lo:lo + step] = np.logical_or.reduceat(inside, starts, axis=0)
    return fails


def _on_supports(code: UnitCode, ncodes: int) -> bool:
    """Whether `scan_patterns` may test the codeword supports of this code,
    one of `ncodes`: a support fits a uint64, and its codeword lines x cells
    are at most SUPPORT_SIDE_CELLS times `ncodes`, since one `_supports`
    listing finds the supports of all the codes and each pattern is tested
    against all of them at once."""
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


def _scan_order(axes):
    """The exhaustive scan's patterns in scan order, as runs of at most
    MASK_CHUNK_CELLS equal-size patterns of one `_size_blocks` block.  A
    run is built as it is read, so a counter that stops early builds no
    pattern past the one it stops at."""
    for first, *rest in _size_blocks(axes):
        tails = [()]  # every choice of the later axes, after each of the first's
        for picks in map(list, rest):  # a list: it is read once per earlier tail
            tails = [t + p for t in tails for p in picks]
        pats = (h + t for h in first for t in tails) if rest else first
        while (head := next(pats, None)) is not None:
            yield chain((head,), islice(pats, MASK_CHUNK_CELLS - 1))


def _draws(axes, budget: int, rng_seed: int):
    """Monte Carlo mode's `budget` patterns of the largest sizes, drawn
    from random.Random(rng_seed) in doubling batches of at most 1,024, so
    that stop_at_failure draws at most twice the patterns it tests."""
    rng = random.Random(rng_seed)
    starts = list(accumulate((n for n, _, _ in axes), initial=0))
    drawn = 0
    while drawn < budget:
        batch = [tuple(s + u for (n, _, hi), s in zip(axes, starts)
                       for u in sorted(rng.sample(range(n), hi)))
                 for _ in range(min(max(drawn, 1), budget - drawn, 1024))]
        drawn += len(batch)
        yield batch


def _keep_worst(batches, stop: bool, drawn: bool):
    """(worst fail count, smallest pattern reaching it, patterns tested)
    over (patterns, how many codes fail each) batches, in scan order or as
    drawn; stop ends at the first failing pattern, and a counter that
    stops there too counts only the patterns up to it.  With no failure a
    scan names no pattern, and draws their smallest."""
    worst, witness, tested = 0, None if drawn else (), 0
    for pats, fails in batches:
        peak = max(fails)
        if stop and peak:
            j = next(j for j, f in enumerate(fails) if f)
            return fails[j], pats[j], tested + j + 1
        tested += len(fails)
        if peak < worst or not (peak or drawn):
            continue
        if drawn:  # draws come in no order
            hit = min(p for p, f in zip(pats, fails) if f == peak)
        else:  # within a block scan order is lexicographic: its first hit is its smallest
            hit = pats[fails.index(peak)]
        witness = hit if peak > worst or witness is None else min(witness, hit)
        worst = peak
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

    One loop serves both modes: a pattern source (`_scan_order` or
    `_draws`) gives batches of patterns, a failure counter counts the codes
    that fail each, and `_keep_worst` keeps the worst.  Two counters give
    the same answers.  When every code qualifies (`_on_supports`: at most
    64 cells and few codeword lines per code), each batch's erased cells
    are tested against the codes' light codeword supports at once
    (`_support_counter`).  Otherwise each pattern is checked with
    `UnitCode.corrects` per code, and under stop_at_failure no pattern
    after the first failing one is checked (nor, in exhaustive mode,
    built).
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
        counts, units = _support_counter(codes, axes), np.array(codes[0].units, dtype=np.uint64)

        def failing(pats):  # the cells each pattern erases, for all of them at once
            pats = list(pats)
            picks = np.fromiter(chain.from_iterable(pats), np.intp, len(pats) * len(pats[0]))
            erased = np.bitwise_or.reduce(units[picks.reshape(len(pats), -1)], axis=1)
            return pats, counts(erased).tolist()
    else:
        for c in codes:  # as `_support_counter` checks on the support side
            if len(c._echelon[0]) != c.dim:
                raise _rank_error(c)

        def failing(pats):  # under stop_at_failure, up to the first failing pattern only
            read, counts = [], []
            for pat in pats:
                read.append(pat)
                counts.append(sum(1 for c in codes if not c.corrects(pat)))
                if stop_at_failure and counts[-1]:
                    break
            return read, counts
    batches = _scan_order(axes) if mode == "exhaustive" else _draws(axes, budget, rng_seed)
    worst, witness, tested = _keep_worst(map(failing, batches), stop_at_failure,
                                         mode == "montecarlo")
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
