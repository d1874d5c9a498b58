"""
Erasure code families: indexed ensembles of same-length linear codes in
which every bounded erasure pattern is correctable by all but a small
fraction of members.

Provides exact (exhaustive) and Monte Carlo family verification, random
sampling at the existence-lemma size, and a deterministic exhaustive
search for tiny inner ensembles.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np

from codefam import matrix as mx
from codefam.code import (LinearCode, UnitCode, corrects_pattern, code_to_text,
                          code_from_text)
from codefam.gf import FieldSpec, make_field


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
    notes: dict = field(default_factory=dict)


def _patterns(axes, sizes, start: int = 0):
    """Patterns with sizes[i] units on axis i, in lexicographic order."""
    if not axes:
        yield ()
        return
    n = axes[0][0]
    for head in combinations(range(start, start + n), sizes[0]):
        for tail in _patterns(axes[1:], sizes[1:], start + n):
            yield head + tail


def split_pattern(pat, axes) -> list[list[int]]:
    """The units a pattern erases on each axis, numbered from 0 per axis."""
    starts = accumulate((n for n, _, _ in axes), initial=0)
    return [[u - s for u in pat if s <= u < s + n] for (n, _, _), s in zip(axes, starts)]


def scan_patterns(axes, fail_fraction, mode: str = "exhaustive",
                  budget: int = 10 ** 7, rng_seed: int | None = None, *,
                  cost: int = 1, stop_at_failure: bool = False):
    """(worst fail fraction, smallest pattern reaching it, patterns tested).

    Each axis (n, lo, hi) is one kind of erasure unit; a pattern erases lo
    to hi of its n units, numbered after those of the earlier axes, and is
    one sorted tuple.  Exhaustive mode walks the patterns by size, then in
    lexicographic order, within `budget` rank checks (`cost` per pattern);
    it starts from the empty pattern at fraction 0, so with no failures it
    names none.  Monte Carlo mode draws `budget` patterns of the largest
    sizes.  stop_at_failure ends the scan at the first failing pattern.
    """
    if mode == "exhaustive":
        count = math.prod(sum(math.comb(n, s) for s in range(lo, hi + 1))
                          for n, lo, hi in axes) * cost
        if count > budget:
            raise BudgetExceeded(f"{count} rank checks exceed budget {budget}")
        pats = (pat for sizes in product(*(range(lo, hi + 1) for _, lo, hi in axes))
                for pat in _patterns(axes, sizes))
        witness = ()
    elif mode == "montecarlo":
        if rng_seed is None:
            raise EnsembleError("montecarlo mode requires rng_seed")
        rng = random.Random(rng_seed)
        starts = list(accumulate((n for n, _, _ in axes), initial=0))
        pats = (tuple(s + u for (n, _, hi), s in zip(axes, starts)
                      for u in sorted(rng.sample(range(n), hi)))
                for _ in range(budget))
        witness = None
    else:
        raise EnsembleError(f"unknown mode {mode!r}")
    worst = Fraction(0)
    tested = 0
    for pat in pats:
        frac = fail_fraction(pat)
        tested += 1
        if witness is None or frac > worst or (frac == worst and pat < witness):
            worst, witness = frac, pat
        if stop_at_failure and frac:
            break
    return worst, witness or (), tested


def verify_units(code: UnitCode, axes, mode: str = "exhaustive",
                 budget: int = 10 ** 5, rng_seed: int | None = None) -> VerifyReport:
    """The first pattern of the axes that `code` cannot correct, if any."""
    worst, witness, tested = scan_patterns(
        axes, lambda pat: 0 if code.corrects(pat) else 1, mode, budget, rng_seed,
        stop_at_failure=True)
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
    the worst per-pattern failing fraction is <= epsilon.
    """
    s = max_pattern_size(F)
    worst, witness, tested = scan_patterns(
        [(F.n, s, s)], lambda pat: failure_fraction(F, pat), mode, budget,
        rng_seed, cost=len(F.codes))
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
    rng = np.random.default_rng(rng_seed)
    codes = []
    for _ in range(t):
        while True:
            G = rng.integers(0, spec.q, size=(k, n), dtype=np.int64)
            if mx.rank(spec, G) == k:
                codes.append(LinearCode(spec, G))
                break
    return ErasureFamily(codes, delta, epsilon)


def _rref_generators(spec: FieldSpec, k: int, L: int) -> list[np.ndarray]:
    """All k x L generators in reduced row echelon form, in the canonical
    order induced by row-major integer enumeration.

    One RREF matrix per k-dimensional subspace, so enumerating these walks
    every [L, k] code exactly once.
    """
    q = spec.q
    out = []
    total = q ** (k * L)
    for v in range(total):
        flat = np.zeros(k * L, dtype=np.int64)
        t = v
        for i in range(k * L - 1, -1, -1):
            flat[i] = t % q
            t //= q
        G = flat.reshape(k, L)
        if _is_rref(spec, G):
            out.append(G)
    return out


def _is_rref(spec: FieldSpec, G: np.ndarray) -> bool:
    k, L = G.shape
    prev = -1
    for r in range(k):
        nz = np.nonzero(G[r])[0]
        if len(nz) == 0:
            return False
        lead = int(nz[0])
        if lead <= prev:
            return False
        if G[r, lead] != 1:
            return False
        col = G[:, lead]
        if np.count_nonzero(col) != 1:
            return False
        prev = lead
    return True


def exhaustive_inner_search(spec: FieldSpec, L: int, delta_in, mu,
                            family_size: int, k: int | None = None,
                            budget: int = 10 ** 8) -> ErasureFamily:
    """First ensemble, in canonical order, meeting the family property.

    Candidate codes are enumerated one per subspace (RREF representatives
    in row-major integer order), and ensembles are tuples of those codes
    in product order.  Deterministic; raises SearchExhausted when no
    ensemble of the requested size achieves worst failing fraction <= mu.
    """
    delta_in = Fraction(delta_in)
    mu = Fraction(mu)
    if k is None:
        k = L - math.floor(delta_in * L)
    if k < 1 or k > L:
        raise EnsembleError(f"inner dimension k = {k} out of range")
    if spec.q ** (k * L) > budget:
        raise BudgetExceeded("code enumeration space too large")
    gens = _rref_generators(spec, k, L)
    codes = [LinearCode(spec, G) for G in gens]
    s = math.floor(delta_in * L)
    patterns = list(combinations(range(L), s))
    # per-code correctable-pattern bitmask, shared across ensembles
    masks = []
    for c in codes:
        m = 0
        for idx, pat in enumerate(patterns):
            if corrects_pattern(c, pat):
                m |= 1 << idx
        masks.append(m)
    allowed_fails = mu * family_size
    SEARCH_STATS["calls"] += 1
    for combo in product(range(len(codes)), repeat=family_size):
        SEARCH_STATS["ensembles_examined"] += 1
        ok = True
        for idx in range(len(patterns)):
            bit = 1 << idx
            fails = sum(1 for ci in combo if not masks[ci] & bit)
            if fails > allowed_fails:
                ok = False
                break
        if ok:
            return ErasureFamily([codes[ci] for ci in combo], delta_in, mu)
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


def family_from_manifest(man: dict) -> ErasureFamily:
    if man.get("kind") == "family":  # a build-family construction manifest
        man = man["family"]
    codes = [code_from_text(t) for t in man["codes"]]
    return ErasureFamily(codes, Fraction(man["delta"]), Fraction(man["epsilon"]))


def save_family(F: ErasureFamily, path: str, provenance: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_manifest(F, provenance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_family(path: str) -> ErasureFamily:
    with open(path) as fh:
        return family_from_manifest(json.load(fh))
