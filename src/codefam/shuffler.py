"""
Seeded block assignments Ext: [N] x [D] -> [M] and their balance
certificates.

A shuffler distributes codeword positions into outer blocks, one
assignment per seed.  The extractor property itself is never tested;
what the downstream analysis consumes is only that for the survivor
sets it is handed, most seeds put close to |S|/M survivors into almost
every block.  That consequence is certified exactly, per instance.

Positions, seeds, and blocks are all 0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class ShufflerError(ValueError):
    pass


class SeedOutOfRange(ShufflerError):
    pass


class Indivisible(ShufflerError):
    pass


class Shuffler:
    """Total assignment table [N] x [D] -> [M]."""

    def __init__(self, N: int, D: int, M: int, table, kind: str = "custom",
                 params: dict | None = None):
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (D, N):
            raise ShufflerError(f"table shape {table.shape} != ({D},{N})")
        if N < M:
            raise ShufflerError("need N >= M")
        if table.size and (table.min() < 0 or table.max() >= M):
            raise ShufflerError("block index out of range")
        self.N = N
        self.D = D
        self.M = M
        self.table = table
        self.kind = kind
        self.params = dict(params or {})

    def blocks(self, z: int) -> list[list[int]]:
        """The partition S_0^z ... S_{M-1}^z, each in ascending order."""
        if not 0 <= z < self.D:
            raise SeedOutOfRange(f"seed {z} not in [0, {self.D})")
        out: list[list[int]] = [[] for _ in range(self.M)]
        for x in range(self.N):
            out[self.table[z, x]].append(x)
        return out

    def __repr__(self):
        return f"Shuffler(N={self.N}, D={self.D}, M={self.M}, kind={self.kind})"


@dataclass
class BalanceCertificate:
    seed_pass: list[bool]
    violations_per_seed: list[int]
    overall_pass: bool = False


def check_balance(sh: Shuffler, S, eps1, eps2, eps3) -> BalanceCertificate:
    """Per-seed balance of S across blocks.

    A seed passes when at most eps2*M blocks have |S_i^z intersect S|
    outside the window (1 +- eps3)|S|/M; the certificate passes overall
    when at most eps1*D seeds fail.  All comparisons are exact rationals.
    """
    eps1, eps2, eps3 = Fraction(eps1), Fraction(eps2), Fraction(eps3)
    S = frozenset(int(x) for x in S)
    if not S:
        raise ShufflerError("survivor set must be nonempty")
    if S and (min(S) < 0 or max(S) >= sh.N):
        raise ShufflerError("survivor positions out of range")
    target = Fraction(len(S), sh.M)
    lo = (1 - eps3) * target
    hi = (1 + eps3) * target
    seed_pass = []
    violations = []
    s_idx = np.array(sorted(S), dtype=np.int64)
    for z in range(sh.D):
        counts = np.bincount(sh.table[z, s_idx], minlength=sh.M)
        bad = sum(1 for i in range(sh.M) if not lo <= counts[i] <= hi)
        violations.append(bad)
        seed_pass.append(Fraction(bad) <= eps2 * sh.M)
    failing = sum(1 for p in seed_pass if not p)
    overall = Fraction(failing) <= eps1 * sh.D
    return BalanceCertificate(seed_pass, violations, overall)


def check_size_balance(sh: Shuffler, eps1, eps2, eps3) -> BalanceCertificate:
    """Balance of block sizes: check_balance with S = all of [N]."""
    return check_balance(sh, range(sh.N), eps1, eps2, eps3)


def make_round_robin(N: int, M: int) -> Shuffler:
    """Single-seed shuffler assigning N/M consecutive positions per block."""
    if N % M != 0:
        raise Indivisible(f"M = {M} does not divide N = {N}")
    row = np.repeat(np.arange(M, dtype=np.int64), N // M)
    return Shuffler(N, 1, M, row[None, :], kind="round_robin")


def make_seeded_random(N: int, M: int, D: int, rng_seed: int) -> Shuffler:
    """D random balanced assignments.

    Each seed draws a uniform permutation of [N] and chunks it into M
    blocks with sizes differing by at most one (the first N mod M blocks
    get the extra position), so size balance holds by construction.
    """
    rng = random.Random(rng_seed)
    base, extra = divmod(N, M)
    table = np.zeros((D, N), dtype=np.int64)
    for z in range(D):
        perm = list(range(N))
        rng.shuffle(perm)
        pos = 0
        for i in range(M):
            size = base + (1 if i < extra else 0)
            for x in perm[pos:pos + size]:
                table[z, x] = i
            pos += size
    return Shuffler(N, D, M, table, kind="seeded_random",
                    params={"rng_seed": rng_seed})


# ----------------------------------------------------------------------
# Serialization: header "N D M kind params", custom kind carries the table.
# ----------------------------------------------------------------------

def shuffler_to_text(sh: Shuffler) -> str:
    if sh.kind == "round_robin":
        return f"{sh.N} {sh.D} {sh.M} round_robin -\n"
    if sh.kind == "seeded_random":
        return f"{sh.N} {sh.D} {sh.M} seeded_random {sh.params['rng_seed']}\n"
    lines = [f"{sh.N} {sh.D} {sh.M} custom -"]
    for z in range(sh.D):
        lines.append(" ".join(str(int(b)) for b in sh.table[z]))
    return "\n".join(lines) + "\n"


def shuffler_from_text(text: str) -> Shuffler:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    N, D, M, kind, param = lines[0].split()
    N, D, M = int(N), int(D), int(M)
    if kind == "round_robin":
        return make_round_robin(N, M)
    if kind == "seeded_random":
        return make_seeded_random(N, M, D, int(param))
    table = np.array([[int(x) for x in lines[1 + z].split()] for z in range(D)],
                     dtype=np.int64)
    return Shuffler(N, D, M, table, kind="custom")
