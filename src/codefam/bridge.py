"""
Duality between erasure code families and seeded linear maps.

The generator of each family member, read as a map x -> G_z x, is a
strong extractor for symbol-fixing sources exactly when the family has
the erasure property; the dual parity matrices form the matching
lossless condenser.  For linear maps on symbol-fixing sources the
per-seed error is degenerate: exactly zero (rank condition holds) or
l1 distance >= 1, so everything here is rank checks, with a brute-force
statistical-distance oracle for cross-validation at tiny sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from codefam import matrix as mx
from codefam.ensemble import ErasureFamily
from codefam.gf import FieldSpec


class BridgeError(ValueError):
    pass


class LinearSeededMap:
    """Per seed z, an m x n matrix G_z over a common field."""

    def __init__(self, spec: FieldSpec, maps: list[np.ndarray]):
        if not maps:
            raise BridgeError("need at least one seed")
        m, n = maps[0].shape
        for G in maps:
            if G.shape != (m, n):
                raise BridgeError("all seeds must share the map shape")
        self.spec = spec
        self.m = m
        self.n = n
        self.maps = [mx.as_matrix(spec, G) for G in maps]

    @property
    def D(self) -> int:
        return len(self.maps)

    def apply(self, z: int, x) -> np.ndarray:
        return mx.matvec(self.spec, self.maps[z], np.asarray(x, dtype=np.int64))


def family_to_extractor(F: ErasureFamily) -> LinearSeededMap:
    """Seed z maps x to G_z x, G_z the z-th member's generator."""
    return LinearSeededMap(F.spec, [c.G for c in F.codes])


def family_to_condenser(F: ErasureFamily) -> LinearSeededMap:
    """Seed z maps x to H_z x, H_z the dual parity of the z-th member: the
    n - k rows spanning the kernel of its full-rank G."""
    maps = [mx.kernel_basis(F.spec, c.G) for c in F.codes]
    if any(H.shape[0] == 0 for H in maps):
        raise BridgeError("rate-1 member has an empty parity matrix")
    return LinearSeededMap(F.spec, maps)


def _free(E: LinearSeededMap, free) -> list[int]:
    """A source's free positions, sorted and range-checked."""
    free = sorted(set(int(x) for x in free))
    if free and (free[0] < 0 or free[-1] >= E.n):
        raise BridgeError("free positions out of range")
    return free


def _rank_on_free(E: LinearSeededMap, free: list[int], dim: int) -> list[bool]:
    """Per seed: the map restricted to the free columns has rank `dim`.
    The maps were range-checked when E was made."""
    cols = np.array(free, dtype=np.intp)  # one index array for every seed
    return [mx._rank(E.spec, G[:, cols]) == dim for G in E.maps]


def extractor_error_on_source(E: LinearSeededMap, free) -> dict:
    """Per-seed exactness on the symbol-fixing source with the given free set.

    Seed z is exact (output uniform on F_q^m jointly with any fixing of
    the frozen coordinates) iff G_z restricted to the free columns has
    rank m.
    """
    exact = _rank_on_free(E, _free(E, free), E.m)
    failing = sum(1 for e in exact if not e)
    return {"exact": exact,
            "failing_fraction": Fraction(failing, len(exact))}


def condenser_lossless_check(C: LinearSeededMap, free) -> dict:
    """Seed z is lossless iff H_z restricted to the free columns is injective,
    i.e. has rank |free|."""
    free = _free(C, free)
    lossless = _rank_on_free(C, free, len(free))
    failing = sum(1 for e in lossless if not e)
    return {"lossless": lossless,
            "failing_fraction": Fraction(failing, len(lossless))}


def statistical_distance_oracle(E: LinearSeededMap, z: int, free,
                                fixed_values=None) -> Fraction:
    """Brute-force l1 distance between G_z(source) and uniform on F_q^m.

    Enumerates all q^|free| source points (bounded at 2^16) with the
    frozen coordinates fixed (zero by default; the distance depends only
    on the restricted rank, so the fixing never matters).
    """
    q = E.spec.q
    free = sorted(set(int(x) for x in free))
    if q ** len(free) > 1 << 16:
        raise BridgeError("source too large for brute-force enumeration")
    x = np.zeros(E.n, dtype=np.int64)
    if fixed_values is not None:
        for pos, val in fixed_values.items():
            x[pos] = val
    counts: dict[tuple, int] = {}
    total = q ** len(free)
    for vals in product(range(q), repeat=len(free)):
        for pos, val in zip(free, vals):
            x[pos] = val
        y = tuple(int(v) for v in E.apply(z, x))
        counts[y] = counts.get(y, 0) + 1
    m_total = q ** E.m
    uniform = Fraction(1, m_total)
    dist = Fraction(0)
    for c in counts.values():
        dist += abs(Fraction(c, total) - uniform)
    dist += uniform * (m_total - len(counts))
    return dist
