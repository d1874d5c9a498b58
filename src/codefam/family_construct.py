"""
Building an erasure code family from an outer code, an inner ensemble,
and a shuffler.

For each seed z the shuffler partitions the N codeword positions into M
blocks.  An outer codeword over F_{q^ell} is encoded blockwise by an
inner [L, ell] code; block i's inner symbols land on the positions of
S_i^z in ascending order.  Overfull blocks freeze their surplus
positions to zero; underfull blocks discard their surplus inner
symbols.  The family has one member per (seed, inner-code) pair and
rate exactly R_inner * R_outer.  Member (z, ci) is `member(p, z, ci)`,
a `code.GridCode` whose codewords are 1 x N matrices and whose decoding
erases no whole row or column (erasures are marked cell by cell);
`encode_member` and `decode_member` read and write plain length-N words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from codefam.code import (ConcatenatedCode, GridCode, InterleavedCode, LinearCode,
                          InfeasibleAtDeskScale, min_distance, symbol_digit_map,
                          TooLarge)
from codefam.ensemble import ErasureFamily, existence_params
from codefam.shuffler import Shuffler


class ParamMismatch(ValueError):
    pass


FROZEN = -1
DISCARDED = -1


class ShuffledFamilyParams:
    """Validated component bundle for the shuffled-family construction."""

    def __init__(self, outer: LinearCode, inner: ErasureFamily, sh: Shuffler,
                 delta, eta, epsilon):
        self.delta = Fraction(delta)
        self.eta = Fraction(eta)
        self.epsilon = Fraction(epsilon)
        q_spec = inner.spec
        if q_spec.m != 1:
            raise ParamMismatch("construction requires a prime base alphabet")
        ell = symbol_digit_map(outer.spec, q_spec)
        if inner.k != ell:
            raise ParamMismatch(
                f"inner dimension {inner.k} != outer alphabet exponent {ell}")
        M = outer.n
        L = inner.n
        if sh.M != M:
            raise ParamMismatch(f"shuffler block count {sh.M} != outer length {M}")
        if sh.N != L * M:
            raise ParamMismatch(f"shuffler N {sh.N} != L*M = {L * M}")
        self.outer = outer
        self.inner = inner
        self.sh = sh
        self.q_spec = q_spec
        self.ell = ell
        self.M = M
        self.L = L
        self.N = sh.N
        self.D = sh.D
        self._members: dict[tuple[int, int], GridCode] = {}

    @property
    def k_total(self) -> int:
        return self.outer.k * self.ell

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k_total, self.N)

    def outer_distance_certificate(self) -> dict:
        """Check outer relative distance > eta, by brute force when feasible.

        Reed-Solomon outer codes at infeasible sizes are recorded as
        analytically known (d = n - k + 1) rather than measured.
        """
        need = self.eta * self.M
        try:
            d = min_distance(self.outer)
            return {"distance": d, "required_gt": str(need),
                    "passed": Fraction(d) > need, "mode": "measured"}
        except TooLarge:
            return {"distance": None, "required_gt": str(need),
                    "passed": None, "mode": "assumed"}


class PlacementMap:
    """Per-seed mapping between inner-symbol slots and codeword positions.

    slot_to_pos[i, j] is the position carrying slot j of block i, or
    DISCARDED.  pos_block/pos_slot invert it, with FROZEN marking surplus
    positions of overfull blocks.
    """

    def __init__(self, sh: Shuffler, L: int, z: int):
        blocks = sh.blocks(z)
        M = sh.M
        self.L = L
        self.z = z
        self.slot_to_pos = np.full((M, L), DISCARDED, dtype=np.int64)
        self.pos_block = np.full(sh.N, FROZEN, dtype=np.int64)
        self.pos_slot = np.full(sh.N, FROZEN, dtype=np.int64)
        for i, blk in enumerate(blocks):
            for j, x in enumerate(blk):
                if j < L:
                    self.slot_to_pos[i, j] = x
                    self.pos_block[x] = i
                    self.pos_slot[x] = j
                # positions past slot L stay FROZEN

    def frozen_positions(self) -> list[int]:
        return [x for x in range(len(self.pos_block)) if self.pos_block[x] == FROZEN]

    def discarded_slots(self) -> list[tuple[int, int]]:
        M, L = self.slot_to_pos.shape
        return [(i, j) for i in range(M) for j in range(L)
                if self.slot_to_pos[i, j] == DISCARDED]


def placement(p: ShuffledFamilyParams, z: int) -> PlacementMap:
    return PlacementMap(p.sh, p.L, z)


def member(p: ShuffledFamilyParams, z: int, ci: int) -> GridCode:
    """Member (z, ci), a 1 x N GridCode: outer symbol i inner-encoded onto
    the slots of S_i^z.  Decoding inner-decodes each block against its
    missing slots (discarded slots count as erased), treats inner failures
    as outer erasures, then outer-decodes.  Built on first use and kept on p."""
    if not 0 <= ci < len(p.inner):
        raise ParamMismatch(f"inner code {ci} not in [0, {len(p.inner)})")
    code = p._members.get((z, ci))
    if code is None:
        code = p._members[z, ci] = GridCode(ConcatenatedCode(
            InterleavedCode(p.outer), [p.inner.codes[ci]] * p.M,
            placement(p, z).slot_to_pos, p.N), (1, p.N), ())
    return code


def encode_member(p: ShuffledFamilyParams, z: int, ci: int, msg) -> np.ndarray:
    """`member(p, z, ci).encode(msg)` as one length-N word."""
    return member(p, z, ci).encode(msg)[0]


def decode_member(p: ShuffledFamilyParams, z: int, ci: int, received) -> np.ndarray:
    """`member(p, z, ci).decode` of one length-N word, None marking erasures."""
    return member(p, z, ci).decode([received])


def member_generator(p: ShuffledFamilyParams, z: int, ci: int) -> np.ndarray:
    return member(p, z, ci).generator()


def build_family(p: ShuffledFamilyParams) -> ErasureFamily:
    """One LinearCode per (seed, inner-code) pair, indexed z * |inner| + ci."""
    codes = []
    for z in range(p.D):
        for ci in range(len(p.inner)):
            G = member_generator(p, z, ci)
            try:
                codes.append(LinearCode(p.q_spec, G))
            except ValueError as exc:
                raise ParamMismatch(
                    f"member (z={z}, ci={ci}) lost rank under placement: {exc}"
                ) from exc
    return ErasureFamily(codes, p.delta, p.epsilon)


def member_index(p: ShuffledFamilyParams, z: int, ci: int) -> int:
    return z * len(p.inner) + ci


@dataclass
class ConstructionPlan:
    q: int
    delta: Fraction
    eta: Fraction
    epsilon: Fraction
    delta_in: Fraction
    mu: Fraction
    balance_triple: tuple[Fraction, Fraction, Fraction]
    inner_size_min: int
    inner_n_min: int
    checklist: list[str] = field(default_factory=list)


def plan_parameters(q: int, delta, eta, epsilon) -> ConstructionPlan:
    """Desk-scale parameter skeleton for the shuffled-family construction.

    mu = epsilon * eta / 6, inner target delta_in = delta + 2*eta, and the
    balance tolerances (epsilon/3, eta/4, eta) for both the block-size and
    the survivor-set certificates.
    """
    delta, eta, epsilon = Fraction(delta), Fraction(eta), Fraction(epsilon)
    if delta + eta >= 1:
        raise InfeasibleAtDeskScale(f"delta + eta = {delta + eta} >= 1")
    if not (0 < epsilon < 1 and 0 < eta):
        raise InfeasibleAtDeskScale("need 0 < epsilon < 1 and eta > 0")
    mu = epsilon * eta / 6
    delta_in = delta + 2 * eta
    t_min, n_min = existence_params(q, delta_in, eta, mu)
    triple = (epsilon / 3, eta / 4, eta)
    checklist = [
        f"outer code: relative distance > eta = {eta}",
        f"inner family: [L, {delta_in}, {mu}] with >= {t_min} members, L >= {n_min}",
        f"shuffler size balance at (eps1, eps2, eps3) = "
        f"({triple[0]}, {triple[1]}, {triple[2]})",
        f"shuffler survivor balance at the same triple for every tested S",
        f"family verification: worst failing fraction <= epsilon = {epsilon}",
    ]
    return ConstructionPlan(q, delta, eta, epsilon, delta_in, mu, triple,
                            t_min, n_min, checklist)
