"""
Bipartite graph codes on M x N matrices and their nearly-MDS
specialization.

A codeword matrix is produced by encoding a message with a row code
over F_{q^ell} (realized as interleaved Reed-Solomon codewords over a
smaller extension) and then encoding each row symbol into a length-N row by a
member of a column-erasure family.  Decoding tolerates the erasure of
whole rows and whole columns: surviving rows are column-decoded first,
rows whose column code fails become row-symbol erasures, and the row
code finishes the job.

The nearly-MDS path is the delta_row = 0 case with the matrix columns
re-read as symbols of F_{q^M}; the improved variant replaces the
column-erasure family with a single MDS code over a slightly larger
alphabet and a single outer code across all blocks of all seeds,
eliminating the ensemble search entirely.

Every code here is a `code.GridCode`: a `ConcatenatedCode` core whose
cells are read row-major as the codeword matrix, encoded by `encode`
and decoded by `decode(received, S, T)`.  Bipartite codes erase rows
(S) and columns (T), nearly-MDS codes columns only; `encode_matrix`,
`decode_matrix`, `encode_columns` and `decode_columns` are other names
for `encode` and `decode`.

The builders take every construction parameter as a required argument;
their defaults live in one place, `cli.GRAPH_FLAGS`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from codefam import matrix as mx
from codefam.code import (ConcatenatedCode, GridCode, InterleavedCode, InfeasibleAtDeskScale,
                          UnitCode, grid_units, reed_solomon)
from codefam.ensemble import ErasureFamily, _random_codes, verify_family
from codefam.gf import FieldSpec, _prime_power, make_field
from codefam.shuffler import make_seeded_random


class GraphCodeError(ValueError):
    pass


class RowCodeRS(InterleavedCode):
    """r interleaved Reed-Solomon codewords over F_{q^ell0}: row symbols of
    ell = r * ell0 q-ary digits; the message is k_row * ell q-ary digits.
    """

    def __init__(self, q_spec: FieldSpec, M: int, k_row: int, ell0: int, r: int):
        if q_spec.m != 1:
            raise GraphCodeError("row code requires a prime base alphabet")
        row_spec = make_field(q_spec.p, ell0)
        if row_spec.q < M:
            raise GraphCodeError(f"row alphabet q^{ell0} < M = {M}")
        super().__init__(reed_solomon(row_spec, k_row, M), r)
        self.M = M

    def decode_syms(self, syms: list) -> np.ndarray:
        """syms[i] is a length-ell digit vector or None; returns the message.
        Unused here; kept for perfbench's `graphcode.decode_syms` metric."""
        digits = np.array([np.zeros(self.ell) if s is None else s for s in syms],
                          dtype=np.int64)
        return self.decode_digits(digits, [s is not None for s in syms])


class BipartiteGraphCode(GridCode):
    """[M, N, delta_row, delta_col] graph code on M x N matrices over F_q; row
    symbol i is column-encoded onto row i, and decoding may erase rows and columns."""

    def __init__(self, q_spec: FieldSpec, M: int, N: int, delta_row, delta_col,
                 row: RowCodeRS, col_family: ErasureFamily, provenance=None):
        if col_family.n != N or col_family.k != row.ell:
            raise GraphCodeError("column family shape mismatch")
        if len(col_family) > M:
            raise GraphCodeError("column family larger than row count")
        if M % len(col_family) != 0:
            raise GraphCodeError("family size must divide M for repetition")
        self.M = M
        self.N = N
        self.delta_row = Fraction(delta_row)
        self.delta_col = Fraction(delta_col)
        self.row = row
        self.col_family = col_family
        self.k_total = row.k_total
        self.provenance = dict(provenance or {})
        super().__init__(ConcatenatedCode(
            row, [col_family.codes[self.assignment(i)] for i in range(M)],
            np.arange(M * N).reshape(M, N), M * N), (M, N), ("rows", "cols"))

    # other names of the GridCode methods, which perfbench calls and traces
    encode_matrix = GridCode.encode
    decode_matrix = GridCode.decode
    generator = GridCode.generator

    def assignment(self, i: int) -> int:
        """Row i uses column-family code i mod M0 (round-robin repetition)."""
        return i % len(self.col_family)

    @property
    def row_rate(self) -> Fraction:
        return self.row.rate

    @property
    def col_rate(self) -> Fraction:
        return Fraction(self.row.ell, self.N)

    def corrects(self, S=(), T=()) -> bool:
        """Rank criterion on the surviving submatrix, no codeword search."""
        return self.unit_code.corrects([*S, *(self.M + j for j in T)])


SAMPLING_ATTEMPTS = 200


def _sample_column_family(q_spec: FieldSpec, N: int, ell: int, size: int,
                          delta_col, eps_fam, rng_seed: int):
    """Random [N, ell] family passing exhaustive verification; resamples up
    to SAMPLING_ATTEMPTS times."""
    rng = np.random.default_rng(rng_seed)
    for attempt in range(SAMPLING_ATTEMPTS):
        fam = ErasureFamily(_random_codes(q_spec, ell, N, size, rng),
                            Fraction(delta_col), Fraction(eps_fam))
        if verify_family(fam, budget=10 ** 8).passed:
            return fam, attempt + 1
    raise InfeasibleAtDeskScale(
        f"no [{N},{ell}] family of size {size} found in {SAMPLING_ATTEMPTS} attempts")


def build_bipartite(q: int, M: int, N: int, delta_row, delta_col, eta, *,
                    rng_seed: int, ell: int, ell0: int, k_row: int,
                    family_size: int, eps_fam) -> BipartiteGraphCode:
    """Explicit-path bipartite graph code from desk-scale components.

    The row code is Reed-Solomon over F_{q^ell0} (q^ell0 >= M) interleaved to
    symbols of F_{q^ell}; the column family is sampled and exhaustively
    verified at (delta_col, eps_fam), then repeated round-robin over the
    rows.  Feasibility check: erased rows plus worst-case family-failing
    rows must stay within the row code's erasure tolerance.
    """
    q_spec = make_field(*_prime_power(q))
    if q_spec.m != 1:
        raise InfeasibleAtDeskScale("composite constructions require prime q")
    delta_row = Fraction(delta_row)
    delta_col = Fraction(delta_col)
    eta = Fraction(eta)
    if ell % ell0 != 0:
        raise GraphCodeError(f"ell = {ell} must be a multiple of ell0 = {ell0}")
    eps_fam = Fraction(eps_fam)
    erased = math.floor(delta_row * M)
    failing = math.floor(eps_fam * family_size) * (M // family_size)
    if erased + failing > M - k_row:
        raise InfeasibleAtDeskScale(
            f"row code [{M},{k_row}] cannot absorb {erased} erased + "
            f"{failing} family-failing rows")
    row = RowCodeRS(q_spec, M, k_row, ell0, ell // ell0)
    fam, attempts = _sample_column_family(q_spec, N, ell, family_size,
                                          delta_col, eps_fam, rng_seed)
    return BipartiteGraphCode(
        q_spec, M, N, delta_row, delta_col, row, fam,
        provenance={"rng_seed": rng_seed, "sampling_attempts": attempts,
                    "eps_fam": str(eps_fam), "eta": str(eta)})


class RandomMatrixCode:
    """Span of k uniformly random M x N matrices (existence-bound oracle)."""

    def __init__(self, q_spec: FieldSpec, M: int, N: int, k: int, rng_seed: int):
        rng = np.random.default_rng(rng_seed)
        self.M = M
        self.N = N
        self.G = rng.integers(0, q_spec.q, size=(k, M * N), dtype=np.int64)
        self.dim = mx.rank(q_spec, self.G)
        self.unit_code = UnitCode(q_spec, self.G, grid_units(M, N), dim=self.dim)

    def corrects(self, S=(), T=()) -> bool:
        return self.unit_code.corrects([*S, *(self.M + j for j in T)])


def sample_random_bipartite(q: int, M: int, N: int, rate, rng_seed: int) -> RandomMatrixCode:
    k = math.floor(Fraction(rate) * M * N)
    if k < 1:
        raise GraphCodeError("rate too small for a single generator")
    return RandomMatrixCode(make_field(*_prime_power(q)), M, N, k, rng_seed)


# ----------------------------------------------------------------------
# Nearly-MDS codes: delta_row = 0, columns bundled into F_{q^M} symbols.
# ----------------------------------------------------------------------

class _ColumnSymbols(GridCode):
    """The N columns of an M_rows x N codeword matrix as erasure units."""

    encode_columns = GridCode.encode
    decode_columns = GridCode.decode
    generator = GridCode.generator

    def corrects_columns(self, T=()) -> bool:
        return self.unit_code.corrects(T)


class NearlyMDSCode(_ColumnSymbols):
    """Column-symbol view of an M-row matrix code: alphabet F_Q, Q = q^M."""

    def __init__(self, inner: BipartiteGraphCode, M_rows: int, N: int, delta, eta):
        super().__init__(inner.core, (M_rows, N), ("cols",))
        self.inner = inner
        self.N = N
        self.delta = Fraction(delta)
        self.eta = Fraction(eta)
        self.k_total = inner.k_total


def build_nearly_mds(q: int, N: int, delta, eta, *, M: int, rng_seed: int,
                     ell: int, ell0: int, k_row: int, eps_fam) -> NearlyMDSCode:
    """Nearly-MDS code over F_{q^M}: the delta_row = 0 bipartite case."""
    inner = build_bipartite(q, M, N, 0, delta, eta, rng_seed=rng_seed,
                            ell=ell, ell0=ell0, k_row=k_row,
                            family_size=M, eps_fam=eps_fam)
    code = NearlyMDSCode(inner, M, N, delta, eta)
    if code.rate < 1 - code.delta - code.eta:
        raise InfeasibleAtDeskScale(
            f"instance rate {code.rate} below target {1 - code.delta - code.eta}")
    return code


class ImprovedNearlyMDSCode(_ColumnSymbols):
    """Single-inner-MDS, single-outer-code nearly-MDS construction.

    Codewords are D x N matrices over F_q; each row z is partitioned into
    M_b blocks of L positions by seed z of a shuffler.  A block carries a
    Reed-Solomon codeword over F_{q'}, q' = q^e the smallest power of q
    with enough elements for the block; a q-ary erasure marks its whole
    q'-symbol erased (pessimistic).  One outer Reed-Solomon code over
    F_{q^ell} spans all M_b * D blocks.  No ensemble search is performed.
    """

    search_enumerations = 0

    def __init__(self, q_spec: FieldSpec, N: int, delta, eta, M_b: int, D: int,
                 e: int, k_inner: int, k_out: int, rng_seed: int):
        if q_spec.m != 1:
            raise GraphCodeError("composite constructions require prime q")
        self.N = N
        self.delta = Fraction(delta)
        self.eta = Fraction(eta)
        self.D = D
        if N % M_b != 0:
            raise GraphCodeError("block count must divide N")
        L = N // M_b
        if L % e != 0:
            raise GraphCodeError("q'-symbol size must divide block length")
        L2 = L // e                                 # block length in q'-symbols
        inner_spec = make_field(q_spec.p, e)
        if inner_spec.q < L2:
            raise GraphCodeError(f"q' = {inner_spec.q} < block length {L2}")
        self.inner = reed_solomon(inner_spec, k_inner, L2)
        self.ell = k_inner * e                      # q-ary digits per block message
        self.outer = reed_solomon(make_field(q_spec.p, self.ell), k_out, M_b * D)
        sh = make_seeded_random(N, M_b, D, rng_seed)
        self.k_total = k_out * self.ell
        # block z*M_b + i carries its q'-ary digits on row z, columns sh.blocks(z)[i]
        cells = [[z * N + x for x in blk] for z in range(D) for blk in sh.blocks(z)]
        super().__init__(ConcatenatedCode(InterleavedCode(self.outer), [self.inner] * len(cells),
                                          cells, D * N), (D, N), ("cols",))


def build_nearly_mds_improved(q: int, N: int, delta, eta, *, M_b: int, D: int,
                              rng_seed: int) -> ImprovedNearlyMDSCode:
    """Improved nearly-MDS construction; derives all sizes from (N, delta).

    Inner: single RS over F_{q^e}, e the smallest exponent with
    q^e >= L / e for some divisor split of the block length L = N / M_b.
    Outer: single RS over F_{q^ell}, ell = k_inner * e, of length M_b * D
    (so only k_inner with q^ell >= M_b * D qualify) whose distance covers
    the worst case of floor(f / (inner erasure tolerance + 1)) failing
    blocks per seed, f = floor(delta * N).
    """
    q_spec = make_field(*_prime_power(q))
    delta = Fraction(delta)
    eta = Fraction(eta)
    if N % M_b != 0:
        raise InfeasibleAtDeskScale(f"M_b = {M_b} must divide N = {N}")
    L = N // M_b
    e = None
    for cand in range(1, L + 1):
        if L % cand == 0 and q ** cand >= L // cand:
            e = cand
            break
    if e is None:
        raise InfeasibleAtDeskScale("no q'-symbol size fits the block length")
    L2 = L // e
    f = math.floor(delta * N)
    best = None
    for k_inner in range(1, L2 + 1):
        if q ** (k_inner * e) < M_b * D:         # outer alphabet too small for its length
            continue
        tol = L2 - k_inner                       # inner erasure tolerance
        fail_per_seed = f // (tol + 1)
        total_fail = D * fail_per_seed
        k_out = M_b * D - total_fail
        if k_out < 1:
            continue
        rate = Fraction(k_out * k_inner * e, D * N)
        if best is None or rate > best[0]:
            best = (rate, k_inner, k_out)
    if best is None:
        raise InfeasibleAtDeskScale("no feasible inner dimension")
    rate, k_inner, k_out = best
    if rate < 1 - delta - eta:
        raise InfeasibleAtDeskScale(
            f"instance rate {rate} below target {1 - delta - eta}")
    return ImprovedNearlyMDSCode(q_spec, N, delta, eta, M_b, D, e,
                                 k_inner, k_out, rng_seed)
