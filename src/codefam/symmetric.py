"""
Non-bipartite graph codes on symmetric zero-diagonal matrices.

The outer code is the symmetric tensor square of a base code: codewords
A^T M A for symmetric message matrices M, with the diagonal blocks then
truncated to zero.  The graph code concatenates it with a small square
bipartite graph code, and concatenations nest: the outer code, read as
one symbol per off-diagonal ell x ell block (`code.GroupedCode`), is the
outer half of a `code.ConcatenatedCode` whose inner code is the bipartite
code's own concatenation core.  Block (i, j) of the N x N codeword
carries outer block (min(i, j), max(i, j)); blocks below the diagonal
place their inner codeword transposed, so the codeword is symmetric, and
the diagonal blocks belong to no block symbol and stay zero.  The code
is a `code.GridCode` on N x N matrices: `encode` is the core's encoding,
and `decode` first lets `erase` add every row and column of the few
super-rows and super-columns too damaged for the inner code, then makes
one decode call on the core, which ends with a block-erasure solve on
the outer code.  `decode_graph` is another name for `decode`.

`build_symmetric` takes every construction parameter as a required
argument; their defaults live in `cli.GRAPH_FLAGS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from codefam import matrix as mx
from codefam.code import (ConcatenatedCode, GridCode, GroupedCode, LinearCode, UnitCode,
                          expand_code, grid_units, reed_solomon)
from codefam.ensemble import VerifyReport, split_pattern, verify_units
from codefam.gf import FieldSpec, _is_prime, make_field
from codefam.graphcode import BipartiteGraphCode, build_bipartite


class SymmetricCodeError(ValueError):
    pass


class RankDeficient(SymmetricCodeError):
    pass


class KernelNontrivial(SymmetricCodeError):
    pass


class MatrixSpaceCode:
    """F_q-linear space of side x side matrices, rows of G flattened row-major."""

    def __init__(self, spec: FieldSpec, side: int, G: np.ndarray):
        G = mx.as_matrix(spec, G)
        if G.shape[1] != side * side:
            raise SymmetricCodeError("generator width must be side^2")
        self.spec = spec
        self.side = side
        self.G = G
        self.dim = mx.rank(spec, G)


def symmetric_tensor(spec: FieldSpec, A) -> MatrixSpaceCode:
    """The code {A^T M A : M symmetric k x k}, dimension k(k+1)/2.

    Basis messages are E_ii and E_ij + E_ji; injectivity of M -> A^T M A
    follows from A having full row rank, which is checked.
    """
    A = mx.as_matrix(spec, A)
    k, s = A.shape
    if mx.rank(spec, A) != k:
        raise RankDeficient("base generator must have full row rank")
    rows = []
    for i in range(k):
        for j in range(i, k):
            M = np.zeros((k, k), dtype=np.int64)
            M[i, j] = 1
            M[j, i] = 1  # E_ii when i == j, E_ij + E_ji otherwise
            cw = mx.matmul(spec, mx.matmul(spec, A.T, M), A)
            rows.append(cw.reshape(-1))
    return MatrixSpaceCode(spec, s, np.stack(rows))


def truncate_diagonal(C: MatrixSpaceCode, n: int, ell: int) -> MatrixSpaceCode:
    """Zero every position inside the n diagonal ell x ell blocks.

    Raises KernelNontrivial when the truncation kills a nonzero codeword
    (the base code's distance was too small for the argument).
    """
    if C.side != n * ell:
        raise SymmetricCodeError(f"side {C.side} != n*ell = {n * ell}")
    G = C.G.copy()
    for i in range(n):
        for x in range(ell):
            for y in range(ell):
                G[:, (i * ell + x) * C.side + (i * ell + y)] = 0
    if mx.rank(C.spec, G) != C.dim:
        raise KernelNontrivial("diagonal truncation dropped the dimension")
    return MatrixSpaceCode(C.spec, C.side, G)


@dataclass
class OuterGraphCode:
    spec: FieldSpec
    n: int
    ell: int
    space: MatrixSpaceCode
    base: LinearCode
    delta_prime: Fraction

    @property
    def side(self) -> int:
        return self.n * self.ell

    @property
    def dim(self) -> int:
        return self.space.dim


def build_outer_graph(q: int, n: int, ell: int, delta_prime) -> OuterGraphCode:
    """Symmetric-tensor outer code from a Reed-Solomon base.

    The base is RS over F_{q^ell} of length n with distance
    floor(delta_prime * n) + 2, expanded to F_q.  The block-erasure rank
    criterion is checked for every S, T of size <= delta_prime * n.
    """
    delta_prime = Fraction(delta_prime)
    if not _is_prime(q):
        raise SymmetricCodeError("composite constructions require prime q")
    q_spec = make_field(q, 1)
    sym_spec = make_field(q, ell)
    if sym_spec.q < n:
        raise SymmetricCodeError(f"alphabet q^{ell} too small for length {n}")
    d_needed = math.floor(delta_prime * n) + 2
    k0 = n - d_needed + 1
    if k0 < 1:
        raise SymmetricCodeError("no base dimension gives the needed distance")
    base_big = reed_solomon(sym_spec, k0, n)
    base = expand_code(base_big, q_spec)         # k0*ell x n*ell over F_q
    space = truncate_diagonal(symmetric_tensor(q_spec, base.G), n, ell)
    s = math.floor(delta_prime * n)
    axes = [(n, 0, s), (n, 0, s)]
    # units: block rows, then block columns; the check has no budget
    blocks = UnitCode(q_spec, space.G, grid_units(n * ell, n * ell, ell), dim=space.dim)
    rep = verify_units(blocks, axes, budget=math.inf)
    if not rep.passed:
        S, T = split_pattern(rep.worst_pattern, axes)
        raise SymmetricCodeError(
            f"outer block rank check failed at S={tuple(S)}, T={tuple(T)}")
    return OuterGraphCode(q_spec, n, ell, space, base, delta_prime)


class SymmetricGraphCode(GridCode):
    """Concatenated symmetric graph code on N x N matrices, N = n * D_in."""

    def __init__(self, outer: OuterGraphCode, inner: BipartiteGraphCode):
        if inner.M != inner.N:
            raise SymmetricCodeError("inner graph code must be square")
        if inner.k_total != outer.ell ** 2:
            raise SymmetricCodeError(
                f"inner message size {inner.k_total} != ell^2 = {outer.ell ** 2}")
        D = inner.M
        if D & (D - 1):
            raise SymmetricCodeError("inner side must be a power of two")
        self.outer = outer
        self.inner = inner
        self.spec = outer.spec
        self.n = outer.n
        self.ell = outer.ell
        self.D_in = D
        self.N = N = outer.n * D
        e, side = outer.ell, outer.side
        pairs = [(i, j) for i in range(self.n) for j in range(self.n) if i != j]
        x, y = np.divmod(np.arange(e * e), e)      # digit (x, y) of an ell x ell block
        r, c = np.divmod(np.arange(D * D), D)      # cell (r, c) of an inner codeword
        cols = [(min(i, j) * e + x) * side + max(i, j) * e + y for i, j in pairs]
        cells = [(i * D + r) * N + j * D + c if i < j else (i * D + c) * N + j * D + r
                 for i, j in pairs]
        super().__init__(ConcatenatedCode(GroupedCode(self.spec, outer.space.G, cols),
                                          [inner.core] * len(pairs), cells, N * N),
                         (N, N), ("rows", "cols"))
        self.G = self.core.G
        self.dim = mx.rank(self.spec, self.G)
        if self.dim != outer.dim:
            raise SymmetricCodeError("concatenation lost dimension")
        # unit a is vertex a: erasing it erases row a and column a
        grid = grid_units(N, N)
        vertices = [grid[a] | grid[N + a] for a in range(N)]
        self.unit_code = UnitCode(self.spec, self.G, vertices, dim=self.dim)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, math.comb(self.N, 2))

    def erase(self, S, T):
        """Super-rows with more than delta' * D_in erased rows are erased
        whole (E0), and so are such super-columns (F0): their blocks are
        outer erasures, not inner decodes."""
        D, thresh = self.D_in, self.outer.delta_prime * self.D_in
        out = []
        for lost in (S, T):
            heavy = [i for i in range(self.n) if sum(a // D == i for a in lost) > thresh]
            out.append(lost.union(i * D + a for i in heavy for a in range(D)))
        return tuple(out)


def concat_graph(outer: OuterGraphCode, inner: BipartiteGraphCode) -> SymmetricGraphCode:
    return SymmetricGraphCode(outer, inner)


def build_symmetric(q: int, n: int, ell: int, delta_prime, D_in: int, eta, *,
                    rng_seed: int, inner_ell0: int, inner_k_row: int,
                    eps_fam) -> SymmetricGraphCode:
    """The outer code of build_outer_graph concatenated with a square
    D_in x D_in bipartite code of row and column erasure fraction delta_prime."""
    outer = build_outer_graph(q, n, ell, delta_prime)
    inner = build_bipartite(q, D_in, D_in, delta_prime, delta_prime, eta,
                            rng_seed=rng_seed, ell=ell, ell0=inner_ell0,
                            k_row=inner_k_row, family_size=D_in, eps_fam=eps_fam)
    return SymmetricGraphCode(outer, inner)


def decode_graph(SGC: SymmetricGraphCode, received, E, F) -> np.ndarray:
    """`SGC.decode` with row erasures E and column erasures F."""
    return SGC.decode(received, E, F)


def verify_graph(SGC: SymmetricGraphCode, delta, mode: str = "exhaustive",
                 budget: int = 10 ** 5, rng_seed: int | None = None) -> VerifyReport:
    """Rank criterion over vertex erasure sets S (rows and columns both S):
    every S of size <= delta*N, or `budget` sampled S of that size."""
    if mode == "montecarlo" and rng_seed is None:
        raise SymmetricCodeError("montecarlo mode requires rng_seed")
    s = math.floor(Fraction(delta) * SGC.N)
    return verify_units(SGC.unit_code, [(SGC.N, 0, s)], mode, budget, rng_seed)
