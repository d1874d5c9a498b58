"""
Non-bipartite graph codes on symmetric zero-diagonal matrices.

The outer code is the symmetric tensor square of a base code: codewords
A^T M A for symmetric message matrices M, with the diagonal blocks then
truncated to zero.  Concatenation with a small bipartite inner graph
code lifts each ell x ell block to a D x D block while preserving
symmetry (the lower triangle carries transposed encodings of the upper
triangle).  Decoding removes the few super-rows/columns that are too
damaged for the inner code and finishes with a block-erasure solve on
the outer code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from codefam import matrix as mx
from codefam.code import (LinearCode, DecodingFailure, UnitCode, expand_code,
                          grid_units, reed_solomon, unit_generator)
from codefam.ensemble import VerifyReport, split_pattern, verify_units
from codefam.gf import FieldSpec, _is_prime, make_field
from codefam.graphcode import BipartiteGraphCode


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

    def codeword(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return mx.matmul(self.spec, coeffs[None, :], self.G)[0].reshape(
            self.side, self.side)

    def basis_matrices(self):
        return [row.reshape(self.side, self.side) for row in self.G]


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

    def block(self, X: np.ndarray, i: int, j: int) -> np.ndarray:
        e = self.ell
        return X[i * e:(i + 1) * e, j * e:(j + 1) * e]


def build_outer_graph(q: int, n: int, ell: int, delta_prime,
                      verify: bool = True) -> OuterGraphCode:
    """Symmetric-tensor outer code from a Reed-Solomon base.

    The base is RS over F_{q^ell} of length n with distance
    floor(delta_prime * n) + 2, expanded to F_q.  When verify is set, the
    block-erasure rank criterion is checked for every S, T of size
    <= delta_prime * n.
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
    out = OuterGraphCode(q_spec, n, ell, space, base, delta_prime)
    if verify:
        s = math.floor(delta_prime * n)
        axes = [(n, 0, s), (n, 0, s)]
        # units: block rows, then block columns; the check has no budget
        blocks = UnitCode(q_spec, space.G, grid_units(n * ell, n * ell, ell), dim=space.dim)
        rep = verify_units(blocks, axes, budget=math.inf)
        if not rep.passed:
            S, T = split_pattern(rep.worst_pattern, axes)
            raise SymmetricCodeError(
                f"outer block rank check failed at S={tuple(S)}, T={tuple(T)}")
    return out


class SymmetricGraphCode:
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
        self.N = outer.n * D
        self.G = unit_generator(
            lambda e: self._encode_outer_word(outer.space.codeword(e)), outer.dim)
        self.dim = mx.rank(self.spec, self.G)
        if self.dim != outer.dim:
            raise SymmetricCodeError("concatenation lost dimension")
        # unit a is vertex a: erasing it erases row a and column a
        grid = grid_units(self.N, self.N)
        vertices = [grid[a] | grid[self.N + a] for a in range(self.N)]
        self.unit_code = UnitCode(self.spec, self.G, vertices, dim=self.dim)

    def _encode_outer_word(self, X: np.ndarray) -> np.ndarray:
        n, e, D = self.n, self.ell, self.D_in
        out = np.zeros((self.N, self.N), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                blk = self.outer.block(X, i, j)
                if i <= j:
                    enc = self.inner.encode_matrix(blk.reshape(-1))
                else:
                    enc = self.inner.encode_matrix(blk.T.reshape(-1)).T
                out[i * D:(i + 1) * D, j * D:(j + 1) * D] = enc
        return out

    def encode(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return mx.matmul(self.spec, coeffs[None, :], self.G)[0].reshape(
            self.N, self.N)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, math.comb(self.N, 2))


def concat_graph(outer: OuterGraphCode, inner: BipartiteGraphCode) -> SymmetricGraphCode:
    return SymmetricGraphCode(outer, inner)


def decode_graph(SGC: SymmetricGraphCode, received, E, F) -> np.ndarray:
    """Recover the outer coefficient vector from row erasures E and column
    erasures F (subsets of [N]).

    Super-rows with more than delta' * D_in erased rows go to E0 (same for
    columns and F0); every block outside E0 x F0 is inner-decoded and the
    outer code is solved on the recovered cells.
    """
    n, e, D = SGC.n, SGC.ell, SGC.D_in
    E = frozenset(E)
    F = frozenset(F)
    thresh = SGC.outer.delta_prime * D
    E0 = {i for i in range(n)
          if sum(1 for a in E if a // D == i) > thresh}
    F0 = {j for j in range(n)
          if sum(1 for b in F if b // D == j) > thresh}
    side = SGC.outer.side
    known_cols: list[int] = []
    known_vals: list[int] = []
    for i in range(n):
        if i in E0:
            continue
        Ei = sorted(a % D for a in E if a // D == i)
        for j in range(n):
            if j in F0 or i == j:
                continue
            Fj = sorted(b % D for b in F if b // D == j)
            blk = [[None if (a in Ei or b in Fj or
                             received[i * D + a][j * D + b] is None)
                    else int(received[i * D + a][j * D + b])
                    for b in range(D)] for a in range(D)]
            try:
                if i < j:
                    cell = SGC.inner.decode_matrix(blk, S=Ei, T=Fj).reshape(e, e)
                else:
                    blk_t = [[blk[a][b] for a in range(D)] for b in range(D)]
                    cell = SGC.inner.decode_matrix(
                        blk_t, S=Fj, T=Ei).reshape(e, e).T
            except DecodingFailure:
                continue
            for x in range(e):
                for y in range(e):
                    known_cols.append((i * e + x) * side + (j * e + y))
                    known_vals.append(int(cell[x, y]))
    A = SGC.outer.space.G[:, known_cols].T
    sol = mx.solve(SGC.spec, A, np.array(known_vals, dtype=np.int64))
    if sol is mx.NO_SOLUTION or sol is mx.UNDERDETERMINED:
        raise DecodingFailure("outer block-erasure solve failed")
    return sol


def verify_graph(SGC: SymmetricGraphCode, delta, mode: str = "exhaustive",
                 budget: int = 10 ** 5, rng_seed: int | None = None) -> VerifyReport:
    """Rank criterion over vertex erasure sets S (rows and columns both S):
    every S of size <= delta*N, or `budget` sampled S of that size."""
    if mode == "montecarlo" and rng_seed is None:
        raise SymmetricCodeError("montecarlo mode requires rng_seed")
    s = math.floor(Fraction(delta) * SGC.N)
    return verify_units(SGC.unit_code, [(SGC.N, 0, s)], mode, budget, rng_seed)
