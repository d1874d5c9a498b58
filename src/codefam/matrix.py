"""
Dense linear algebra over finite fields.

Matrices are numpy int64 arrays of field-element encodings paired with a
FieldSpec.  Everything here is exact; there is no floating point anywhere.

Two performance paths for rank:
  * GF(2): rows are packed into Python ints (arbitrary-precision bitmasks)
    and elimination works with XOR on whole rows at once.
  * general q: vectorized elimination, clearing a whole pivot column per
    step with one table-lookup broadcast.

Gauss-Jordan in two passes: `_eliminate` is the forward pass to row
echelon form (all `rank` needs), `_reduce` the back pass that clears the
entries above each pivot, giving the reduced row echelon form.  `solve`
(one right-hand side or a matrix of them) and `kernel_basis` read their
answers straight off the reduced form.

`_extend_packed` and `_extend` grow an echelon basis one row at a time,
for scans that add vectors to a basis and take them off again.
"""

from __future__ import annotations

import numpy as np

from codefam.gf import FieldSpec


class NoSolution:
    """Sentinel: the linear system is inconsistent."""

    def __repr__(self):
        return "NO_SOLUTION"


class Underdetermined:
    """Sentinel: the system is consistent but the solution is not unique."""

    def __repr__(self):
        return "UNDERDETERMINED"


NO_SOLUTION = NoSolution()
UNDERDETERMINED = Underdetermined()


def as_matrix(spec: FieldSpec, rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= spec.q):
        raise ValueError("entry out of field range")
    return a


def pack_rows(a: np.ndarray) -> list[int]:
    """Pack GF(2) rows into ints; bit j of the int is column j."""
    packed = np.packbits(np.asarray(a, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def rank_packed(rows: list[int]) -> int:
    """Rank of bit-packed GF(2) rows.  Destroys nothing; copies the list."""
    pivots: list[int] = []
    r = 0
    for row in rows:
        for piv in pivots:
            low = piv & -piv
            if row & low:
                row ^= piv
        if row:
            pivots.append(row)
            r += 1
    return r


def _extend_packed(basis: list, rows) -> bool:
    """Add bit-packed GF(2) rows to an echelon basis of (row, lowest set bit)
    pairs, each row reduced as in `rank_packed`.  False at the first row
    that depends on the basis; the rows before it stay added."""
    for row in rows:
        for piv, low in basis:
            if row & low:
                row ^= piv
        if not row:
            return False
        basis.append((row, row & -row))
    return True


def _extend(spec: FieldSpec, basis: list, rows) -> bool:
    """`_extend_packed` over any field: rows are vectors, and the basis
    holds (pivot column, row scaled to 1 there) pairs."""
    for row in rows:
        for c, piv in basis:
            if row[c]:
                row = spec.sub(row, spec.mul(int(row[c]), piv))
        nz = np.flatnonzero(row)
        if not len(nz):
            return False
        c = int(nz[0])
        basis.append((c, spec.mul(row, spec.inv(int(row[c])))))
    return True


def _eliminate(spec: FieldSpec, a: np.ndarray):
    """Row-reduce a copy of `a` to row echelon form.

    Returns (echelon matrix, pivot column list).  Rows below the last
    pivot are zero.
    """
    m = a.copy()
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = spec.inv(int(m[r, c]))
        m[r] = spec.mul(m[r], inv)
        below = m[r + 1:, c]
        rows_nz = np.nonzero(below)[0]
        if len(rows_nz):
            factors = below[rows_nz]
            update = spec.mul(factors[:, None], m[r][None, :])
            m[r + 1 + rows_nz] = spec.sub(m[r + 1 + rows_nz], update)
        pivots.append(c)
        r += 1
    return m, pivots


def _reduce(spec: FieldSpec, ech: np.ndarray, pivots) -> np.ndarray:
    """Back pass: clear the entries above each pivot of an echelon form from
    `_eliminate`, in place, leaving its reduced row echelon form."""
    for r in range(len(pivots) - 1, 0, -1):
        block = ech[:r, pivots[r]:]
        if np.count_nonzero(block[:, 0]):
            block[:] = spec.sub(block, spec.mul(block[:, :1], ech[r, pivots[r]:]))
    return ech


def rank(spec: FieldSpec, a) -> int:
    a = as_matrix(spec, a)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    if spec.p == 2 and spec.m == 1:
        return rank_packed(pack_rows(a))
    _, pivots = _eliminate(spec, a)
    return len(pivots)


def matmul(spec: FieldSpec, a, b) -> np.ndarray:
    a = as_matrix(spec, a)
    b = as_matrix(spec, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if spec.m == 1:
        # exact: (p - 1)^2 * k < 2^63 for p < 2^16 and any k below 2^31
        return a @ b % spec.p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        colk = a[:, k]
        nz = np.nonzero(colk)[0]
        if len(nz) == 0:
            continue
        term = spec.mul(colk[nz][:, None], b[k][None, :])
        out[nz] = spec.add(out[nz], term)
    return out


def matvec(spec: FieldSpec, a, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return matmul(spec, a, x[:, None])[:, 0]


def solve(spec: FieldSpec, a, b):
    """Solve a @ x = b, where b is a vector or a matrix of right-hand sides
    (one per column).

    Returns the unique solution (shaped like b, with a's column count in
    place of its row count), NO_SOLUTION if any right-hand side is
    inconsistent, or UNDERDETERMINED if many solutions exist.
    """
    a = as_matrix(spec, a)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side shape mismatch")
    ncols = a.shape[1]
    rhs = b[:, None] if b.ndim == 1 else b
    ech, pivots = _eliminate(spec, np.concatenate([a, rhs], axis=1))
    if pivots and pivots[-1] >= ncols:
        return NO_SOLUTION
    if len(pivots) < ncols:
        return UNDERDETERMINED
    x = _reduce(spec, ech[:ncols], pivots)[:, ncols:]
    # a copy, so the solution does not hold the whole augmented matrix alive
    return (x[:, 0] if b.ndim == 1 else x).copy()


def kernel_basis(spec: FieldSpec, a) -> np.ndarray:
    """Basis (rows) of the right null space {x : a @ x = 0}: one row per
    free column f, with x[free] = e_f and x[pivots] = -R[:, f] for the
    reduced row echelon form R of a."""
    a = as_matrix(spec, a)
    ech, pivots = _eliminate(spec, a)
    R = _reduce(spec, ech, pivots)[:len(pivots)]
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[:, free] = identity(len(free))
    basis[:, pivots] = spec.neg(R[:, free]).T
    return basis


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
