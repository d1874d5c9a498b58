"""
Dense linear algebra over finite fields.

Matrices are numpy int64 arrays of field-element encodings paired with a
FieldSpec.  Everything here is exact; there is no floating point anywhere.

Gauss-Jordan in two passes: `_eliminate` is the forward pass to row
echelon form (all `rank` needs), `_reduce` the back pass that clears the
entries above each pivot, giving the reduced row echelon form.  `solve`
(one right-hand side or a matrix of them) and `kernel_basis` read their
answers straight off the reduced form.  Both passes have two paths,
chosen by the matrix's cell count; the reduced form is unique, so they
give the same answers:
  * below ROW_PATH_CELLS cells, rows are Python lists and each pivot step
    runs the field's row kernel (`FieldSpec._row_ops`: `f*row` and
    `dst - f*src` as one list comprehension each, on table lookups or
    arithmetic mod p).  At the sizes certificates and decoders meet
    (n <= 16) a numpy call costs more than the arithmetic it does.
  * from ROW_PATH_CELLS up, vectorized elimination clears a whole pivot
    column per step with one table-lookup broadcast.
ROW_PATH_CELLS = 512 is the measured crossover (2-core VM, numpy 2.4.6,
geometric mean over GF(2), GF(3), GF(4), GF(9), GF(13), GF(16),
GF(257), GF(2^10) and GF(3^6), per shape and operation): rows were
2.2-4.7x faster at 64 cells, 1.1-2.4x at 256, 0.9-1.5x at 512 and
0.6-1.1x at 1,024; tall matrices (many rows cleared per numpy call)
favour the array path first.
`rank` over GF(2) packs rows into Python ints (arbitrary-precision
bitmasks) and eliminates with XOR on whole rows at once, at any size.
`_rank_rows` ranks rows that are already lists, on the same crossover.

`_extend_packed` and `_extend` grow an echelon basis one row at a time,
for scans that add vectors to a basis and take them off again; `_extend`
runs the same row kernel on list rows.
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

# Matrices with fewer cells than this are eliminated on row lists (the
# measured crossover; see the module docstring).
ROW_PATH_CELLS = 512


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
    """`_extend_packed` over any field: rows are lists, and the basis
    holds (pivot column, row scaled to 1 there) pairs."""
    inverses, scale, sub_mul = spec._row_ops[:3]
    for row in rows:
        for c, piv in basis:
            if row[c]:
                row = sub_mul(row, row[c], piv)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            return False
        basis.append((c, row if row[c] == 1 else scale(inverses[row[c]], row)))
    return True


def _eliminate(spec: FieldSpec, a: np.ndarray):
    """Row-reduce a copy of `a` to row echelon form.

    Returns (echelon form, pivot column list): a list of row lists when `a`
    has fewer than ROW_PATH_CELLS cells, else an array.  Rows below the
    last pivot are zero.
    """
    if 0 < a.size < ROW_PATH_CELLS:  # an empty a keeps its shape as an array
        rows = a.tolist()
        return rows, _eliminate_rows(spec, rows)
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


def _eliminate_rows(spec: FieldSpec, m: list) -> list[int]:
    """`_eliminate` on a list of row lists, in place, with the field's row
    kernel; returns the pivot columns."""
    inverses, scale, sub_mul = spec._row_ops[:3]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0])):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        if piv[c] != 1:
            piv = m[r] = scale(inverses[piv[c]], piv)
        for i in range(r + 1, nrows):
            if m[i][c]:
                m[i] = sub_mul(m[i], m[i][c], piv)
        pivots.append(c)
        r += 1
    return pivots


def _rank_rows(spec: FieldSpec, rows: list) -> int:
    """`rank` of a list of equal-length row lists, which it may consume: on
    the row kernel below ROW_PATH_CELLS cells, as `_eliminate` chooses."""
    if not rows or not rows[0]:
        return 0
    if len(rows) * len(rows[0]) < ROW_PATH_CELLS:
        return len(_eliminate_rows(spec, rows))
    return rank(spec, rows)


def _reduce(spec: FieldSpec, ech, pivots):
    """Back pass: clear the entries above each pivot of an echelon form from
    `_eliminate`, in place, leaving its reduced row echelon form."""
    if isinstance(ech, list):
        sub_mul = spec._row_ops[2]
        for r in range(len(pivots) - 1, 0, -1):
            c, piv = pivots[r], ech[r]
            for i in range(r):
                if ech[i][c]:
                    ech[i] = sub_mul(ech[i], ech[i][c], piv)
        return ech
    for r in range(len(pivots) - 1, 0, -1):
        block = ech[:r, pivots[r]:]
        if np.count_nonzero(block[:, 0]):
            block[:] = spec.sub(block, spec.mul(block[:, :1], ech[r, pivots[r]:]))
    return ech


def rank(spec: FieldSpec, a) -> int:
    return _rank(spec, as_matrix(spec, a))


def _rank(spec: FieldSpec, a: np.ndarray) -> int:
    """`rank` of an int64 matrix whose entries are known to lie in the
    field, without `as_matrix`'s range check (a few microseconds, which
    matter to callers that rank many small restrictions of one checked
    matrix)."""
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
    aug = np.concatenate([a, rhs], axis=1)
    ech, pivots = _eliminate(spec, aug)
    if pivots and pivots[-1] >= ncols:
        return NO_SOLUTION
    if len(pivots) < ncols:
        return UNDERDETERMINED
    R = _reduce(spec, ech[:ncols], pivots)
    x = np.asarray(R, dtype=np.int64).reshape(ncols, aug.shape[1])[:, ncols:]
    # a copy, so the solution does not hold the whole augmented matrix alive
    return (x[:, 0] if b.ndim == 1 else x).copy()


def kernel_basis(spec: FieldSpec, a) -> np.ndarray:
    """Basis (rows) of the right null space {x : a @ x = 0}: one row per
    free column f, with x[free] = e_f and x[pivots] = -R[:, f] for the
    reduced row echelon form R of a."""
    a = as_matrix(spec, a)
    ech, pivots = _eliminate(spec, a)
    R = _reduce(spec, ech, pivots)[:len(pivots)]
    R = np.asarray(R, dtype=np.int64).reshape(len(pivots), a.shape[1])
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[:, free] = identity(len(free))
    basis[:, pivots] = spec.neg(R[:, free]).T
    return basis


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
