"""
F_q-linear block codes.

A LinearCode is a full-row-rank generator matrix over a FieldSpec.
Erasure correction is rank-characterized: a pattern S is correctable
exactly when the generator with the columns in S removed still has full
row rank, and decoding solves the linear system on the survivors (a
Reed-Solomon code interpolates its survivors instead).  Over every field
that rank is read off the generator's reduced row echelon form R, kept
once per code: rank G[:, S] = rank(G) - |P - S| + rank R[rows of P - S,
S - P] for R's pivot columns P (an information set), so a check eliminates
only the rows whose pivots S erases.

Positions and erasure patterns are 0-based throughout the library.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice, product

import numpy as np

from codefam import matrix as mx
from codefam.gf import FieldSpec, make_field


class CodeError(ValueError):
    pass


class LengthMismatch(CodeError):
    pass


class DimensionMismatch(CodeError):
    pass


class TooManyPoints(CodeError):
    pass


class DuplicatePoint(CodeError):
    pass


class TooLarge(CodeError):
    pass


class Infeasible(CodeError):
    pass


class InfeasibleAtDeskScale(ValueError):
    """A construction's parameters cannot be met at the sizes this library runs."""


class DecodingFailure(Exception):
    pass


BRUTE_FORCE_BOUND = 1 << 20


class UnitCode:
    """A generator whose cells (columns) group into erasable units.

    units[u] is the bitmask of the cells that erasing unit u erases: a
    position of a LinearCode, a row or column of a graph code, a column
    symbol, a vertex.  A set of erased units is correctable iff G
    restricted to the surviving cells keeps rank `dim` (default: the row
    count of G).

    The check reads the reduced row echelon form R of G, built once: row
    operations keep the rank of every column subset, and R's surviving
    pivot columns are unit vectors, so for the erased cells E, the pivot
    cells P and the survivors S,

        rank G[:, S] = rank(G) - |E & P| + rank R[rows of E & P, S - P]

    (P is an information set; Prange, 1962).  Only the rows whose pivots
    were erased are eliminated, and the answer is still an exact rank.
    Over GF(2) R's rows are packed into ints and ranked by `rank_packed`
    after one AND with the survivors; over any other field they are lists
    restricted to the free cells.
    """

    def __init__(self, spec: FieldSpec, G: np.ndarray, units: list[int],
                 dim: int | None = None):
        self.spec = spec
        self.G = G
        self.units = units
        self.dim = G.shape[0] if dim is None else dim

    @cached_property
    def H(self) -> np.ndarray:
        """Parity-check matrix, n - dim rows spanning the kernel of G
        (read-only, as it is shared).  A set of erased cells is correctable
        iff its columns of H are independent; built on first use, as only
        the condenser reads it."""
        H = mx.kernel_basis(self.spec, self.G)
        n = self.G.shape[1]
        if len(H) != n - self.dim:
            raise CodeError(f"G has rank {n - len(H)}, not dim = {self.dim}")
        H.flags.writeable = False
        return H

    @cached_property
    def _echelon(self) -> tuple[dict, int, list[int]]:
        """The reduced row echelon form R of G, once: its rank(G) nonzero
        rows keyed by their pivot cell's bit, the pivot cells as a mask,
        and the free (non-pivot) cells.  Over GF(2) a row is an int, bit c
        being cell c (XOR elimination, the lowest set bit the pivot);
        otherwise a list restricted to the free cells."""
        n = self.G.shape[1]
        if self.spec.q == 2:
            R: list[int] = []
            for row in mx.pack_rows(self.G):
                for piv in R:
                    if row & piv & -piv:
                        row ^= piv
                if row:
                    low = row & -row
                    R = [piv ^ row if piv & low else piv for piv in R] + [row]
            rows = {row & -row: row for row in R}
            pivots = sum(rows)
            return rows, pivots, [c for c in range(n) if not pivots >> c & 1]
        ech, pivots = mx._eliminate(self.spec, self.G)
        R = mx._reduce(self.spec, ech, pivots)[:len(pivots)]
        R = R.tolist() if isinstance(R, np.ndarray) else R
        piv = set(pivots)
        free = [c for c in range(n) if c not in piv]
        return ({1 << c: [row[f] for f in free] for row, c in zip(R, pivots)},
                sum(1 << c for c in pivots), free)

    def corrects(self, erased) -> bool:
        """Whether G keeps rank `dim` on the cells the erased units leave."""
        mask = 0
        for u in erased:
            if not 0 <= u < len(self.units):
                raise CodeError(f"erased unit {u} out of range for {len(self.units)} units")
            mask |= self.units[u]
        n = self.G.shape[1]
        if n - mask.bit_count() < self.dim:
            return False
        rows, pivots, free = self._echelon
        lost, hit = [], mask & pivots
        while hit:  # the rows whose pivots are erased
            low = hit & -hit
            lost.append(rows[low])
            hit ^= low
        need = self.dim - len(rows) + len(lost)  # the rank the lost rows must keep
        if not 0 <= need <= len(lost):
            return False
        if self.spec.q == 2:
            return mx.rank_packed([row & ~mask for row in lost]) == need
        keep = [j for j, c in enumerate(free) if not mask >> c & 1]
        return mx._rank_rows(self.spec, [[row[j] for j in keep] for row in lost]) == need


def grid_units(rows: int, cols: int, block: int = 1) -> list[int]:
    """Units of a row-major rows x cols cell grid: the row units, then the
    column units, each unit `block` consecutive rows or columns."""
    row_unit = (1 << (cols * block)) - 1
    col_unit = sum(((1 << block) - 1) << (r * cols) for r in range(rows))
    return ([row_unit << (u * block * cols) for u in range(rows // block)]
            + [col_unit << (u * block) for u in range(cols // block)])


def unit_generator(encode_fn, k: int) -> np.ndarray:
    """Generator whose row r is the flattened encoding of unit message e_r."""
    return np.stack([np.asarray(encode_fn(e)).reshape(-1)
                     for e in np.eye(k, dtype=np.int64)])


class LinearCode:
    """[n, k] linear code over GF(q), held as a k x n generator matrix."""

    def __init__(self, spec: FieldSpec, G):
        G = mx.as_matrix(spec, G)
        k, n = G.shape
        if k < 1 or n < 1:
            raise CodeError("generator must be nonempty")
        if mx.rank(spec, G) != k:
            raise CodeError("generator matrix is not full row rank")
        self.spec = spec
        self.k = k
        self.n = n
        self.G = G
        self.unit_code = UnitCode(spec, G, [1 << i for i in range(n)])

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    def decode(self, received) -> np.ndarray:
        return erasure_decode(self, received)

    def _solve(self, cols, vals, failure: str):
        """The message whose codeword reads vals at positions cols (vals a
        vector, or an array with one row of r values per position: r
        codewords sharing their survivors); DecodingFailure(failure) when
        the survivors do not pin down one message."""
        return _solve_erasures(self.spec, self.G, cols, vals, failure)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.spec.p}^{self.spec.m}))"


class ReedSolomonCode(LinearCode):
    """A Reed-Solomon code that keeps its evaluation points: row i of G is
    points^i, so a message is the coefficient vector (low to high) of the
    polynomial of degree < k whose values at the points are its codeword,
    and erasure decoding interpolates instead of eliminating.

    `_solve` takes the first k survivors' Newton divided differences,
    c_i = f[x_0, ..., x_i], and expands the Newton form
    c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)) in place into monomial
    coefficients; the word is consistent iff the other survivors' values
    agree with Horner evaluation.  O(k^2) field operations per word on the
    field's list tables (`FieldSpec._row_ops`) in place of an elimination of
    G[:, survivors]^T (Gathen and Gerhard, Modern Computer Algebra, 5.2).
    """

    def __init__(self, spec: FieldSpec, k: int, points: list[int]):
        G = np.zeros((k, len(points)), dtype=np.int64)
        for j, x in enumerate(points):
            for i in range(k):
                G[i, j] = spec.pow(x, i)
        super().__init__(spec, G)
        self.points = points

    def _solve(self, cols, vals, failure: str):
        k = self.k
        if len(cols) < k:
            raise DecodingFailure(failure)
        inverses, _, _, sub, mul = self.spec._row_ops
        xs = [self.points[c] for c in cols]
        matrix = isinstance(vals, np.ndarray) and vals.ndim == 2
        columns = vals.T.tolist() if matrix else [[int(v) for v in vals]]
        minus_x = [sub(0, x) for x in xs[k:]]
        out = []
        for ys in columns:
            c = ys[:k]
            for j in range(1, k):  # order j: c_i = (c_i - c_{i-1}) / (x_i - x_{i-j})
                for i in range(k - 1, j - 1, -1):
                    c[i] = mul(sub(c[i], c[i - 1]), inverses[sub(xs[i], xs[i - j])])
            for j in range(k - 2, -1, -1):  # c_j + (x - x_j)(c_{j+1} + ...), from the inside out
                x = xs[j]
                for i in range(j, k - 1):
                    c[i] = sub(c[i], mul(x, c[i + 1]))
            for nx, y in zip(minus_x, ys[k:]):
                v = 0
                for a in reversed(c):
                    v = sub(a, mul(nx, v))  # a + x*v
                if v != y:
                    raise DecodingFailure(failure)
            out.append(c)
        return np.array(out, dtype=np.int64).T.copy() if matrix else np.array(out[0], dtype=np.int64)


def encode(C: LinearCode, msg) -> np.ndarray:
    msg = np.asarray(msg, dtype=np.int64)
    if msg.shape != (C.k,):
        raise LengthMismatch(f"message length {msg.shape} != k={C.k}")
    return mx.matmul(C.spec, msg[None, :], C.G)[0]


def corrects_pattern(C: LinearCode, pat) -> bool:
    """True iff the generator restricted to surviving columns has rank k."""
    return C.unit_code.corrects(pat)


def erasure_decode(C: LinearCode, received):
    """Recover the message from a codeword with None marking erasures.

    Raises DecodingFailure when the surviving positions do not pin down a
    unique message, and CodeError for a received symbol outside [0, q).
    """
    if len(received) != C.n:
        raise LengthMismatch(f"received length {len(received)} != n={C.n}")
    surv = [i for i, v in enumerate(received) if v is not None]
    vals = [int(received[i]) for i in surv]
    if vals and (min(vals) < 0 or max(vals) >= C.spec.q):
        raise CodeError(f"received symbols must lie in [0, {C.spec.q})")
    return C._solve(surv, vals, f"erasure pattern of size {C.n - len(surv)} uncorrectable")


def _solve_erasures(spec: FieldSpec, G: np.ndarray, cols, vals, failure: str):
    """The unique x with G[:, cols]^T x = vals (a vector, or a matrix with one
    right-hand side per column); DecodingFailure(failure) otherwise."""
    x = mx.solve(spec, G[:, cols].T, np.asarray(vals, dtype=np.int64))
    if x is mx.NO_SOLUTION or x is mx.UNDERDETERMINED:
        raise DecodingFailure(failure)
    return x


def _lines(q: int, k: int, rows: int = 1 << 16):
    """Every length-k message whose first nonzero entry is 1, one per line
    of F_q^k ((q^k - 1) / (q - 1) of them), by the position of that entry,
    then in lexicographic order; yielded in chunks of at most `rows` rows.
    q^(k-1-j) lines lead with entry j, and it is entry j's place value in
    a line's offset past the first of them."""
    sizes = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    for lo in range(0, total, rows):
        idx = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        lead = np.searchsorted(starts, idx, side="right") - 1
        chunk = (idx - starts[lead])[:, None] // sizes % q  # 0 up to the lead
        chunk[np.arange(len(idx)), lead] = 1
        yield chunk


def min_distance(C: LinearCode) -> int:
    """Minimum Hamming weight over nonzero codewords.

    When q^k is small, the least weight of the codewords of `_lines` (one
    per line: a scalar multiple has the same weight).  Otherwise, when 2^n
    is small, the size of the first pattern that `scan_patterns` finds
    uncorrectable: the distance is the smallest size of an uncorrectable
    pattern, and the scan runs by size.
    """
    q, k, n = C.spec.q, C.k, C.n
    if q ** k <= BRUTE_FORCE_BOUND:
        best = n
        for msgs in _lines(q, k):
            best = min(best, int(np.count_nonzero(mx.matmul(C.spec, msgs, C.G), axis=1).min()))
            if best == 1:
                break
        return best
    if 2 ** n <= BRUTE_FORCE_BOUND:
        from codefam.ensemble import scan_patterns
        _, witness, _ = scan_patterns([(n, 1, n)], [C.unit_code], budget=BRUTE_FORCE_BOUND,
                                      stop_at_failure=True)
        return len(witness)
    raise TooLarge(f"q^k = {q}^{k} and 2^n both exceed the brute-force bound")


def reed_solomon(spec: FieldSpec, k: int, n: int, points=None) -> ReedSolomonCode:
    """RS code: G[i, j] = points[j]^i (row i = coefficient of x^i).

    Default evaluation points are the first n field elements in canonical
    encoding order.
    """
    if n > spec.q:
        raise TooManyPoints(f"n={n} exceeds field size q={spec.q}")
    if not 1 <= k <= n:
        raise CodeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if points is None:
        points = list(range(n))
    points = [int(x) for x in points]
    if len(set(points)) != len(points):
        raise DuplicatePoint("evaluation points must be distinct")
    if len(points) != n:
        raise LengthMismatch("need exactly n evaluation points")
    return ReedSolomonCode(spec, k, points)


def symbol_digit_map(outer_spec: FieldSpec, inner_spec: FieldSpec) -> int:
    """Number of inner-alphabet symbols per outer symbol.

    Outer symbols decompose into base-p digits grouped inner_spec.m at a
    time.  The decomposition is additive for any pair of fields with the
    same characteristic, and fully scalar-linear over the inner alphabet
    when that alphabet is the prime field.  Composite constructions in
    this library therefore fix a prime inner alphabet.
    """
    if outer_spec.p != inner_spec.p:
        raise DimensionMismatch("fields must share characteristic")
    if outer_spec.m % inner_spec.m != 0:
        raise DimensionMismatch(
            f"inner degree {inner_spec.m} does not divide outer degree {outer_spec.m}")
    return outer_spec.m // inner_spec.m


def split_symbols(outer_spec: FieldSpec, inner_spec: FieldSpec, vec) -> np.ndarray:
    """Expand outer-field symbols into inner-field symbol vectors."""
    ell = symbol_digit_map(outer_spec, inner_spec)
    vec = np.asarray(vec, dtype=np.int64)
    digits = outer_spec.to_digits(vec)            # (..., outer m)
    chunks = digits.reshape(vec.shape + (ell, inner_spec.m))
    return np.asarray(inner_spec.from_digits(chunks)).reshape(vec.shape[:-1] + (-1,))


def join_symbols(outer_spec: FieldSpec, inner_spec: FieldSpec, vec) -> np.ndarray:
    """Inverse of split_symbols."""
    ell = symbol_digit_map(outer_spec, inner_spec)
    vec = np.asarray(vec, dtype=np.int64)
    chunks = inner_spec.to_digits(vec.reshape(-1, ell))   # (n_out, ell, inner m)
    digits = chunks.reshape(-1, outer_spec.m)
    return np.asarray(outer_spec.from_digits(digits)).reshape(-1)


class InterleavedCode:
    """r interleaved codewords of a base code over F_{p^ell0}, read as n
    symbols of ell = r * ell0 base-p digits: the outer half of a concatenation.

    Message digit (i, t, d) (row-major, i < k, t < r, d < ell0) is digit d
    of message symbol i of codeword t; symbol b of the result is digits
    (t, d) of symbol b of codeword t.  Length, rate and correctable
    patterns are the base code's; interleaving only enlarges the alphabet.
    """

    def __init__(self, base: LinearCode, r: int = 1):
        if r < 1:
            raise CodeError("interleaving factor must be >= 1")
        self.base = base
        self.spec = base.spec
        self.r = r
        self.ell0 = base.spec.m
        self.ell = r * self.ell0
        self.n = base.n
        self.k_total = base.k * self.ell

    @property
    def rate(self) -> Fraction:
        return self.base.rate

    def _digits_to_syms(self, digits: np.ndarray) -> np.ndarray:
        """(..., ell) digits -> (..., r) base-field elements."""
        grouped = digits.reshape(digits.shape[:-1] + (self.r, self.ell0))
        return np.asarray(self.spec.from_digits(grouped))

    def _syms_to_digits(self, syms: np.ndarray) -> np.ndarray:
        return self.spec.to_digits(syms).reshape(syms.shape[:-1] + (self.ell,))

    def encode_syms(self, msg) -> np.ndarray:
        """Message of k_total digits -> (n, ell) symbol digits."""
        msg = np.asarray(msg, dtype=np.int64).reshape(self.base.k, self.ell)
        cw = mx.matmul(self.spec, self._digits_to_syms(msg).T, self.base.G)
        return self._syms_to_digits(cw.T)

    def decode_digits(self, digits: np.ndarray, known) -> np.ndarray:
        """(n, ell) symbol digits of which those with known[b] survive -> message;
        the r codewords share their survivors, so one solve decodes them all."""
        surv = np.flatnonzero(known)
        msg = self.base._solve(surv, self._digits_to_syms(digits)[surv],
                               f"erasure pattern of size {self.n - len(surv)} uncorrectable")
        return self._syms_to_digits(msg).reshape(-1)


class GroupedCode:
    """An F_p-linear code read as n symbols: symbol b is the ell digits in
    columns cols[b] of msg @ G.  The outer half of a concatenation whose
    outer code is not an interleaved code over a larger field."""

    def __init__(self, spec: FieldSpec, G: np.ndarray, cols):
        self.spec = spec
        self.G = G
        self.cols = np.asarray(cols, dtype=np.int64)
        self.n, self.ell = self.cols.shape
        self.k_total = G.shape[0]

    def encode_syms(self, msg) -> np.ndarray:
        """Message of k_total digits -> (n, ell) symbol digits."""
        msg = np.asarray(msg, dtype=np.int64)
        return mx.matmul(self.spec, msg[None, :], self.G)[0][self.cols]

    def decode_digits(self, digits: np.ndarray, known) -> np.ndarray:
        """(n, ell) symbol digits of which those with known[b] survive -> message."""
        known = np.flatnonzero(known)
        return _solve_erasures(self.spec, self.G, self.cols[known].reshape(-1),
                               digits[known].reshape(-1), "outer block-erasure solve failed")


class ConcatenatedCode:
    """Outer code, inner codes and a cell placement (Forney concatenation).

    Block b carries outer symbol b (ell digits) as a codeword of
    inners[b] over F_{p^e}, every inner sharing (spec, n, k) with
    k * e = ell.  Base-p digit j of that codeword lands on cell
    cells[b, j]; -1 discards it, and a cell outside every block holds 0.

    Decoding erases an inner symbol when any of its digits is missing,
    turns a block whose inner code cannot recover it into an outer
    erasure (without a decode when fewer than k of its symbols survive)
    and solves the outer code on the rest.

    The result is an [n, k] code over F_p (n cells, k message digits,
    generator G), so it can be the inner code of another concatenation.
    """

    def __init__(self, outer: InterleavedCode | GroupedCode,
                 inners: list[LinearCode | ConcatenatedCode], cells, n_cells: int):
        inner = inners[0]
        self.e = inner.spec.m
        self.cells = np.asarray(cells, dtype=np.int64)
        if len(inners) != outer.n or any(
                (c.spec, c.n, c.k) != (inner.spec, inner.n, inner.k) for c in inners):
            raise DimensionMismatch(f"need {outer.n} inner codes of one shape")
        if inner.spec.p != outer.spec.p or inner.k * self.e != outer.ell:
            raise DimensionMismatch(
                f"inner [{inner.n},{inner.k}] over GF({inner.spec.q}) does not "
                f"carry {outer.ell}-digit outer symbols")
        if self.cells.shape != (outer.n, inner.n * self.e) or not (
                (-1 <= self.cells) & (self.cells < n_cells)).all():
            raise DimensionMismatch("cell map does not fit the blocks")
        self.outer = outer
        self.inners = inners
        self.spec = make_field(inner.spec.p, 1)
        self.n = n_cells
        self.k = outer.k_total
        self._placed = self.cells >= 0
        self._targets = self.cells[self._placed]
        groups: dict[LinearCode | ConcatenatedCode, list[int]] = {}
        for b, c in enumerate(inners):
            groups.setdefault(c, []).append(b)
        self._groups = [(c, np.array(blocks)) for c, blocks in groups.items()]

    @cached_property
    def G(self) -> np.ndarray:
        return unit_generator(self.encode, self.k)

    def encode(self, msg) -> np.ndarray:
        """Message of k digits -> codeword of n digits."""
        inner = self.inners[0]
        B, sym = len(self.inners), inner.spec
        syms = sym.from_digits(self.outer.encode_syms(msg).reshape(B, inner.k, self.e))
        words = np.empty((B, inner.n), dtype=np.int64)
        for c, blocks in self._groups:
            words[blocks] = mx.matmul(sym, syms[blocks], c.G)
        out = np.zeros(self.n, dtype=np.int64)
        out[self._targets] = sym.to_digits(words).reshape(B, -1)[self._placed]
        return out

    def decode(self, received) -> np.ndarray:
        """received: n digits, None marking an erased cell."""
        inner = self.inners[0]
        B, n, k, sym = len(self.inners), inner.n, inner.k, inner.spec
        # cell -1 (discarded) reads the appended always-erased cell
        known = np.array([v is not None for v in received] + [False])
        vals = np.array([0 if v is None else v for v in received] + [0], dtype=np.int64)
        sym_known = known[self.cells].reshape(B, n, self.e).all(axis=2)
        syms = sym.from_digits(vals[self.cells].reshape(B, n, self.e))
        msgs = np.zeros((B, k), dtype=np.int64)
        decoded = [False] * B
        for b, (word, ok) in enumerate(zip(syms.tolist(), sym_known.tolist())):
            if sum(ok) < k:
                continue
            try:
                msgs[b] = self.inners[b].decode([v if s else None for v, s in zip(word, ok)])
                decoded[b] = True
            except DecodingFailure:
                pass
        digits = sym.to_digits(msgs).reshape(B, self.outer.ell)
        return self.outer.decode_digits(digits, decoded)


class GridCode:
    """A code whose codewords are `shape` = (rows, cols) matrices of F_p
    digits, cell (i, j) being digit i * cols + j of its core, a
    ConcatenatedCode.  `axes` names which of "rows" and "cols" decoding
    may erase whole; `erase` is the hook a kind uses to widen the erased
    rows and columns before the core decodes."""

    def __init__(self, core: ConcatenatedCode, shape: tuple[int, int], axes: tuple[str, ...]):
        self.core = core
        self.shape = shape
        self.axes = axes

    @cached_property
    def unit_code(self) -> UnitCode:
        """The erasable rows (when "rows" is an axis), then columns, as units."""
        rows, _ = self.shape
        units = grid_units(*self.shape)
        by_axis = {"rows": units[:rows], "cols": units[rows:]}
        return UnitCode(self.core.spec, self.core.G, [u for a in self.axes for u in by_axis[a]])

    @property
    def rate(self) -> Fraction:
        """Message digits per cell of the codeword matrix."""
        rows, cols = self.shape
        return Fraction(self.core.k, rows * cols)

    def generator(self) -> np.ndarray:
        """(k, rows * cols) generator, row-major cell order; cached."""
        return self.core.G

    def encode(self, msg) -> np.ndarray:
        """Message of core.k digits -> rows x cols codeword."""
        msg = np.asarray(msg, dtype=np.int64)
        if msg.shape != (self.core.k,):
            raise LengthMismatch(f"message shape {msg.shape} != ({self.core.k},)")
        return self.core.encode(msg).reshape(self.shape)

    def erase(self, S: frozenset, T: frozenset):
        """The rows and columns to erase when rows S and columns T are erased."""
        return S, T

    def decode(self, received, S=(), T=()) -> np.ndarray:
        """received: rows x cols, None marking an erased cell; S/T: erased rows/cols."""
        rows, cols = self.shape
        if len(received) != rows or any(len(r) != cols for r in received):
            raise LengthMismatch(f"received word is not {rows} x {cols}")
        S, T = self.erase(frozenset(S), frozenset(T))
        return self.core.decode([None if i in S or j in T else received[i][j]
                                 for i in range(rows) for j in range(cols)])


def concatenate(outer: LinearCode, inner: LinearCode) -> LinearCode:
    """Forney concatenation: outer over F_{q^ell}, inner [L, ell] over F_q.

    Each outer codeword symbol is split into ell q-ary symbols and encoded
    by the inner code.  Requires a prime inner alphabet so the symbol
    splitting is scalar-linear and the result is a genuine F_q-linear code.
    """
    if inner.spec.m != 1:
        raise DimensionMismatch("concatenation requires a prime inner alphabet")
    cells = np.arange(outer.n * inner.n).reshape(outer.n, inner.n)
    core = ConcatenatedCode(InterleavedCode(outer), [inner] * outer.n, cells, cells.size)
    return LinearCode(inner.spec, core.G)


def expand_code(C: LinearCode, sub: FieldSpec) -> LinearCode:
    """Re-express a code over GF(p^m) as a code over the prime field.

    Equivalent to concatenating with the identity inner code.
    """
    inner = LinearCode(sub, mx.identity(symbol_digit_map(C.spec, sub)))
    return concatenate(C, inner)


def gv_search(spec: FieldSpec, n: int, d: int) -> LinearCode:
    """Greedy search for a code of length n and min distance >= d.

    Scans candidate generator rows in canonical order (base-q digits, most
    significant first) and keeps a row iff every codeword it adds to the
    span, w + c*row for w in the span and c != 0, has weight >= max(d, 1);
    weight 0 means the row already lies in the span.  The result is
    inclusion-maximal (no further row can be added), determinate, and meets
    the Gilbert-Varshamov dimension on the small instances this library
    targets.
    """
    q = spec.q
    if q ** n > BRUTE_FORCE_BOUND * 16:
        raise TooLarge(f"q^n = {q}^{n} too large for exhaustive row scan")
    if d > n:
        raise Infeasible(f"no length-{n} code has distance {d}")
    scalars = np.arange(1, q, dtype=np.int64)[:, None]
    rows, span = [], np.zeros((1, n), dtype=np.int64)
    for row in islice(product(range(q), repeat=n), 1, None):
        row = np.array(row, dtype=np.int64)
        new = spec.add(span[None], spec.mul(scalars, row)[:, None]).reshape(-1, n)
        if np.count_nonzero(new, axis=1).min() >= max(d, 1):
            rows.append(row)
            span = np.concatenate([span, new])
            if len(rows) == n:  # the span is F_q^n, so it holds every later row
                break
    if not rows:
        raise Infeasible(f"no [{n}, >=1] code with distance {d} found")
    return LinearCode(spec, np.stack(rows))


def plotkin_rate_bound(q: int, delta) -> Fraction:
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise CodeError("delta must lie in [0, 1]")
    bound = 1 - delta * Fraction(q, q - 1)
    return max(Fraction(0), bound)


# ----------------------------------------------------------------------
# Serialization: line 1 "field p m <irreducible coeffs>", line 2 "k n",
# then k rows of n integers.
# ----------------------------------------------------------------------

def code_to_text(C: LinearCode) -> str:
    lines = [f"field {C.spec.p} {C.spec.m} " + " ".join(map(str, C.spec.irreducible)),
             f"{C.k} {C.n}"]
    for row in C.G:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LinearCode:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "field":
        raise CodeError("bad code file: missing field header")
    p, m = int(head[1]), int(head[2])
    spec = make_field(p, m, tuple(int(c) for c in head[3:3 + m + 1]))
    k, n = map(int, lines[1].split())
    G = np.array([[int(x) for x in lines[2 + i].split()] for i in range(k)],
                 dtype=np.int64)
    if G.shape != (k, n):
        raise CodeError("bad code file: generator shape mismatch")
    return LinearCode(spec, G)
