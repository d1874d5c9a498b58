"""
Exact arithmetic in finite fields GF(p^m).

Elements are encoded as integers in [0, q), q = p^m, where the base-p
digits of the encoding are the coefficients of the polynomial-basis
representative (digit i = coefficient of x^i).  Multiplication and
inversion go through precomputed log/antilog tables, so they are O(1)
lookups; this matters because rank computations downstream perform
millions of field operations.

The irreducible polynomial defining an extension field is always the
lexicographically smallest monic irreducible of the requested degree
(coefficients compared low-to-high), so encodings are reproducible
across runs and serialized objects are self-describing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, product

import numpy as np


class FieldError(ValueError):
    pass


class NotPrime(FieldError):
    pass


class OrderTooLarge(FieldError):
    pass


class SpecMismatch(FieldError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


MAX_ORDER = 1 << 16

# Add-table is only materialized for small fields; larger ones fall back
# to digit-wise vectorized addition.
_ADD_TABLE_MAX_Q = 512


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m; raises FieldError when q is not a prime power."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    return factors[0], next(m for m in count(1) if factors[0] ** m == q)


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are lists of coefficients,
# low-to-high, with no implicit normalization.
# ----------------------------------------------------------------------

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_mod(f, g, p):
    # g must be monic
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and _poly_trim(f):
        f = _poly_trim(f)
        if len(f) - 1 < dg:
            break
        lead = f[-1]
        shift = len(f) - 1 - dg
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
        f = _poly_trim(f)
    return _poly_trim(f)


def _poly_gcd(f, g, p):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        inv_lead = pow(g[-1], p - 2, p)
        g_monic = [(c * inv_lead) % p for c in g]
        f, g = g_monic, _poly_mod(f, g_monic, p)
    return f


def _poly_powmod_x(e: int, f, p):
    """x^e mod f, with f monic."""
    result = [1]
    base = _poly_mod([0, 1], f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(coeffs, p: int) -> bool:
    """coeffs: monic polynomial, low-to-high, degree m >= 1."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    # x^(p^m) == x (mod f)
    xq = _poly_powmod_x(p ** m, coeffs, p)
    xq = xq + [0] * (2 - len(xq))
    xq[1] = (xq[1] - 1) % p
    if _poly_trim(xq):
        return False
    # gcd(x^(p^(m/r)) - x, f) == 1 for every prime r | m
    for r in _prime_factors(m):
        xe = _poly_powmod_x(p ** (m // r), coeffs, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(coeffs, diff, p)
        if len(_poly_trim(g)) - 1 != 0:
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Coefficients are compared low-to-high; the returned tuple includes the
    leading 1, so it has length m + 1.
    """
    for tail in product(range(p), repeat=m):
        coeffs = list(tail) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible of degree {m} over GF({p})")  # unreachable


class FieldSpec:
    """Immutable description of GF(p^m) plus arithmetic tables.

    All operations accept plain int encodings or numpy integer arrays and
    are pure; a FieldSpec can safely be shared across workers.
    """

    def __init__(self, p: int, m: int, irreducible=None):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        q = p ** m
        if q > MAX_ORDER:
            raise OrderTooLarge(f"q = {p}^{m} exceeds {MAX_ORDER}")
        if irreducible is None:
            irreducible = smallest_irreducible(p, m)
        irreducible = tuple(int(c) % p for c in irreducible)
        if len(irreducible) != m + 1 or irreducible[-1] != 1:
            raise FieldError("irreducible must be monic of degree m")
        if not _is_irreducible(list(irreducible), p):
            raise FieldError(f"{irreducible} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.irreducible = irreducible
        self._build_tables()

    # -- table construction -------------------------------------------

    def _digits(self, v: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return out

    def _undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _raw_mul(self, a: int, b: int) -> int:
        """Schoolbook polynomial product, reduced mod the irreducible."""
        if a == 0 or b == 0:
            return 0
        fa, fb = self._digits(a), self._digits(b)
        prod = _poly_mul(fa, fb, self.p)
        red = _poly_mod(prod, list(self.irreducible), self.p)
        red = red + [0] * (self.m - len(red))
        return self._undigits(red)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        q, p = self.q, self.p
        # find a multiplicative generator
        factors = _prime_factors(q - 1) if q > 2 else []
        g = None
        for cand in range(2, q):
            if all(self._raw_pow(cand, (q - 1) // r) != 1 for r in factors):
                g = cand
                break
        if g is None:
            g = 1  # q == 2
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, g)
        exp[q - 1:] = exp[: q - 1]
        self.generator = g
        self._exp = exp
        self._log = log
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self._inv = inv
        # negation table (cheap for any q)
        if p == 2:
            self._neg = None
        else:
            self._neg = np.array(
                [self._undigits([(-d) % p for d in self._digits(v)])
                 for v in range(q)], dtype=np.int64)
        if p != 2 and self.m > 1 and q <= _ADD_TABLE_MAX_Q:
            tbl = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                da = self._digits(a)
                for b in range(q):
                    db = self._digits(b)
                    tbl[a, b] = self._undigits([(x + y) % p for x, y in zip(da, db)])
            self._add_table = tbl
        else:
            self._add_table = None

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            out = self._add_table[a, b]
            return int(out) if np.isscalar(a) and np.isscalar(b) else out
        return self._add_digitwise(a, b, 1)

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        if self._add_table is not None:
            out = self._add_table[a, self._neg[b]]
            return int(out) if np.isscalar(a) and np.isscalar(b) else out
        return self._add_digitwise(a, b, -1)

    def _add_digitwise(self, a, b, sign):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        pk = 1
        for _ in range(self.m):
            da = (a // pk) % self.p
            db = (b // pk) % self.p
            out += ((da + sign * db) % self.p) * pk
            pk *= self.p
        return out if out.shape else int(out)

    def neg(self, a):
        if self.p == 2:
            return a
        out = self._neg[a]
        return int(out) if np.isscalar(a) else out

    def mul(self, a, b):
        if np.isscalar(a) and np.isscalar(b):
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if np.isscalar(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return int(self._inv[a])
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def pow(self, a, e: int):
        if not np.isscalar(a):
            raise TypeError("pow takes a scalar element")
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    # -- representation helpers ----------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value)

    def to_digits(self, v):
        """Base-p digit vector(s) of encoding(s); digit 0 first."""
        v = np.asarray(v, dtype=np.int64)
        out = np.zeros(v.shape + (self.m,), dtype=np.int64)
        pk = 1
        for i in range(self.m):
            out[..., i] = (v // pk) % self.p
            pk *= self.p
        return out

    def from_digits(self, ds):
        ds = np.asarray(ds, dtype=np.int64)
        pk = 1
        out = np.zeros(ds.shape[:-1], dtype=np.int64)
        for i in range(self.m):
            out += ds[..., i] * pk
            pk *= self.p
        return out if out.shape else int(out)

    def tag(self) -> str:
        """Self-describing header used by all file formats."""
        return f"{self.p}^{self.m} " + " ".join(str(c) for c in self.irreducible)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.irreducible)
                == (other.p, other.m, other.irreducible))

    def __hash__(self):
        return hash((self.p, self.m, self.irreducible))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}), irr={list(self.irreducible)})"


class FieldElement:
    """Thin element wrapper with operator sugar; encodes as spec + int."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int):
        if not 0 <= value < spec.q:
            raise FieldError(f"value {value} out of range for q={spec.q}")
        self.spec = spec
        self.value = int(value)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise SpecMismatch("elements from different fields")
            return other.value
        return int(other)

    def __add__(self, other):
        return FieldElement(self.spec, self.spec.add(self.value, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self.value, self._coerce(other)))

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.value, self._coerce(other)))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.value, e))

    def inverse(self):
        return FieldElement(self.spec, self.spec.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash((self.spec, self.value))

    def __repr__(self):
        return f"FieldElement({self.value} in GF({self.spec.p}^{self.spec.m}))"


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int) -> FieldSpec:
    return FieldSpec(p, m)


def make_field(p: int, m: int) -> FieldSpec:
    """GF(p^m) with the canonical (smallest) irreducible; cached."""
    return _cached_field(p, m)


def parse_field_tag(tokens: list[str]) -> FieldSpec:
    """Inverse of FieldSpec.tag(), consuming tokens 'p^m c0 ... cm'."""
    p_s, m_s = tokens[0].split("^")
    p, m = int(p_s), int(m_s)
    coeffs = tuple(int(t) for t in tokens[1:2 + m])
    return FieldSpec(p, m, coeffs)
