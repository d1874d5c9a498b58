"""
Exact arithmetic in finite fields GF(p^m).

Elements are encoded as integers in [0, q), q = p^m, where the base-p
digits of the encoding are the coefficients of the polynomial-basis
representative (digit i = coefficient of x^i).  Each field holds one
digit table, row a the digits of a, and builds every table from it:
negation and addition are digit-wise, and the times-x map shifts the
digits up one place.  The a*x^j maps give multiplication by any g, the
generator's walk from 1 is the antilog table, and the log and inverse
tables follow, so multiplication and inversion are O(1) lookups.

Polynomials over GF(p) serve only to choose and validate the
irreducible: by default the lexicographically smallest monic irreducible
of the requested degree (coefficients compared low-to-high), so
encodings are reproducible and serialized objects self-describing.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import count, product
from operator import xor

import numpy as np


class FieldError(ValueError):
    pass


class NotPrime(FieldError):
    pass


class OrderTooLarge(FieldError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


MAX_ORDER = 1 << 16

# Add-table is only materialized for small fields; larger ones fall back
# to digit-wise vectorized addition.
_ADD_TABLE_MAX_Q = 512

# Row kernels of extension fields hold a q x q product table (as lists) up
# to this order and read log/antilog lists above it.
_ROW_TABLE_MAX_Q = 256


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
    if coeffs[0] == 0:  # divisible by x
        return False
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
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        # the order first, as the primality test divides up to sqrt(p); any
        # m past MAX_ORDER's bit length overflows without computing p^m
        if p > 1 and (m > MAX_ORDER.bit_length() or p ** m > MAX_ORDER):
            raise OrderTooLarge(f"q = {p}^{m} exceeds {MAX_ORDER}")
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        q = p ** m
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
        self._place = p ** np.arange(m, dtype=np.int64)
        # row a holds the digits of a; read-only, as to_digits returns its rows
        self._digit_table = np.arange(q, dtype=np.int64)[:, None] // self._place % p
        self._digit_table.flags.writeable = False
        self._build_tables()

    # -- table construction -------------------------------------------

    def _build_tables(self):
        q, p, D = self.q, self.p, self._digit_table
        # a*x: a*p mod q shifts the digits up one place, and the carried-out
        # top digit c adds c*x^m = -c*(f_0 + ... + f_{m-1} x^{m-1})
        a = np.arange(q)
        times_x = self.from_digits((D[a * p % q] - D[:, -1:] * self.irreducible[:-1]) % p)
        ax = [a]  # a -> a*x^j, for j < m
        for _ in range(1, self.m):
            ax.append(times_x[ax[-1]])
        # the generator: the smallest g whose walk 1, g, g^2, ... visits
        # every nonzero element, with a*g = sum_j g_j*(a*x^j) digit-wise
        for g in range(1, q):
            step = self.from_digits(sum(c * D[t] for c, t in zip(D[g], ax) if c) % p).tolist()
            walk = [1]
            while step[walk[-1]] != 1 and len(walk) < q:  # ends even if step is no permutation
                walk.append(step[walk[-1]])
            if len(walk) == q - 1:
                break
        self.generator = g
        self._exp = np.array(walk * 2, dtype=np.int64)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[self._exp[:q - 1]] = np.arange(q - 1)
        self._inv = np.zeros(q, dtype=np.int64)
        self._inv[1:] = self._exp[(q - 1 - self._log[1:]) % (q - 1)]
        self._neg = None if p == 2 else self.from_digits(-D % p)
        self._add_table = (self.from_digits((D[:, None] + D) % p)
                           if p != 2 and self.m > 1 and q <= _ADD_TABLE_MAX_Q else None)

    @cached_property
    def _row_ops(self):
        """(inverses, scale, sub_mul, sub, mul) for encodings held in Python
        lists: inverses[a] is 1/a, scale(f, row) is f*row and
        sub_mul(dst, f, src) is dst - f*src on rows, each one list
        comprehension, and sub(a, b) = a - b and mul(a, b) = a*b on single
        encodings read the same tables.

        Prime fields reduce mod p.  Extension fields look products up in the
        row MUL[f] of a full table, and add by xor (p = 2) or an add table,
        up to q = _ROW_TABLE_MAX_Q; above it products go through log/antilog
        lists and odd-p sums through Zech logarithms, 1 + g^n = g^zech[n].
        Private and built on first use, so a tracer that wraps the public
        methods sees one span per elimination or interpolation, not one per
        row or element.
        """
        p, q = self.p, self.q
        if self.m == 1 and p != 2:
            def scale(f, row):
                return [x * f % p for x in row]

            def sub_mul(dst, f, src):
                return [(d - f * s) % p for d, s in zip(dst, src)]

            def sub(a, b):
                return (a - b) % p

            def mul(a, b):
                return a * b % p
        elif q <= _ROW_TABLE_MAX_Q:
            table = self._exp[self._log[:, None] + self._log]
            table[0] = table[:, 0] = 0
            products = table.tolist()

            def scale(f, row):
                t = products[f]
                return [t[x] for x in row]

            def mul(a, b):
                return products[a][b]

            if p == 2:
                sub = xor

                def sub_mul(dst, f, src):
                    t = products[f]
                    return [d ^ t[s] for d, s in zip(dst, src)]
            else:
                add, neg = self._add_table.tolist(), self._neg.tolist()

                def sub(a, b):
                    return add[a][neg[b]]

                def sub_mul(dst, f, src):
                    t = products[neg[f]]
                    return [add[d][t[s]] for d, s in zip(dst, src)]
        else:
            log, exp = self._log.tolist(), self._exp.tolist()

            def scale(f, row):
                lf = log[f]
                return [exp[lf + log[x]] if x else 0 for x in row]

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

            if p == 2:
                sub = xor

                def sub_mul(dst, f, src):
                    lf = log[f]
                    return [d ^ exp[lf + log[s]] if s else d for d, s in zip(dst, src)]
            else:
                one_plus = self._add_digitwise(1, self._exp[:q - 1], 1)
                zech = np.where(one_plus == 0, -1, self._log[one_plus]).tolist()
                neg, order = self._neg.tolist(), q - 1

                def plus_power(d, e):  # d + g^e
                    if not d:
                        return exp[e]
                    z = zech[(e - log[d]) % order]
                    return exp[log[d] + z] if z >= 0 else 0

                def sub(a, b):
                    return plus_power(a, log[neg[b]]) if b else a

                def sub_mul(dst, f, src):
                    lf = log[neg[f]]
                    return [plus_power(d, lf + log[s]) if s else d for d, s in zip(dst, src)]
        return self._inv.tolist(), scale, sub_mul, sub, mul

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
        D = self._digit_table
        return self.from_digits((D[a] + sign * D[b]) % self.p)

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

    def to_digits(self, v):
        """Base-p digit vector(s) of encoding(s); digit 0 first."""
        return self._digit_table[v]

    def from_digits(self, ds):
        """Encoding(s) of base-p digit vector(s); the inverse of to_digits."""
        out = np.asarray(ds, dtype=np.int64) @ self._place
        return out if out.ndim else int(out)

    def __getstate__(self):
        # the row kernel's closures do not pickle; it is rebuilt on first use
        state = dict(self.__dict__)
        state.pop("_row_ops", None)
        return state

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.irreducible)
                == (other.p, other.m, other.irreducible))

    def __hash__(self):
        return hash((self.p, self.m, self.irreducible))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}), irr={list(self.irreducible)})"


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, irreducible) -> FieldSpec:
    return FieldSpec(p, m, irreducible)


def make_field(p: int, m: int, irreducible=None) -> FieldSpec:
    """GF(p^m), by default with the smallest irreducible; cached, so each
    (p, m, irreducible) is built once."""
    return _cached_field(p, m, irreducible if irreducible is None else tuple(irreducible))
