"""Arithmetic over F2[t] and the binary fields GF(2^a).

Polynomials over F2 are encoded as Python ints, bit i holding the coefficient
of t^i.  Field elements of GF(2^a) are polynomials of degree < a reduced by a
fixed irreducible modulus, so every element is an int in [0, 2^a).
``GF2Field.mul_array`` and ``GF2Field.low_bit_planes`` do the same arithmetic
elementwise over uint64 arrays, for tables over a whole field at once.

``GF2Field.power_table`` raises arrays of elements to the powers 0..count-1.
Up to degree ``TABLE_MAX_DEGREE`` = 16 it reads them from log/antilog tables
built once per field (x^i = exp[(i * log x) mod (2^a - 1)], one gather); above
that it multiplies up a ``mul_array`` chain, one call per power, since a table
there would cost megabytes for the few sampled elements such fields raise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# largest degree whose field gets log/antilog tables (2^16 entries each)
TABLE_MAX_DEGREE = 16


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two F2 polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mod(a: int, m: int) -> int:
    dm = poly_degree(m)
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


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


def is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test for an F2 polynomial (must be monic)."""
    d = poly_degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    t = 2  # the polynomial t
    # t^(2^d) must equal t mod f
    x = t
    for _ in range(d):
        x = poly_mulmod(x, x, f)
    if x != poly_mod(t, f):
        return False
    for q in _prime_factors(d):
        x = t
        for _ in range(d // q):
            x = poly_mulmod(x, x, f)
        if poly_gcd(x ^ t, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(degree: int) -> int:
    """Smallest (as an integer) monic irreducible F2 polynomial of a degree."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for cand in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


class GF2Field:
    """GF(2^a) with a fixed deterministic modulus."""

    def __init__(self, degree: int):
        self.degree = degree
        self.size = 1 << degree
        self.modulus = irreducible_poly(degree)
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def mul(self, x: int, y: int) -> int:
        return poly_mulmod(x, y, self.modulus)

    def pow(self, x: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group: g^((2^a-1)/q) != 1
        for every prime q dividing 2^a - 1.  The modulus's root t need not be
        one (it is not at degrees 8, 9, 12, 14 and 16)."""
        order = self.size - 1
        cofactors = [order // q for q in _prime_factors(order)]
        return next(g for g in range(1, self.size) if all(self.pow(g, c) != 1 for c in cofactors))

    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) for degree <= TABLE_MAX_DEGREE, built on first use:
        exp[j] = g^j for j < 2^a - 1 and log[exp[j]] = j, g the primitive
        element; log[0] is 0 and means nothing.  Both in the smallest
        unsigned dtype holding 2^a - 1."""
        if self.degree > TABLE_MAX_DEGREE:
            raise ValueError(f"log tables need degree <= {TABLE_MAX_DEGREE}")
        if self._tables is None:
            order = self.size - 1
            g = self.primitive_element()
            exp = np.ones(order, dtype=np.uint64)
            h = 1
            while h < order:  # exp[h:2h] = exp[:h] * g^h
                step = min(h, order - h)
                exp[h : h + step] = self.mul_array(exp[:step], self.mul(int(exp[h - 1]), g))
                h += step
            dtype = np.min_scalar_type(order)
            log = np.zeros(self.size, dtype=dtype)
            log[exp] = np.arange(order, dtype=dtype)
            self._tables = (exp.astype(dtype), log)
        return self._tables

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise product of uint64 arrays of reduced field elements."""
        if self.degree > 31:
            raise ValueError("mul_array needs degree <= 31 (products fit in 64 bits)")
        x = np.asarray(x, dtype=np.uint64)
        y = np.asarray(y, dtype=np.uint64)
        one = np.uint64(1)
        prod = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint64)
        for j in range(self.degree):
            prod ^= ((y >> np.uint64(j)) & one) * (x << np.uint64(j))
        modulus = np.uint64(self.modulus)
        for d in range(2 * self.degree - 2, self.degree - 1, -1):
            shift = np.uint64(d - self.degree)
            prod ^= ((prod >> np.uint64(d)) & one) * (modulus << shift)
        return prod

    def power_table(self, xs: np.ndarray, count: int) -> np.ndarray:
        """(count, len(xs)) uint64 array whose row i holds x^i for each x
        (0^0 = 1).  ValueError for an x outside [0, 2^a) or a negative count."""
        xs = np.asarray(xs)
        if count < 0:
            raise ValueError("power count must be >= 0")
        if xs.size and (xs.min() < 0 or xs.max() >= self.size):
            raise ValueError(f"field elements must lie in [0, {self.size})")
        xs = xs.astype(np.uint64)
        if self.degree > TABLE_MAX_DEGREE:
            return self._power_chain(xs, count)
        exp, log = self.log_tables()
        logs = np.multiply.outer(np.arange(count, dtype=np.intp), log[xs].astype(np.intp))
        out = np.take(exp.astype(np.uint64), logs, mode="wrap")  # wrap: mod 2^a - 1
        out[1:, xs == 0] = 0
        return out

    def _power_chain(self, xs: np.ndarray, count: int) -> np.ndarray:
        # row i = row i-1 * x, one mul_array call per power
        out = np.empty((count, xs.shape[0]), dtype=np.uint64)
        out[:1] = 1
        for i in range(1, count):
            out[i] = self.mul_array(out[i - 1], xs)
        return out

    def low_bit_planes(self, values: np.ndarray) -> np.ndarray:
        """(degree,) + values.shape uint8: plane b holds the low bit of t^b * v.

        For a fixed element v, y -> low bit of v * y is linear in y; plane b is
        its coefficient on bit b of y.
        """
        cur = np.array(values, dtype=np.uint64)
        one = np.uint64(1)
        top = np.uint64(self.degree)
        modulus = np.uint64(self.modulus)
        out = np.empty((self.degree,) + cur.shape, dtype=np.uint8)
        for b in range(self.degree):
            out[b] = cur & one
            cur <<= one
            cur ^= ((cur >> top) & one) * modulus
        return out


@lru_cache(maxsize=None)
def field(degree: int) -> GF2Field:
    return GF2Field(degree)
