"""Binary field arithmetic GF(2^nu) and the truncated multiplicative hash.

A field element is a ``Bits`` of length nu, read as a polynomial over GF(2)
with bit 0 as the constant coefficient.  ``GF2Field(nu)`` is the modulus of
that degree with arithmetic on the ints that hold such bits (``mul_int``,
``mul_low``, ``inv_int``, ``pow_int``).  Every supported degree has exactly
one reduction polynomial, the lexicographically smallest irreducible
x^nu + tail (smallest tail value).  The table below pins it for the common
small degrees and for every code length on the menu; any other degree is
searched for deterministically, and the result is kept in memory only.
Nothing serialized carries a modulus: the degree alone fixes it.

Two fast paths live next to the generic big-int arithmetic, whose
``GF2Field.mul_int`` (full product, then reduction) stays the reference:

* ``GF2Field.mul_low`` forms only the low l bits of a product: three
  slices of the carry-less product (a middle product), folded through the
  short modulus tail, so a few bits of a 9,728-bit product cost tens of
  microseconds instead of milliseconds;
* ``GFTable`` holds exp/log tables of a small field GF(2^m) and multiplies
  whole numpy arrays of symbols with one gather.

The hash ``phi(w, x, l)`` of two equal-length ``Bits`` is the first l bits
of w*x, computed with ``mul_low``; the protocol's one-time pad is this
hash.  Over the full seed space it is two-universal.  The randomiser's
seed is drawn nonzero instead (``GF2Field.random_nonzero``, whose rule
``store`` keeps inside its one draw), so that w*x can be inverted, at the
cost of a 2^-nu seed bias.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bits import Bits


class NonInvertibleError(ZeroDivisionError):
    """Zero has no multiplicative inverse."""


# ---------------------------------------------------------------------------
# carry-less polynomial arithmetic on plain ints
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed in ints."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    # shift-and-add over the sparser operand, one big-int shift and XOR per
    # set bit.  Session-path operands (small-field symbols, modulus tails,
    # the short slices of GF2Field.mul_low) have at most a few hundred set
    # bits; only the reference mul_int at protocol-scale degrees passes
    # thousands, at about 8 ms a product for n = 9728.
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


_SPREAD = np.zeros(256, dtype=np.uint16)
for _b in range(256):
    _s = 0
    for _i in range(8):
        if (_b >> _i) & 1:
            _s |= 1 << (2 * _i)
    _SPREAD[_b] = _s
del _b, _s, _i


# byte -> the same byte with its 8 bits in reverse order
_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def clsq(a: int) -> int:
    """Carry-less square: spreads the bits of a (a(x)^2 = a(x^2) over GF(2))."""
    if a == 0:
        return 0
    raw = np.frombuffer(a.to_bytes((a.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return int.from_bytes(_SPREAD.take(raw).tobytes(), "little")


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(p: int, m: int) -> int:
    """Reduce p modulo m. Folds through x^deg(m) = m_low, fast for sparse tails."""
    deg = poly_degree(m)
    low = m ^ (1 << deg)
    low_shifts = [i for i in range(low.bit_length()) if (low >> i) & 1]
    mask = (1 << deg) - 1
    while p.bit_length() > deg:
        high = p >> deg
        p &= mask
        # x^deg == m_low (mod m): fold the high part back through each tail term
        for shift in low_shifts:
            p ^= high << shift
        # bits can spill past deg again when deg(m_low) > 0; the loop refolds
    return p


def poly_divmod(p: int, m: int) -> tuple[int, int]:
    dm = poly_degree(m)
    q = 0
    while p.bit_length() - 1 >= dm and p:
        shift = p.bit_length() - 1 - dm
        q |= 1 << shift
        p ^= m << shift
    return q, p


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def poly_invmod(a: int, m: int) -> int:
    """Inverse of a modulo the irreducible m, below x^deg(m).

    Extended Euclid by shifts and XORs (Hankerson, Menezes & Vanstone,
    *Guide to Elliptic Curve Cryptography*, Alg. 2.48): with g1 a = u and
    g2 a = v (mod m), the longer of u, v loses its leading term to the
    other shifted under it, and g1, g2 follow, until u = 1.  No quotient
    is formed, and g1 never reaches the degree of m.
    """
    u, v = poly_mod(a, m), m
    if u == 0:
        raise NonInvertibleError("zero is not invertible")
    g1, g2 = 1, 0
    while u != 1:
        if u == 0:  # m reducible; unreachable for field moduli
            raise NonInvertibleError(f"gcd is {v:#x}, not 1")
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def _sqmod(a: int, m: int) -> int:
    return poly_mod(clsq(a), m)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
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
    """Rabin's test, after Ben-Or's screen against factors of degree <= 14.

    gcd(f, x^(2^k) + x) is the product of the irreducible factors of f whose
    degree divides k (Ben-Or 1981; Gao & Panario 1997), so k = 7..14 expose
    every factor of degree at most 14.  Reducing f modulo the two-term
    x^(2^k) + x is a few shifts and XORs, so each screen is a gcd at degree
    2^k rather than deg; a screen runs only where 2^k <= deg.  Most reducible
    candidates stop there, before the deg squarings of Rabin's test.
    """
    deg = poly_degree(f)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if f & 1 == 0:  # divisible by x
        return False
    if f.bit_count() % 2 == 0:  # f(1) == 0, divisible by x+1
        return False
    for k in range(7, 15):
        if 1 << k > deg:
            break
        m = (1 << (1 << k)) | 2  # x^(2^k) + x
        if poly_gcd(m, poly_mod(f, m)) != 1:
            return False
    # h = x^(2^k) mod f; f is irreducible iff gcd(h - x, f) = 1 at every
    # k = deg/p, p a prime factor of deg, and h = x at k = deg
    checkpoints = {deg // p for p in _prime_factors(deg)}
    h = 2  # the polynomial x
    for k in range(1, deg + 1):
        h = _sqmod(h, f)
        if k in checkpoints and k < deg:
            if poly_gcd(h ^ 2, f) != 1:
                return False
    return h == 2


# ---------------------------------------------------------------------------
# reduction-polynomial registry
# ---------------------------------------------------------------------------

# Published table: for each pinned degree, the full modulus x^nu + tail.
# Every entry is the smallest-tail irreducible polynomial of its degree
# (the deterministic rule implemented by generate_modulus).  The code
# lengths n on the menu were generated once with that search and are
# pinned here, so no session searches for the field of its pad.
PINNED_MODULI: dict[int, int] = {
    3: (1 << 3) | 0b011,
    4: (1 << 4) | 0b0011,
    8: (1 << 8) | 0b00011011,
    16: (1 << 16) | 0b0000000000101011,
    32: (1 << 32) | 0b10001101,
    64: (1 << 64) | 0b00011011,
    128: (1 << 128) | 0b10000111,
    256: (1 << 256) | 0b10000100101,
    # every code length n of linear_code.default_registry()
    1536: (1 << 1536) | 0x54b,
    2048: (1 << 2048) | 0xbc7,
    2560: (1 << 2560) | 0x20b,
    3072: (1 << 3072) | 0x5db,
    3584: (1 << 3584) | 0x965,
    4096: (1 << 4096) | 0xa93,
    4608: (1 << 4608) | 0x1139,
    5120: (1 << 5120) | 0x13bf,
    5632: (1 << 5632) | 0x12e7,
    6144: (1 << 6144) | 0x1eeb,
    6656: (1 << 6656) | 0x1a6d,
    7168: (1 << 7168) | 0x124b,
    7680: (1 << 7680) | 0x6b7,
    8192: (1 << 8192) | 0x225,
    9216: (1 << 9216) | 0xa1d,
    9728: (1 << 9728) | 0xfa3,
    10240: (1 << 10240) | 0x170f,
    11264: (1 << 11264) | 0xcf5,
    12288: (1 << 12288) | 0xa483,
    14336: (1 << 14336) | 0xa7ab,
    16384: (1 << 16384) | 0x14a03,
    20480: (1 << 20480) | 0x5c33,
    24576: (1 << 24576) | 0xc59,
    28672: (1 << 28672) | 0x48db,
    32640: (1 << 32640) | 0x60f9,
}


@lru_cache(maxsize=None)
def generate_modulus(degree: int) -> int:
    """Deterministic reduction polynomial for GF(2^degree).

    Returns the pinned table entry when there is one, otherwise searches
    for the smallest-tail irreducible x^degree + tail.  Every code length
    on the menu is pinned; what is left to search (the randomiser's l0 and
    the MAC's lambda) is small, and the result lives only in this process.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree == 1:
        return 0b11  # x + 1
    if degree in PINNED_MODULI:
        return PINNED_MODULI[degree]
    top = 1 << degree
    tail = 1
    while True:
        f = top | tail
        if is_irreducible(f):
            break
        tail += 2  # constant term must be 1
    return f


# ---------------------------------------------------------------------------
# the field of one degree
# ---------------------------------------------------------------------------

class GF2Field:
    """The reduction polynomial of GF(2^degree) and arithmetic on the ints
    that hold its elements' bits."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.modulus = generate_modulus(degree)
        self._tail = self.modulus ^ (1 << degree)

    def mul_int(self, a: int, b: int) -> int:
        return poly_mod(clmul(a, b), self.modulus)

    def mul_low(self, a: int, b: int, ell: int) -> int:
        """The low ``ell`` bits of a * b mod P, without the full product.

        With P = x^n + T, t = deg T and c = a * b, c mod P = c_lo + T * c_hi
        plus further folds of what T * c_hi spills past x^n.  Only three
        slices of c reach the low ell bits (the middle product of Hanrot,
        Quercia & Zimmermann, AAECC 2004):

        * c[0, ell), from the low ell bits of a and b;
        * c[n, n + ell): c[n + s] is the parity of a & (rev_n(b) << (s + 1)),
          where rev_n reverses the n bits of b;
        * c[2n - t, 2n - 1), from the top t bits of a and b, which fixes the
          spill (T * c_hi) >> n.

        The spill loop runs once whenever 2t - 2 < n, which holds for every
        modulus in use (tested).
        """
        n, tail = self.degree, self._tail
        if not 0 <= ell <= n:
            raise ValueError(f"output length {ell} outside [0, {n}]")
        t = tail.bit_length() - 1
        mask = (1 << ell) - 1
        nbytes = (n + 7) // 8
        rev = int.from_bytes(b.to_bytes(nbytes, "little").translate(_REV8), "big")
        rev >>= 8 * nbytes - n
        mid = 0
        for s in range(ell):
            mid |= ((a & (rev << (s + 1))).bit_count() & 1) << s
        z = clmul(a & mask, b & mask) ^ clmul(tail, mid)
        spill = clmul(tail, clmul(a >> (n - t), b >> (n - t)) >> t) >> t
        while spill:
            folded = clmul(tail, spill)
            z ^= folded
            spill = folded >> n
        return z & mask

    def inv_int(self, a: int) -> int:
        return poly_invmod(a, self.modulus)

    def pow_int(self, a: int, e: int) -> int:
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul_int(r, base)
            base = _sqmod(base, self.modulus)
            e >>= 1
        return r

    def random_nonzero(self, rng: np.random.Generator) -> Bits:
        """Uniform over the 2^degree - 1 invertible elements."""
        while True:
            w = Bits.random(self.degree, rng)
            if w.value != 0:
                return w

    def __repr__(self):
        return f"GF2Field(degree={self.degree}, modulus={self.modulus:#x})"


# ---------------------------------------------------------------------------
# small fields: exp/log tables and array multiplication
# ---------------------------------------------------------------------------

class GFTable:
    """Exp/log tables over GF(2^m) with a deterministically chosen generator.

    ``log[0]`` is a sentinel of 2 * order and ``exp`` is zero from index
    2 * order on, so ``exp[log[a] + log[b]]`` is the product for every pair,
    zero operands included, and whole arrays multiply with one gather.
    """

    def __init__(self, m: int):
        self.m = m
        self.field = GF2Field(m)
        self.order = (1 << m) - 1
        factors = _prime_factors(self.order)
        gen = None
        for cand in range(2, 1 << m):
            if all(self.field.pow_int(cand, self.order // p) != 1 for p in factors):
                gen = cand
                break
        self.generator = gen
        exp = np.zeros(4 * self.order + 1, dtype=np.int64)
        acc = 1
        for i in range(self.order):
            exp[i] = acc
            acc = self.field.mul_int(acc, gen)
        exp[self.order : 2 * self.order] = exp[: self.order]
        self.exp = exp
        log = np.full(1 << m, 2 * self.order, dtype=np.int64)
        log[exp[: self.order]] = np.arange(self.order)
        self.log = log

    def mul(self, a, b):
        """Product of symbols, or elementwise of broadcast symbol arrays."""
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        """Inverse of a nonzero symbol, or elementwise of a symbol array."""
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("zero symbol")
        return self.exp[self.order - self.log[a]]

    def pow_alpha(self, e):
        """generator ** e for any integer e, or elementwise for an array."""
        return self.exp[np.mod(e, self.order)]

    def poly_eval(self, coeffs: list[int], x):
        """Evaluate sum coeffs[i] * x^i (Horner) at a symbol or symbol array."""
        acc = np.zeros_like(x)
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc


@lru_cache(maxsize=None)
def gf_table(m: int) -> GFTable:
    return GFTable(m)


# ---------------------------------------------------------------------------
# truncated multiplicative hash
# ---------------------------------------------------------------------------

def phi(w: Bits, x: Bits, l: int) -> Bits:
    """First l bits of w*x in GF(2^n), n the common length; two-universal
    over uniform w.

    Computed by ``GF2Field.mul_low``, so the cost grows with l rather than
    with the full product.  Operands of unequal length, or l outside
    [0, n], raise ``ValueError``.
    """
    if w.length != x.length:
        raise ValueError(f"operands of {w.length} and {x.length} bits")
    return Bits(GF2Field(w.length).mul_low(w.value, x.value, l), l)
