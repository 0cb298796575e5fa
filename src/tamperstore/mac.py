"""Information-theoretic one-time message authentication.

Polynomial-evaluation construction over GF(2^lam): the message is split
into lam-bit blocks m_1..m_B, a length block is appended, and the tag is
b + sum m_i a^i for the key (a, b).  A key must authenticate exactly one
message; the protocol layer draws a fresh key per session.

The length block value is 1 + (bit-length mod 2^lam - 1), which is never
zero, so messages with different block counts always produce different
polynomials and zero-padding cannot be exploited.

An observed (message, tag) pair leaves 2^lam equally likely keys; a
forgery for a different message succeeds only where a difference
polynomial of degree at most B+1 vanishes, so the forgery probability is
at most (B+1) / 2^lam with B the content block count.

The construction is evaluated by the baby-step/giant-step split of
Paterson & Stockmeyer (SIAM J. Comput. 2(1), 1973), as GF(2) matrix
products over bits.  An element y is the row of its lam bits, and y * c is
y M_c for the lam x lam matrix M_c whose row k holds the bits of x^k c.
With E = B + 1 blocks, Q = 2^h >= sqrt(E) and K = ceil(E / Q), block
i - 1 = gQ + q contributes m_i a^(q+1) a^(gQ), so

* the baby step is one product W = V Z mod 2: V holds the message bits
  (the length block written in, zero-padded to KQ blocks) as K rows of
  Q lam bits, and Z stacks M_a, M_a^2, ..., M_a^Q, so row g of W is
  sum_q m_(gQ+q+1) a^(q+1);
* the giant step multiplies row g by a^(gQ) = (a^g)^(2^h) and sums over
  g.  Squaring is GF(2)-linear, so (u, y) -> u y^(2^h) is bilinear: with
  G the bits of a^g for g < K (a^0 = 1, then row 0 of the g-th block of
  Z), C = W^T G, and the tag bits are vec(C) times the per-(lam, h) matrix
  whose row (j, l) holds the bits of x^j (x^l)^(2^h) mod P, mod 2.

Per key, M_a holds the shift-and-reduce multiples x^k a; Z takes h
doubling steps of one product each (the stack times its last block,
M_a^(2^k)); G is a copy of K - 1 rows of Z.  The per-(lam, h)
matrices are built on first use and cached; each holds lam^3 floats.  Z
and G are cached on the key (``MacKey.tables``), by block count, and
equality and hash ignore them, so the ``verify`` that checks a tag reuses
what its ``tag`` built when both see the same key object; no key material
sits in a module-level cache.

Products run in float32, exact for integers below 2^24; parity is read
from bit 0 of x + 2^23, which needs every sum below 2^23.  The sums of
the doubling and W products are at most lam and Q lam; C is left
unreduced, with entries at most K <= Q, so the last product sums at most
K lam^2.  All stay below Q lam^2, and a message whose block count would
take Q lam^2 to 2^23 or past it raises ``OversizeMessageError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bits import Bits
from .gf2 import GF2Field

_EXACT = float(1 << 23)  # x + 2^23 keeps the parity of x in bit 0 while x < 2^23
_ONE = 0x3F800000  # the bit pattern of float32 1.0


class OversizeMessageError(ValueError):
    """Message longer than lam * 2^lam bits, or past the float32 exactness bound."""


@dataclass(frozen=True)
class MacKey:
    a: int
    b: int
    lam: int
    # block count -> (Z, G, giant-step matrix), filled by ``tag``; not part of
    # the key's value
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam = {self.lam}; a key needs lam >= 1")
        limit = 1 << self.lam
        if not (0 <= self.a < limit and 0 <= self.b < limit):
            raise ValueError("key components must be lam-bit values")

    @property
    def bit_size(self) -> int:
        return 2 * self.lam

    def to_bits(self) -> Bits:
        return Bits(self.a, self.lam).concat(Bits(self.b, self.lam))

    @classmethod
    def from_bits(cls, bits: Bits) -> "MacKey":
        """Inverse of :meth:`to_bits`: a and b, lam bits each, lam >= 1."""
        if bits.length % 2:
            raise ValueError(f"a key of {bits.length} bits does not split into a and b")
        lam = bits.length // 2
        return cls(bits.first(lam).value, bits[lam:].value, lam)


def _parity(x: np.ndarray) -> np.ndarray:
    """x mod 2, in place, for a float32 array of integers in [0, 2^23)."""
    x += _EXACT
    low = x.view(np.int32)
    low &= 1
    low *= _ONE
    return x


def _shifts(c: int, count: int, lam: int) -> list[int]:
    """c x^s mod P for s < count, by shift and reduce."""
    modulus, out = GF2Field(lam).modulus, [c]
    for _ in range(count - 1):
        c <<= 1
        if c >> lam:
            c ^= modulus
        out.append(c)
    return out


def _bit_rows(values, lam: int) -> np.ndarray:
    """One uint8 row of lam bits, low bit first, per lam-bit int."""
    nbytes = (lam + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in values), np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=lam, bitorder="little")


@lru_cache(maxsize=None)
def _products(lam: int, h: int) -> np.ndarray:
    """Row j lam + l holds the bits of x^j (x^l)^(2^h) mod P: lam^3 floats,
    27 KB at lam = 19."""
    gf = GF2Field(lam)
    powers = _shifts(1, 2 * lam, lam)  # x^s
    root = gf.pow_int(powers[1], 1 << h)  # x^(2^h)
    frobenius = [1]  # row l: (x^l)^(2^h) = root^l
    for _ in range(lam - 1):
        frobenius.append(gf.mul_int(frobenius[-1], root))
    shifts = _bit_rows(powers, lam)[np.add.outer(np.arange(lam), np.arange(lam))]
    # block j: row l times the matrix of x^j, whose row k is x^(j+k)
    out = _parity(np.matmul(_bit_rows(frobenius, lam).astype(np.float32), shifts.astype(np.float32)))
    out = out.reshape(lam * lam, lam)
    out.flags.writeable = False
    return out


def _key_tables(key: MacKey, blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z, G and the giant-step matrix for a message of ``blocks`` blocks,
    length block included; built on first use and kept on the key."""
    tables = key.tables.get(blocks)
    if tables is not None:
        return tables
    lam = key.lam
    h = ((blocks - 1).bit_length() + 1) // 2  # Q = 2^h >= sqrt(blocks)
    if (lam * lam) << h >= _EXACT:
        raise OversizeMessageError(f"{blocks} blocks: Q lam^2 = {(lam * lam) << h} >= 2^23")
    zs = np.empty((lam << h, lam), np.float32)
    zs[:lam] = _bit_rows(_shifts(key.a, lam, lam), lam)  # M_a: row k is x^k a
    for k in range(h):  # M_a^(2^k+1..2^(k+1)) = M_a^(1..2^k) M_a^(2^k)
        n = lam << k
        _parity(np.dot(zs[:n], zs[n - lam : n], out=zs[n : 2 * n]))
    gs = np.zeros((-(-blocks >> h), lam), np.float32)
    gs[0, 0] = 1  # a^0
    gs[1:] = zs[: lam * (len(gs) - 1) : lam]  # a^g: row 0 of M_a^g
    zs.flags.writeable = gs.flags.writeable = False
    tables = key.tables[blocks] = zs, gs, _products(lam, h)
    return tables


def tag(key: MacKey, msg: Bits) -> Bits:
    """Deterministic one-time tag of lam bits."""
    lam = key.lam
    limit = lam * (1 << lam)
    if msg.length > limit:
        raise OversizeMessageError(f"{msg.length} bits exceeds lam * 2^lam = {limit}")
    count = -(-msg.length // lam)
    zs, gs, products = _key_tables(key, count + 1)
    size = len(gs) * len(zs)
    # the last block is zero-padded; the length block follows it
    value = msg.value | (1 + msg.length % ((1 << lam) - 1)) << (count * lam)
    raw = np.frombuffer(value.to_bytes((size + 7) // 8, "little"), np.uint8)
    v = np.unpackbits(raw, count=size, bitorder="little").reshape(len(gs), -1)
    c = np.dot(_parity(np.dot(v, zs)).T, gs)  # unreduced: entries at most K
    t = np.dot(c.reshape(-1), products)  # sum m_i a^i
    t += _EXACT
    bits = np.packbits(t.view(np.int32) & 1, bitorder="little")
    return Bits(int.from_bytes(bits.tobytes(), "little") ^ key.b, lam)


def verify(key: MacKey, msg: Bits, theta: Bits) -> bool:
    """Accept exactly when theta matches the tag of msg under key."""
    if theta.length != key.lam:
        return False
    return tag(key, msg) == theta


def forgery_bound(lam: int, msg_bits: int) -> float:
    """(B+1) / 2^lam for a message of msg_bits content bits."""
    blocks = -(-msg_bits // lam) if msg_bits else 0
    return min(1.0, (blocks + 1) / 2.0**lam)


def tag_length(eps_mac: float, msg_bits: int) -> int:
    """Smallest lam >= log2(1/eps_mac) whose forgery bound on a message of
    msg_bits bits is at most eps_mac."""
    lam = max(1, math.ceil(math.log2(1 / eps_mac)))
    while forgery_bound(lam, msg_bits) > eps_mac:
        lam += 1
    return lam
