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

Blocks are cut in one numpy pass: the message bytes are unpacked to bits,
reshaped to B rows of lam bits (the last row zero-padded) and each row is
summed against the weights 2^k.  The sum is evaluated by Horner's rule,
acc = (acc + m_i) * a from the last block down.  Multiplication by the
key constant a is the XOR of one ``GF2Field.byte_tables`` lookup per byte
of the lam-bit operand; ``_horner`` writes those ceil(lam/8) lookups out
as one expression, compiled once per byte count, so the step is exact for
every lam and runs no inner loop.  The byte tables of a are built once per
key (``MacKey.byte_tables``), so the ``verify`` that checks a tag reuses
the tables its ``tag`` built when both see the same key object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bits import Bits
from .gf2 import GF2Field


class OversizeMessageError(ValueError):
    """Message longer than lam * 2^lam bits."""


@dataclass(frozen=True)
class MacKey:
    a: int
    b: int
    lam: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam = {self.lam}; a key needs lam >= 1")
        limit = 1 << self.lam
        if not (0 <= self.a < limit and 0 <= self.b < limit):
            raise ValueError("key components must be lam-bit values")

    @classmethod
    def random(cls, lam: int, rng: np.random.Generator) -> "MacKey":
        return cls(Bits.random(lam, rng).value, Bits.random(lam, rng).value, lam)

    @cached_property
    def byte_tables(self) -> tuple[tuple[int, ...], ...]:
        """``GF2Field(lam).byte_tables(a)``, built on first use and kept,
        immutable, for the life of the key; equality and hash ignore it."""
        return tuple(map(tuple, GF2Field(self.lam).byte_tables(self.a)))

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


@lru_cache(maxsize=None)
def _bit_weights(lam: int) -> np.ndarray:
    """2^k for k < lam; Python ints once a row no longer fits 64 bits."""
    weights = np.array([1 << k for k in range(lam)], dtype=np.uint64 if lam <= 64 else object)
    weights.flags.writeable = False
    return weights


def _blocks(msg: Bits, lam: int) -> list[int]:
    limit = lam * (1 << lam)
    if msg.length > limit:
        raise OversizeMessageError(f"{msg.length} bits exceeds lam * 2^lam = {limit}")
    count = -(-msg.length // lam)
    raw = msg.value.to_bytes((count * lam + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count * lam, bitorder="little")
    # the last block is zero-padded by the byte rounding; the length block follows
    out = (bits.reshape(count, lam) @ _bit_weights(lam)).tolist()
    out.append(1 + msg.length % ((1 << lam) - 1))
    return out


@lru_cache(maxsize=None)
def _horner(nbytes: int):
    """Compiled ``horner(blocks, t0, ..., t{nbytes-1})``, which folds
    acc = (acc ^ block) * a over blocks and returns acc.

    The product is the one expression ``t0[y & 0xFF] ^ t1[y >> 8 & 0xFF]
    ^ ...`` over the byte tables of a; the last table is no larger than
    the top byte of y can index, so that byte is not masked.
    """
    names = ", ".join(f"t{j}" for j in range(nbytes))
    lookups = " ^ ".join(
        f"t{j}[{f'y >> {8 * j}' if j else 'y'}{' & 0xFF' if j < nbytes - 1 else ''}]"
        for j in range(nbytes)
    )
    source = (
        f"def horner(blocks, {names}):\n"
        "    acc = 0\n"
        "    for block in blocks:\n"
        "        y = acc ^ block\n"
        f"        acc = {lookups}\n"
        "    return acc\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["horner"]


def tag(key: MacKey, msg: Bits) -> Bits:
    """Deterministic one-time tag of lam bits."""
    tables = key.byte_tables
    acc = _horner(len(tables))(reversed(_blocks(msg, key.lam)), *tables)  # sum m_i a^i
    return Bits(acc ^ key.b, key.lam)


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
