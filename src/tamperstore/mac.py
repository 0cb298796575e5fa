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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        limit = 1 << self.lam
        if not (0 <= self.a < limit and 0 <= self.b < limit):
            raise ValueError("key components must be lam-bit values")

    @classmethod
    def random(cls, lam: int, rng: np.random.Generator) -> "MacKey":
        return cls(Bits.random(lam, rng).value, Bits.random(lam, rng).value, lam)

    @property
    def bit_size(self) -> int:
        return 2 * self.lam

    def to_bits(self) -> Bits:
        return Bits(self.a, self.lam).concat(Bits(self.b, self.lam))

    @classmethod
    def from_bits(cls, bits: Bits) -> "MacKey":
        lam = bits.length // 2
        return cls(bits.first(lam).value, bits[lam:].value, lam)


def _blocks(msg: Bits, lam: int) -> list[int]:
    limit = lam * (1 << lam)
    if msg.length > limit:
        raise OversizeMessageError(f"{msg.length} bits exceeds lam * 2^lam = {limit}")
    mask = (1 << lam) - 1
    value = msg.value
    out = [(value >> start) & mask for start in range(0, msg.length, lam)]
    # the last block is zero-padded implicitly; the length block follows
    out.append(1 + msg.length % mask)
    return out


def tag(key: MacKey, msg: Bits) -> Bits:
    """Deterministic one-time tag of lam bits."""
    tables = GF2Field(key.lam).byte_tables(key.a)
    acc = 0
    for block in reversed(_blocks(msg, key.lam)):  # Horner: sum m_i a^i
        y = acc ^ block
        acc = 0
        for table in tables:  # acc = y * a, one lookup per byte of y
            acc ^= table[y & 0xFF]
            y >>= 8
    return Bits(acc ^ key.b, key.lam)


def verify(key: MacKey, msg: Bits, theta: Bits) -> bool:
    """Accept exactly when theta matches the tag of msg under key."""
    if theta.length != key.lam:
        return False
    return tag(key, msg) == theta


@dataclass(frozen=True)
class MacSizes:
    """Reference sizes from den Boer's classic construction plus the implemented lam."""

    den_boer_key_bits: float
    den_boer_tag_bits: float
    lam: int

    @property
    def key_bits(self) -> int:
        return 2 * self.lam

    @property
    def tag_bits(self) -> int:
        return self.lam


def forgery_bound(lam: int, msg_bits: int) -> float:
    """(B+1) / 2^lam for a message of msg_bits content bits."""
    blocks = -(-msg_bits // lam) if msg_bits else 0
    return min(1.0, (blocks + 1) / 2.0**lam)


def mac_sizes(eps_mac: float, msg_space: int) -> MacSizes:
    """Key/tag sizing for one-time authentication at security eps_mac.

    ``msg_space`` is the number of possible messages (for a w-bit message
    space pass 2**w).  The reference figures follow den Boer's one-time
    construction, key size 2 log(1/eps) + 2 log log |M| and tag size
    log(1/eps) + log log |M|; the implemented construction needs
    lam = ceil(log2((B+1)/eps_mac)), which is reported so storage
    accounting can use the real figure.
    """
    if not 0 < eps_mac <= 1:
        raise ValueError("eps_mac outside (0, 1]")
    if msg_space < 2:
        raise ValueError("message space needs at least two messages")
    loglog = math.log2(math.log2(msg_space))
    den_key = 2 * math.log2(1 / eps_mac) + 2 * loglog
    den_tag = math.log2(1 / eps_mac) + loglog
    msg_bits = max(1, math.ceil(math.log2(msg_space)))
    return MacSizes(den_key, den_tag, tag_length(eps_mac, msg_bits))


def tag_length(eps_mac: float, msg_bits: int) -> int:
    """Smallest lam >= log2(1/eps_mac) whose forgery bound on a message of
    msg_bits bits is at most eps_mac."""
    lam = max(1, math.ceil(math.log2(1 / eps_mac)))
    while forgery_bound(lam, msg_bits) > eps_mac:
        lam += 1
    return lam
