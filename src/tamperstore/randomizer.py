"""Message preparation: prefix-code compression with random padding, then
invertible extraction through the truncated multiplicative hash.

``compress`` maps every message to a fixed-length string whose tail is
padding the caller draws uniform; because the code is prefix-free the
padding needs no delimiter and costs nothing to remember.  ``randomize``
multiplies that string, as an element of GF(2^l0), by a nonzero seed w of
the same length and splits the product into the near-uniform part ``m``
and the locally stored remainder ``m_nabla``; ``derandomize`` multiplies
``m || m_nabla`` by w^-1.  Seed and strings are all ``Bits``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import kv
from .bits import Bits
from .entropy import DiscreteDistribution
from .gf2 import GF2Field, NonInvertibleError


class ParseError(ValueError):
    """No codeword is a prefix of the given string."""


class UnknownMessageError(ValueError):
    """Message has no codeword in the prefix code."""


@dataclass(frozen=True)
class PrefixCode:
    codewords: dict[int, Bits]

    def __post_init__(self):
        if not self.codewords:
            raise ValueError("empty codeword table")
        decode = {
            (cw.length, cw.value): message for message, cw in self.codewords.items()
        }
        if len(decode) != len(self.codewords):
            raise ValueError("duplicate codewords")
        # a prefix-free binary table has Kraft sum <= 1, so there is no
        # separate Kraft check
        strings = sorted(cw.to_01() for cw in self.codewords.values())
        for a, b in zip(strings, strings[1:]):
            if b.startswith(a):
                raise ValueError(f"codeword {a} is a prefix of {b}")
        lengths = sorted({length for length, _ in decode})
        object.__setattr__(self, "_decode", decode)
        object.__setattr__(self, "_lengths", tuple(lengths))
        object.__setattr__(self, "_max_len", lengths[-1])

    @property
    def max_len(self) -> int:
        """Length of the longest codeword; the padded length l0."""
        return self.__dict__["_max_len"]

    def codeword(self, message: int) -> Bits:
        """The codeword of ``message``; UnknownMessageError if it has none."""
        try:
            return self.codewords[message]
        except KeyError:
            raise UnknownMessageError(
                f"message {message} has no codeword in the prefix code"
            ) from None

    def average_length(self, dist: DiscreteDistribution) -> float:
        return float(
            sum(p * self.codewords[int(o)].length for o, p in zip(dist.outcomes, dist.probs))
        )

    def parse(self, word: Bits) -> tuple[int, int]:
        """Parse the unique codeword prefix; returns (message, codeword length)."""
        decode, value = self.__dict__["_decode"], word.value
        for length in self.__dict__["_lengths"]:  # ascending
            if length > word.length:
                break
            message = decode.get((length, value & ((1 << length) - 1)))
            if message is not None:
                return message, length
        raise ParseError(f"no codeword prefixes {word!r}")

    # -- text form: "message-id codeword" per line --------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for message in sorted(self.codewords):
                fh.write(f"{message} {self.codewords[message].to_01()}\n")

    @classmethod
    def load(cls, path) -> "PrefixCode":
        """The code in ``path``; a refused table is a ValueError naming it."""
        table = kv.load_table(path, Bits.from_01)
        try:
            return cls(table)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_prefix_code(dist: DiscreteDistribution) -> PrefixCode:
    """Huffman code with deterministic tie-breaking (stable by message id)."""
    if dist.support_size == 0:
        raise ValueError("empty support")
    order = np.argsort(dist.outcomes)
    heap = []
    for seq, idx in enumerate(order):
        heap.append((float(dist.probs[idx]), seq, int(dist.outcomes[idx])))
    if len(heap) == 1:
        return PrefixCode({heap[0][2]: Bits.zeros(0)})
    heapq.heapify(heap)
    counter = len(heap)
    trees: dict[int, object] = {item[1]: item[2] for item in heap}
    while len(heap) > 1:
        p1, s1, _ = heapq.heappop(heap)
        p2, s2, _ = heapq.heappop(heap)
        trees[counter] = (trees.pop(s1), trees.pop(s2))
        heapq.heappush(heap, (p1 + p2, counter, -1))
        counter += 1
    table: dict[int, Bits] = {}
    stack = [(trees.popitem()[1], "")]
    while stack:
        node, word = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], word + "0"))
            stack.append((node[1], word + "1"))
        else:
            table[node] = Bits.from_01(word)
    return PrefixCode(table)


def example1_code(L: int) -> PrefixCode:
    """The explicit code behind :func:`tamperstore.entropy.example1`.

    The heavy message, all ones, gets the single bit '1'; every other
    message mu is sent as '0' followed by the L bits of mu.  L must be at
    least 1.
    """
    if L < 1:
        raise ValueError(f"example1 needs L >= 1, got {L}")
    mu0 = (1 << L) - 1
    table = {mu0: Bits.from_01("1")}
    for mu in range(1 << L):
        if mu != mu0:
            table[mu] = Bits(mu << 1, L + 1)
    return PrefixCode(table)


def compress(message: int, code: PrefixCode, padding: int) -> Bits:
    """Codeword followed by padding up to the longest-codeword length.

    The padding is the first max_len - len(codeword) bits of the
    nonnegative int ``padding``; its higher bits are dropped.  The caller
    draws it uniform, so the output's tail is uniform and needs no
    delimiter.
    """
    cw, l0 = code.codeword(message), code.max_len
    pad_mask = (1 << (l0 - cw.length)) - 1
    return Bits(cw.value | ((padding & pad_mask) << cw.length), l0)


def decompress(padded: Bits, code: PrefixCode) -> int:
    """Parse the unique codeword prefix and discard the padding."""
    message, _ = code.parse(padded)
    return message


@dataclass(frozen=True)
class RandomizedMessage:
    m: Bits
    m_nabla: Bits


def randomize(padded: Bits, w: Bits, l: int) -> RandomizedMessage:
    """Split w * padded in GF(2^l0), l0 = len(padded), into the first l bits
    and the remainder.  The seed w must be a nonzero string of length l0."""
    if w.value == 0:
        raise NonInvertibleError("seed w must be nonzero")
    if w.length != padded.length:
        raise ValueError(f"padded length {padded.length} != seed length {w.length}")
    if l > w.length:
        raise ValueError("l exceeds the padded length")
    product = Bits(GF2Field(w.length).mul_int(w.value, padded.value), w.length)
    return RandomizedMessage(product.first(l), product[l:])


def derandomize(m: Bits, m_nabla: Bits, w: Bits) -> Bits:
    """Invert :func:`randomize`: multiply the reassembled product by w^-1."""
    if w.value == 0:
        raise NonInvertibleError("seed w must be nonzero")
    product = m.concat(m_nabla)
    if product.length != w.length:
        raise ValueError("m || m_nabla length does not match the seed length")
    field = GF2Field(w.length)
    return Bits(field.mul_int(field.inv_int(w.value), product.value), w.length)
