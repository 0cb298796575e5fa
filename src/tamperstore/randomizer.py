"""Message preparation: prefix-code compression with random padding, then
invertible extraction through the truncated multiplicative hash.

``compress`` pads every message's codeword to a fixed-length string whose
tail the caller draws uniform; because the code is prefix-free the
padding needs no delimiter and costs nothing to remember.  ``randomize``
multiplies that string, as an element of GF(2^l0), by a nonzero seed w of
the same length and splits the product into the near-uniform part ``m``
and the locally stored remainder ``m_nabla``; ``derandomize`` multiplies
``m || m_nabla`` by w^-1.  Seed and strings are all ``Bits``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kv
from .bits import Bits
from .entropy import DiscreteDistribution, example1, parse_dist
from .gf2 import GF2Field, NonInvertibleError


class ParseError(ValueError):
    """No codeword is a prefix of the given string."""


class UnknownMessageError(ValueError):
    """Message has no codeword in the prefix code."""


@dataclass(frozen=True)
class PrefixCode:
    codewords: dict[int, Bits]
    # the message law the code was built for; a table read back from a file has none
    law: DiscreteDistribution | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.codewords:
            raise ValueError("empty codeword table")
        if self.law is not None and not self.codewords.keys() >= set(self.law.outcomes.tolist()):
            raise ValueError("the law has a message with no codeword")
        decode = {(cw.length, cw.value): message for message, cw in self.codewords.items()}
        if len(decode) != len(self.codewords):
            raise ValueError("duplicate codewords")
        # a prefix-free binary table has Kraft sum <= 1: no separate Kraft check
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

    def average_length(self) -> float:
        law = _law(self)
        return float(sum(p * self.codeword(int(o)).length for o, p in zip(law.outcomes, law.probs)))

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
        """The record or law-less table in ``path``; a refused file is a ValueError naming it."""
        with open(path, "rb") as fh:
            headers = (n for n, line in enumerate(fh, 1) if line.startswith(b"# tamperstore "))
            header = next(headers, 0)  # the line of the first record header, 0 for none
        if header == 1:
            return kv.load(path, "prefix_code", Example1Code.from_kv)
        if header:
            raise ValueError(f"{path}, line {header}: a record's header must be on line 1")
        table = kv.load_table(path, Bits.from_01)
        try:
            return cls(table)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_prefix_code(dist: DiscreteDistribution) -> PrefixCode:
    """Huffman code of ``dist``, its law, with deterministic tie-breaking (stable by message id)."""
    order = np.argsort(dist.outcomes)
    heap = [(float(dist.probs[i]), seq, int(dist.outcomes[i])) for seq, i in enumerate(order)]
    heapq.heapify(heap)
    for seq in range(len(heap), 2 * len(heap) - 1):  # seq breaks every tie
        p1, _, first = heapq.heappop(heap)
        p2, _, second = heapq.heappop(heap)
        heapq.heappush(heap, (p1 + p2, seq, (first, second)))
    table, stack = {}, [(heap[0][2], Bits.zeros(0))]
    while stack:
        node, word = stack.pop()
        if isinstance(node, tuple):  # '0' leads into the subtree popped first
            stack += [(node[0], word.concat(Bits(0, 1))), (node[1], word.concat(Bits(1, 1)))]
        else:
            table[node] = word
    return PrefixCode(table, dist)


@dataclass(frozen=True)
class Example1Code(PrefixCode):
    """The code of :func:`tamperstore.entropy.example1` by its rule, L >= 1: the heavy
    message 2^L - 1 is '1', any other mu is '0' and the L bits of mu."""

    codewords: None = field(default=None, init=False, repr=False, compare=False)  # no table
    law: DiscreteDistribution = field(  # example1(L), built the first time it is read
        default=cached_property(lambda c: example1(c.L)), init=False, compare=False, repr=False
    )
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"example1 needs L >= 1, got {self.L}")
        object.__setattr__(self, "_max_len", self.L + 1)

    def codeword(self, message: int) -> Bits:
        heavy = (1 << self.L) - 1
        if message not in range(heavy + 1):  # an int in O(1), any other type by value
            raise UnknownMessageError(f"message {message} has no codeword in the prefix code")
        return Bits(1, 1) if message == heavy else Bits(int(message) << 1, self.L + 1)

    def parse(self, word: Bits) -> tuple[int, int]:
        heavy = (1 << self.L) - 1
        mu = (word.value >> 1) & heavy
        if word.value & 1:
            return heavy, 1
        if word.length > self.L and mu != heavy:
            return mu, self.L + 1
        raise ParseError(f"no codeword prefixes {word!r}")

    def dump(self, path) -> None:
        kv.dump(path, "prefix_code", {"source": f"example1:{self.L}"})

    @classmethod
    def from_kv(cls, mapping: dict) -> "Example1Code":
        """Inverse of :meth:`dump`; a source other than example1 is refused."""
        kv.check("prefix_code", mapping, {"source": str}, {})
        kind, _, arg = mapping["source"].partition(":")
        if kind != "example1":
            raise ValueError(f"unknown prefix code source {mapping['source']!r}")
        return cls(kv.decimal(arg))


example1_code = Example1Code


def prefix_code_for(spec: str, dist: DiscreteDistribution | None = None) -> PrefixCode:
    """The explicit code of "example1:<L>", else the Huffman code of the
    distribution ``spec`` names; either carries that distribution as its law.
    A caller that has read it passes it as ``dist``, so a "file:" table is read once."""
    kind, _, arg = spec.partition(":")
    if kind == "example1":
        return example1_code(kv.decimal(arg))
    return build_prefix_code(parse_dist(spec) if dist is None else dist)


def compress(codeword: Bits, l0: int, padding: int) -> Bits:
    """A message's codeword followed by padding up to l0, the code's ``max_len``.

    The padding is the first l0 - len(codeword) bits of the nonnegative int
    ``padding``; its higher bits are dropped.  The caller draws it uniform,
    so the output's tail is uniform and needs no delimiter.
    """
    pad_mask = (1 << (l0 - codeword.length)) - 1
    return Bits(codeword.value | ((padding & pad_mask) << codeword.length), l0)


def _law(code: PrefixCode) -> DiscreteDistribution:
    if code.law is None:
        raise ValueError("the prefix code has no law (a table read from a file has none)")
    return code.law


def padded_law(code: PrefixCode) -> DiscreteDistribution:
    """The law of :func:`compress` for m drawn from ``code.law`` and a uniform
    padding: m's codeword followed by any one of its 2^pad tails has p(m) / 2^pad.
    Outcome ids are the padded strings as int64, so ``code.max_len`` is below 64."""
    ids, probs, law = [], [], _law(code)
    for message, p in zip(law.outcomes.tolist(), law.probs.tolist()):
        cw = code.codeword(message)
        pad = code.max_len - cw.length
        ids.append(np.arange(1 << pad, dtype=np.int64) << cw.length | cw.value)
        probs.append(np.full(1 << pad, p / (1 << pad)))
    return DiscreteDistribution(np.concatenate(ids), np.concatenate(probs))


def decompress(padded: Bits, code: PrefixCode) -> int:
    """Parse the unique codeword prefix and discard the padding."""
    return code.parse(padded)[0]


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
