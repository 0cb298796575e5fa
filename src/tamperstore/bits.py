"""Fixed-length bit strings.

A ``Bits`` value is an immutable sequence of bits backed by a Python int.
Bit index 0 is the *first* bit: it is the constant coefficient when the
string is read as a polynomial over GF(2), and it is the first bit sent
when the string is parsed left to right (prefix codes, "first l bits"
truncation, concatenation).  With that convention, the first ``l`` bits
of ``b`` are simply ``b.value & ((1 << l) - 1)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Bits:
    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.value < 0 or (self.length < self.value.bit_length()):
            raise ValueError(f"value {self.value:#x} does not fit in {self.length} bits")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        return cls(0, length)

    @classmethod
    def from_01(cls, text: str) -> "Bits":
        """Parse a transmission-order string: first character is bit 0."""
        text = text.strip()
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                value |= 1 << i
        return cls(value, len(text))

    @classmethod
    def from_array(cls, arr) -> "Bits":
        """Build from a 0/1 array; element i becomes bit i."""
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("expected a 1-d array")
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(int.from_bytes(packed, "little"), int(arr.size))

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "Bits":
        """Uniform bits, drawn as ``rng.bytes(ceil(length / 8))`` draws them.

        That is ceil(length / 32) 32-bit words, and one word when length
        is 0; see :meth:`random_many`.
        """
        return cls.random_many((length,), rng)[0]

    @classmethod
    def random_many(cls, lengths: Sequence[int], rng: np.random.Generator) -> list["Bits"]:
        """One uniform string per length, in one generator call.

        String i takes the next max(1, ceil(lengths[i] / 32)) 32-bit words
        of ``rng.integers(0, 2**32, dtype=np.uint32)`` and keeps their first
        lengths[i] bits, little-endian.  So the values and the generator
        state equal those of one ``rng.bytes(ceil(length / 8))`` per
        string, taken in order; numpy's ``bytes`` draws a word even for
        length 0.
        """
        counts = [_word_count(length) for length in lengths]
        raw = random_words(sum(counts), rng).tobytes()
        out, start = [], 0
        for length, count in zip(lengths, counts):
            value = int.from_bytes(raw[start : start + 4 * count], "little")
            out.append(cls(value & ((1 << length) - 1), length))
            start += 4 * count
        return out

    # -- views -------------------------------------------------------------

    def to_01(self) -> str:
        return format(self.value, f"0{self.length}b")[::-1] if self.length else ""

    def to_array(self) -> np.ndarray:
        raw = self.value.to_bytes((self.length + 7) // 8 or 1, "little")
        arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return arr[: self.length].copy()

    def hex(self) -> str:
        nbytes = (self.length + 7) // 8
        return self.value.to_bytes(max(nbytes, 1), "little").hex() if self.length else ""

    @classmethod
    def from_hex(cls, text: str, length: int) -> "Bits":
        """Inverse of :meth:`hex`: exactly ceil(length/8) bytes, no excess bits."""
        raw = bytes.fromhex(text)
        if len(raw) != (length + 7) // 8:
            raise ValueError(f"{len(raw)} hex bytes for {length} bits")
        return cls(int.from_bytes(raw, "little"), length)

    # -- operations --------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.length)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            width = max(stop - start, 0)
            return Bits((self.value >> start) & ((1 << width) - 1), width)
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __xor__(self, other: "Bits") -> "Bits":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return Bits(self.value ^ other.value, self.length)

    def concat(self, other: "Bits") -> "Bits":
        return Bits(self.value | (other.value << self.length), self.length + other.length)

    def first(self, l: int) -> "Bits":
        if l > self.length:
            raise ValueError(f"cannot take {l} bits from {self.length}")
        return Bits(self.value & ((1 << l) - 1), l)

    def weight(self) -> int:
        return self.value.bit_count()

    def flip(self, i: int) -> "Bits":
        if not 0 <= i < self.length:
            raise IndexError(i)
        return Bits(self.value ^ (1 << i), self.length)

    def __repr__(self) -> str:
        body = self.to_01() if self.length <= 64 else self.to_01()[:61] + "..."
        return f"Bits<{self.length}>({body})"


def random_words(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform 32-bit words in one generator call, little-endian
    in memory, so byte j of the result is byte j of the drawn stream.

    Each word is one ``next_uint32`` of the bit generator, buffered half
    word included, so one call of k1 + k2 words gives the values and the
    state of a call of k1 words followed by one of k2; ``store`` relies on
    this to draw its padding, seed w and cells xi in one call.

    One ``integers`` call costs about 5-6 us whatever the count (2-vCPU
    x86-64 guest, numpy 2.4).  Calling ``rng.bit_generator.ctypes.next_uint32``
    per word gives the same words and state at about 1.5 us a word, and
    numpy builds that ``ctypes`` interface on first use, about 5.5 us per
    generator; a session draws from a fresh generator, and its only draws
    of a few words share a call with the ~120 words of xi, so that route
    is not taken.
    """
    return rng.integers(0, 1 << 32, count, dtype=np.uint32).astype("<u4", copy=False)


def _word_count(length: int) -> int:
    """Words ``rng.bytes(ceil(length / 8))`` draws: numpy's C code takes
    (nbytes - 1) // 4 + 1 with C division, which is 1 for nbytes = 0."""
    return max(1, (length + 31) >> 5)
