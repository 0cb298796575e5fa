"""Stochastic simulation of BB84 product states.

Honest states are unentangled product states and every modeled intervention
acts cell by cell (measure in some basis, or replace), so a classical
hidden-record simulation reproduces the exact single-qubit statistics:
measuring in the preparation basis returns the stored bit (plus any
accumulated noise flips), measuring in the other basis returns a fresh
uniform bit, and either way the record collapses to the measured
basis/value so earlier information is unrecoverable.

Attack strategies never see the hidden records; they act through
:class:`EveView`, whose only read operation is a collapsing measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import Bits

STANDARD = 0
HADAMARD = 1

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrapLayout:
    """Trap positions t (weight exactly r) and the induced index split."""

    t: Bits
    r: int

    def __post_init__(self):
        if self.t.weight() != self.r:
            raise ValueError(f"trap string weight {self.t.weight()} != r = {self.r}")

    @classmethod
    def random(cls, total: int, r: int, rng: np.random.Generator) -> "TrapLayout":
        if not 0 <= r <= total:
            raise ValueError("r out of range")
        mask = np.zeros(total, dtype=np.uint8)
        mask[rng.choice(total, size=r, replace=False)] = 1
        return cls(Bits.from_array(mask), r)

    @cached_property
    def trap_indices(self) -> np.ndarray:
        """Trap positions, ascending; computed once per layout, read-only."""
        indices = np.flatnonzero(self.t.to_array().view(bool))
        indices.flags.writeable = False
        return indices

    @cached_property
    def payload_indices(self) -> np.ndarray:
        """Payload positions, ascending; computed once per layout, read-only."""
        indices = np.flatnonzero(~self.t.to_array().view(bool))
        indices.flags.writeable = False
        return indices

    def split(self, word: Bits) -> tuple[Bits, Bits]:
        """(trap part v, payload part x), each in ascending position order."""
        arr = word.to_array()
        return (
            Bits.from_array(arr[self.trap_indices]),
            Bits.from_array(arr[self.payload_indices]),
        )

    def merge(self, traps: Bits, payload: Bits) -> Bits:
        arr = np.empty(self.t.length, dtype=np.uint8)
        arr[self.trap_indices] = traps.to_array()
        arr[self.payload_indices] = payload.to_array()
        return Bits.from_array(arr)


class QubitRegister:
    """A register of prepared qubits; records are private to the simulator."""

    def __init__(self, basis: np.ndarray, value: np.ndarray):
        self.__basis = np.asarray(basis, dtype=np.uint8).copy()
        self.__value = np.asarray(value, dtype=np.uint8).copy()
        if self.__basis.shape != self.__value.shape or self.__basis.ndim != 1:
            raise ValueError("basis/value arrays must be aligned 1-d")

    @property
    def size(self) -> int:
        return int(self.__basis.size)

    # -- simulator-internal access (name-mangled attributes) -----------------

    def _records(self) -> tuple[np.ndarray, np.ndarray]:
        return self.__basis, self.__value

    def copy(self) -> "QubitRegister":
        return QubitRegister(self.__basis, self.__value)

    # -- checkpointing ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Simulation checkpoint (versioned); not a physical wire format."""
        packed_b = np.packbits(self.__basis, bitorder="little").tobytes()
        packed_v = np.packbits(self.__value, bitorder="little").tobytes()
        return (
            bytes([_CHECKPOINT_VERSION])
            + self.size.to_bytes(4, "little")
            + packed_b
            + packed_v
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "QubitRegister":
        if len(raw) < 5:
            raise ValueError(f"checkpoint of {len(raw)} bytes has no header")
        if raw[0] != _CHECKPOINT_VERSION:
            raise ValueError(f"unknown checkpoint version {raw[0]}")
        size = int.from_bytes(raw[1:5], "little")
        nbytes = (size + 7) // 8
        if len(raw) != 5 + 2 * nbytes:
            raise ValueError(f"checkpoint of {size} qubits has {len(raw)} bytes")
        basis = np.unpackbits(
            np.frombuffer(raw[5 : 5 + nbytes], dtype=np.uint8), bitorder="little"
        )[:size]
        value = np.unpackbits(
            np.frombuffer(raw[5 + nbytes : 5 + 2 * nbytes], dtype=np.uint8),
            bitorder="little",
        )[:size]
        return cls(basis, value)


def prepare(xi: Bits, t: Bits, r: int) -> QubitRegister:
    """Encode bit j of xi in the Hadamard basis where t_j = 1, else standard."""
    if xi.length != t.length:
        raise ValueError("xi and t must have equal length")
    if t.weight() != r:
        raise ValueError(f"trap string weight {t.weight()} != r = {r}")
    return QubitRegister(t.to_array(), xi.to_array())


def apply_storage_noise(
    reg: QubitRegister, beta0: float, rng: np.random.Generator
) -> QubitRegister:
    """Independent same-basis bit flip with probability beta0 per cell."""
    if not 0 <= beta0 < 0.5:
        raise ValueError("beta0 outside [0, 1/2)")
    basis, value = reg._records()
    flips = (rng.random(reg.size) < beta0).astype(np.uint8)
    value ^= flips
    return reg


def measure(reg: QubitRegister, bases: Bits, rng: np.random.Generator) -> Bits:
    """Measure every cell; collapses the register onto the outcome."""
    if bases.length != reg.size:
        raise ValueError("need one basis choice per cell")
    basis, value = reg._records()
    requested = bases.to_array()
    fresh = rng.integers(0, 2, reg.size, dtype=np.uint8)
    outcome = np.where(requested == basis, value, fresh).astype(np.uint8)
    basis[:] = requested
    value[:] = outcome
    return Bits.from_array(outcome)


def measure_indices(
    reg: QubitRegister, indices: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure a subset of cells (same collapse semantics)."""
    basis, value = reg._records()
    indices = np.asarray(indices, dtype=np.int64)
    requested = np.asarray(bases, dtype=np.uint8)
    fresh = rng.integers(0, 2, indices.size, dtype=np.uint8)
    outcome = np.where(requested == basis[indices], value[indices], fresh).astype(np.uint8)
    basis[indices] = requested
    value[indices] = outcome
    return outcome


def replace_cells(
    reg: QubitRegister, indices: np.ndarray, bases: np.ndarray, values: np.ndarray
) -> None:
    """Discard the listed cells and install freshly prepared ones."""
    basis, value = reg._records()
    indices = np.asarray(indices, dtype=np.int64)
    basis[indices] = np.asarray(bases, dtype=np.uint8)
    value[indices] = np.asarray(values, dtype=np.uint8)


class EveView:
    """The only handle an attack strategy gets on the stored qubits.

    Exposes collapsing measurement and re-preparation, nothing else; in
    particular there is no way to read a preparation record directly.
    """

    def __init__(self, reg: QubitRegister):
        self.__reg = reg

    @property
    def size(self) -> int:
        return self.__reg.size

    def measure(self, indices, bases, rng: np.random.Generator) -> np.ndarray:
        return measure_indices(self.__reg, indices, bases, rng)

    def replace(self, indices, bases, values) -> None:
        replace_cells(self.__reg, indices, bases, values)


PUBLIC_EVE_API = ("measure", "replace", "size")


@dataclass(frozen=True)
class EveStrategy:
    """Named intervention acting through the legal interface only."""

    name: str

    def apply(self, view: EveView, transcript: dict, rng: np.random.Generator) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class PassiveEve(EveStrategy):
    name: str = "passive"

    def apply(self, view, transcript, rng):
        return None


@dataclass(frozen=True)
class InterceptResend(EveStrategy):
    """Measure every cell under a basis policy; collapse re-prepares them.

    Policies: "random-basis" (uniform per cell), "all-standard",
    "all-hadamard".
    """

    name: str = "intercept-resend"
    policy: str = "random-basis"

    def __post_init__(self):
        if self.policy not in ("random-basis", "all-standard", "all-hadamard"):
            raise ValueError(f"unknown basis policy {self.policy!r}")

    def apply(self, view, transcript, rng):
        n = view.size
        if self.policy == "random-basis":
            bases = rng.integers(0, 2, n, dtype=np.uint8)
        elif self.policy == "all-standard":
            bases = np.zeros(n, dtype=np.uint8)
        else:
            bases = np.ones(n, dtype=np.uint8)
        outcomes = view.measure(np.arange(n), bases, rng)
        transcript.setdefault("eve_records", []).append((bases, outcomes))


@dataclass(frozen=True)
class ClassicalTamper(EveStrategy):
    """Flip one bit of a classical transcript field, leave the qubits alone."""

    name: str = "classical-tamper"
    field: str = "c"
    bit: int = 0

    def apply(self, view, transcript, rng):
        word = transcript[self.field]
        transcript[self.field] = word.flip(self.bit % max(word.length, 1))
