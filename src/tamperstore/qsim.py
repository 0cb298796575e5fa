"""Stochastic simulation of BB84 product states.

Honest states are unentangled product states and every modeled intervention
acts cell by cell (measure in some basis, or replace), so a classical
hidden-record simulation reproduces the exact single-qubit statistics:
measuring in the preparation basis returns the stored bit (plus any
accumulated noise flips), measuring in the other basis returns a fresh
uniform bit, and either way the record collapses to the measured
basis/value so earlier information is unrecoverable.  Fresh bits come
from 32-bit words, four cells to a word (the top bit of each byte, low
byte first): the values and generator state of ``rng.integers(0, 2, n,
dtype=np.uint8)`` from one cheaper call.

Attack strategies (``tamperstore.experiments``) never see the hidden
records; they act through :class:`EveView`, whose only read operation is
a collapsing measurement.

The simulator speaks 0/1 uint8 arrays, one cell per qubit: ``prepare``
takes the cell values and bases, ``measure`` returns the outcome array,
and a register, ``measure_indices`` and ``replace_cells`` reject any basis
or value outside {0, 1}.  Both also take their cells by one shared check:
a 1-d integer index array (a float or bool array is refused, not truncated
or read as 0/1), every index in [0, size), negative ones included, no cell
listed twice, and exactly one basis (and value) per listed cell.  Every
refusal is a ``ValueError`` raised before anything is drawn or written.
On valid cells the collapse is branch-free: the
outcome is value ^ ((value ^ fresh) & (requested ^ basis)), the stored
value where the bases agree and the fresh uniform bit where they differ,
which costs the same whatever share of bases disagree.  Eve's
``measure_indices`` draws one fresh cell per listed cell either way;
``measure``, the client's full read-out, draws none when every requested
basis is the cell's own, since no fresh bit would be read.  ``TrapLayout``
keeps its trap string as a read-only 0/1 ``mask`` (``random`` seeds it
from the draw, so the string is never unpacked again) and derives its
index arrays from it once.  ``traps`` packs the trap part of a word, so
a caller can test the traps before it touches the payload, which stays
cells (``word[payload_indices]``), the word type the codes take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import Bits, random_words

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrapLayout:
    """Trap positions t (its weight is the trap count r) and the induced index
    split; ``traps`` packs the trap part, and the payload part stays cells."""

    t: Bits

    @property
    def r(self) -> int:
        return self.t.weight()

    @classmethod
    def random(cls, total: int, r: int, rng: np.random.Generator) -> "TrapLayout":
        if not 0 <= r <= total:
            raise ValueError("r out of range")
        mask = np.zeros(total, dtype=np.uint8)
        mask[rng.choice(total, size=r, replace=False)] = 1
        layout = cls(Bits.from_array(mask))
        mask.flags.writeable = False
        layout.__dict__["mask"] = mask  # seeds the cached property from the draw
        return layout

    @cached_property
    def mask(self) -> np.ndarray:
        """t as a 0/1 uint8 array (the cells' bases); computed once, read-only."""
        mask = self.t.to_array()
        mask.flags.writeable = False
        return mask

    @cached_property
    def trap_indices(self) -> np.ndarray:
        """Trap positions, ascending; computed once per layout, read-only."""
        indices = np.flatnonzero(self.mask.view(bool))
        indices.flags.writeable = False
        return indices

    @cached_property
    def payload_indices(self) -> np.ndarray:
        """Payload positions, ascending; computed once per layout, read-only."""
        indices = np.flatnonzero(~self.mask.view(bool))
        indices.flags.writeable = False
        return indices

    def traps(self, word: np.ndarray) -> Bits:
        """The trap part v of a 0/1 word, in ascending position order."""
        return Bits.from_array(word[self.trap_indices])


def _cells(values, what: str) -> np.ndarray:
    """values as a new 1-d uint8 array; ValueError unless every entry is 0 or 1.

    The branch-free collapse is exact only on such cells.  Only a signed
    array can hold a negative entry, so only a signed one pays for the
    ``min``.  The result is always a copy, so a register never shares its
    records with a caller's array.
    """
    cells = np.asarray(values)
    if cells.ndim != 1:
        raise ValueError(f"{what} must be a 1-d array")
    kind = cells.dtype.kind
    if cells.size and not (
        kind in "biu" and cells.max() <= 1 and (kind != "i" or cells.min() >= 0)
    ):
        raise ValueError(f"{what} must be 0/1 cells")
    return cells.astype(np.uint8)


class QubitRegister:
    """A register of prepared qubits; records are private to the simulator."""

    def __init__(self, basis: np.ndarray, value: np.ndarray):
        self.__basis = _cells(basis, "basis")
        self.__value = _cells(value, "value")
        if self.__basis.shape != self.__value.shape:
            raise ValueError("basis/value arrays must be aligned 1-d")

    @property
    def size(self) -> int:
        return int(self.__basis.size)

    # -- simulator-internal access (name-mangled attributes) -----------------

    def _records(self) -> tuple[np.ndarray, np.ndarray]:
        return self.__basis, self.__value

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
        planes = []
        for what, start in (("basis", 5), ("value", 5 + nbytes)):
            bits = np.unpackbits(
                np.frombuffer(raw[start : start + nbytes], dtype=np.uint8), bitorder="little"
            )
            if bits[size:].any():
                raise ValueError(f"{what} plane of {size} qubits has nonzero padding bits")
            planes.append(bits[:size])
        return cls(*planes)


def prepare(xi: np.ndarray, t: np.ndarray) -> QubitRegister:
    """Encode cell j of xi in the Hadamard basis where t_j = 1, else standard."""
    if np.shape(xi) != np.shape(t):
        raise ValueError("xi and t must have equal length")
    return QubitRegister(t, xi)


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


def _random_cells(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform 0/1 cells, equal in value and generator state to
    ``rng.integers(0, 2, n, dtype=np.uint8)``.

    numpy draws such a cell (Lemire's method on 8 bits) by reading the
    next byte of a buffered 32-bit word, low byte first, and keeping its
    top bit; the buffer starts empty on every call.  So cell j is the top
    bit of byte j of ceil(n / 4) words drawn in one call.
    """
    return random_words((n + 3) >> 2, rng).view(np.uint8)[:n] >> 7


def _collapse(value: np.ndarray, differ: np.ndarray, rng) -> np.ndarray:
    """Outcomes of measuring 0/1 cells of the given values, where ``differ``
    marks the cells whose requested basis is not their own.

    Agreeing cells return the value, differing ones a fresh uniform bit;
    one fresh cell is drawn per listed cell either way, by
    ``_random_cells``, so every four cells take one 32-bit word.
    """
    fresh = _random_cells(value.size, rng)
    return value ^ ((value ^ fresh) & differ)


def measure(reg: QubitRegister, bases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Measure every cell; collapses the register onto the outcome array.

    The client's full read-out: when every requested basis is the cell's
    own, the outcome is a copy of the values and ``rng`` is not drawn from;
    otherwise one fresh bit is drawn per cell, as ``measure_indices`` does.
    """
    requested = _cells(bases, "bases")
    if requested.size != reg.size:
        raise ValueError("need one basis choice per cell")
    basis, value = reg._records()
    differ = requested ^ basis
    if np.count_nonzero(differ):
        outcome = _collapse(value, differ, rng)
        basis[:] = requested
        value[:] = outcome
    else:
        outcome = value.copy()
    return outcome


def _listed(reg: QubitRegister, indices, *per_cell: np.ndarray) -> np.ndarray:
    """indices as an array of distinct cells of reg, each with one entry in
    every ``per_cell`` array; ValueError otherwise.

    A repeat is refused because the collapse reads every listed cell as it
    was before the call, so it would measure one cell in two bases without
    the first measurement disturbing it (and a replace would keep only the
    last write).  Repeats are found with a mask, not a sort.
    """
    listed = np.asarray(indices)
    if listed.ndim != 1 or listed.dtype.kind not in "iu":
        raise ValueError("cell indices must be a 1-d integer array")
    if any(cells.shape != listed.shape for cells in per_cell):
        raise ValueError("need one basis (and value) per listed cell")
    if listed.size and (listed.min() < 0 or listed.max() >= reg.size):
        raise ValueError(f"cell index outside [0, {reg.size})")
    seen = np.zeros(reg.size, dtype=bool)
    seen[listed] = True
    if np.count_nonzero(seen) != listed.size:
        raise ValueError("a cell is listed more than once")
    return listed


def measure_indices(
    reg: QubitRegister, indices: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure a subset of distinct cells (same collapse semantics)."""
    basis, value = reg._records()
    requested = _cells(bases, "bases")
    indices = _listed(reg, indices, requested)
    outcome = _collapse(value[indices], requested ^ basis[indices], rng)
    basis[indices] = requested
    value[indices] = outcome
    return outcome


def replace_cells(
    reg: QubitRegister, indices: np.ndarray, bases: np.ndarray, values: np.ndarray
) -> None:
    """Discard the listed distinct cells and install freshly prepared ones."""
    basis, value = reg._records()
    new_basis, new_value = _cells(bases, "bases"), _cells(values, "values")
    indices = _listed(reg, indices, new_basis, new_value)
    basis[indices] = new_basis
    value[indices] = new_value


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
