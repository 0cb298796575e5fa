"""Binary linear codes exposing syndrome computation and syndrome decoding.

There is one code family, the one the parameter recipe picks from:
concatenated codes, a shortened Reed-Solomon code over GF(2^8) outside and
the first-order Reed-Muller [128, 8, 64] code inside.  They reach the
large guaranteed correction radii the protocol recipe needs (a fraction
of n close to 1/8 at small message lengths).  ``CodeRegistry`` holds exactly the menu of outer (N, K) pairs
that ``params.derive_params`` searches; ``RmRsCode.spec_of`` is the one
place a menu entry's name, n, kappa and t_corr are worked out.

The GF(2^8) symbol arithmetic is ``gf2.GFTable``.  The Reed-Solomon
syndrome map, its preimage (a closed-form Vandermonde inverse built once
per code), the Chien search (at points also built once per code) and the
Forney step each act on whole symbol arrays through its gathers; only
Berlekamp-Massey runs symbol by symbol.

Both syndrome maps are GF(2)-linear in the packed bytes of a word, so
each is applied by byte lookup, as a CRC is: one gather of a table row
per byte and one XOR over the rows.  The inner map takes a 128-cell
block's 16 packed bytes to its 120 check bits and its symbol (``_InnerRM``,
one 64 KB table); the outer map takes the symbols to the RS syndrome
(one table per code, 256 rows per position: 82 KB at rs(20,4), 1.4 MB
at rs(76,5), 15.7 MB at rs(255,16)).  Both tables are built once, by XOR
doubling from the images of single bits.  The preimage's fixed matrix is
kept as logs, so a product with it gathers only the vector's logs.

Words are cells in, cells out: 0/1 uint8 arrays of length n.
``syn(cells)`` is the syndrome, a ``Bits``.  ``syn_dec(s, received)``, one
mode, finds the pattern e, as cells, with syn(received ^ e) = s; a bare
syndrome is decoded against zero cells.  It first compares the bytes of
syn(received) with those of s, the check bytes and then, if those match,
the outer bytes: when all are equal, as on every noise-free retrieval, e
is zero and nothing more is done.

Otherwise it decodes the difference E: the check bits of syn(received)
XOR those of s, on each block's check positions, zeros elsewhere.  The
received blocks plus s's inner part are E shifted by the codewords of the
received symbols, and the coset word of s ^ syn(received) is E shifted
by the codewords of an RS preimage.  A shift by an inner codeword shifts
a block's ML symbol by that codeword's, so each block of E is ML-decoded
once and the RS decoder moves the shifted symbols into the coset of s's
outer part.  A block of E within the inner radius of zero is certified
(its ML symbol is 0) and not transformed; under storage noise at params C
that is about two blocks in three.  The others go through the Hadamard
transform, one GEMM against the n x n +-1 matrix.  Equally near inner
codewords are ranked as the coset word's decode ranks them, so
``syn_dec(s, r)`` equals ``syn_dec(s ^ syn(r), zeros)`` always.

``t_corr`` is a guarantee: every error pattern of weight <= t_corr is
decoded exactly.  Heavier patterns may decode to a wrong pattern or
return failure (None); failure is a value, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import Bits
from .gf2 import GFTable, gf_table

_RM_M = 7  # inner Reed-Muller order parameter: [2^m, m+1, 2^(m-1)]


# ---------------------------------------------------------------------------
# Reed-Solomon decoding helpers over gf2.GFTable symbols
# ---------------------------------------------------------------------------

def _berlekamp_massey(table: GFTable, syndromes: list[int]) -> list[int]:
    """Minimal LFSR (error locator) for the given syndrome sequence."""
    C, B = [1], [1]
    L, shift, b = 0, 1, 1
    for n, sn in enumerate(syndromes):
        d = sn
        for i in range(1, L + 1):
            if i < len(C):
                d ^= table.mul(C[i], syndromes[n - i])
        if d == 0:
            shift += 1
            continue
        coef = table.mul(d, table.inv(b))
        T = list(C)
        C = C + [0] * max(0, len(B) + shift - len(C))
        for i, bi in enumerate(B):
            C[i + shift] ^= table.mul(coef, bi)
        if 2 * L <= n:
            L = n + 1 - L
            B, b, shift = T, d, 1
        else:
            shift += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return C if len(C) - 1 == L else []


# ---------------------------------------------------------------------------
# code interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    """Registry entry: the parameters of a code, known before it is built."""

    name: str
    n: int
    kappa: int
    t_corr: int

    @property
    def ratio(self) -> float:
        return self.t_corr / self.n


class LinearCode:
    name: str
    n: int
    kappa: int
    t_corr: int

    def syn(self, cells: np.ndarray) -> Bits:
        raise NotImplementedError

    def syn_dec(self, s: Bits, received: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    @property
    def syndrome_len(self) -> int:
        return self.n - self.kappa

    def _check_cells(self, cells: np.ndarray) -> None:
        if not (
            isinstance(cells, np.ndarray) and cells.dtype == np.uint8 and cells.shape == (self.n,)
        ):
            raise ValueError(f"cells must be a uint8 array of shape ({self.n},)")

    def _check_syndrome(self, s: Bits) -> None:
        if s.length != self.syndrome_len:
            raise ValueError(f"syndrome length {s.length}, expected {self.syndrome_len}")

    def __repr__(self):
        return f"{type(self).__name__}({self.name}: n={self.n}, k={self.kappa}, t={self.t_corr})"


# ---------------------------------------------------------------------------
# concatenated code: shortened Reed-Solomon outside, first-order RM inside
# ---------------------------------------------------------------------------

class _InnerRM:
    """First-order Reed-Muller [2^m, m+1, 2^(m-1)], addressed by 8-bit symbols.

    The symbol s = m0 | a << 1 names the codeword whose bit at position v
    is m0 ^ parity(a & v).  Position 0 holds m0 and position 2^j holds
    m0 ^ a_j, so these m+1 information positions fix the symbol; the other
    n - m - 1 positions are the check positions.  Encoding is one gather
    from a table of all codewords.  ``symbols`` and ``syndrome`` define a
    block's symbol and check bits; both are GF(2)-linear in the block, so
    ``images`` applies them to packed blocks through a 64 KB byte table
    built from them.  The symbol a block's information positions give is
    its hard decision; when the block is within the inner radius of that
    codeword (the weight of its check bits), the hard decision is
    certified ML.  Otherwise the ML symbols are ``symbols_at`` the largest
    |U| of the Hadamard transform ``transform``, one GEMM.
    """

    m = _RM_M
    n = 1 << m
    k = m + 1  # 8: a symbol is one byte
    t_corr = (1 << (m - 1)) // 2 - 1

    def __init__(self):
        m = self.m
        v = np.arange(self.n)
        self.gen = np.array(
            [np.ones(self.n, dtype=np.uint8)] + [(v >> j) & 1 for j in range(m)], dtype=np.uint8
        )  # k x n
        self.info = np.concatenate(([0], 1 << np.arange(m)))
        self.check = np.delete(v, self.info)
        msgs = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        self.codewords = ((msgs @ self.gen) % 2).astype(np.uint8)  # 256 x n
        # the symmetric +-1 matrix H[a, v] = (-1)^parity(a & v): the codewords with m0 = 0
        self._hadamard = 1 - 2 * self.codewords[0::2].astype(np.float32)
        self._block_table = self._image_table()
        self._block_rows = 256 * np.arange(self.n // 8)[:, None]

    def _image_table(self) -> np.ndarray:
        """The block table, (n/8 * 256, 16) bytes, 64 KB.  Row 256 j + b is
        the image of the block whose packed byte j is b and whose other
        bytes are 0: its check bits as ``syndrome`` gives them, packed
        (15 bytes), then its symbol byte.  The image is GF(2)-linear in
        the block, so the rows are built by XOR doubling from the images
        of the n single-cell blocks, 8 per byte position."""
        unit = np.eye(self.n, dtype=np.uint8)
        symbols = self.symbols(unit)
        checks = np.packbits(self.syndrome(unit, symbols), axis=1, bitorder="little")
        basis = np.concatenate((checks, symbols[:, None]), axis=1).reshape(self.n // 8, 8, 16)
        table = np.zeros((self.n // 8, 256, 16), dtype=np.uint8)
        for k in range(8):
            table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ basis[:, k, None]
        return table.reshape(-1, 16)

    def symbols(self, words: np.ndarray) -> np.ndarray:
        """(N, n) words -> (N,) symbols read off the information positions.

        Packed in order, the bits at positions 0, 1, 2, 4, ..., 2^(m-1)
        give the byte m0 | (a ^ m0 * (2^m - 1)) << 1, so a block whose m0
        is set has its other seven bits flipped back."""
        packed = np.packbits(words.take(self.info, axis=1), bitorder="little")
        return packed ^ (packed & 1) * np.uint8(0xFE)

    def encode(self, symbols: np.ndarray) -> np.ndarray:
        """(N,) symbols -> (N, n) codewords."""
        return self.codewords[symbols]

    def syndrome(self, words: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """(N, n) words and their ``symbols`` -> (N, n - k) check bits: each
        word minus the codeword with its information bits, on the check
        positions."""
        return (words ^ self.encode(symbols)).take(self.check, axis=1)

    def images(self, packed: np.ndarray) -> np.ndarray:
        """(N, n/8) blocks packed low bit first -> (N, 16) bytes: each
        block's ``syndrome`` packed low bit first (15 bytes), then its
        ``symbols`` byte.  One gather of a block table row per byte and
        one XOR over them."""
        rows = self._block_table.take(packed.T + self._block_rows, axis=0)
        return np.bitwise_xor.reduce(rows, axis=0)

    def transform(self, words: np.ndarray) -> np.ndarray:
        """(N, n) 0/1 words -> (N, n) float32 U = y H - (n/2) e0.

        U[a] = sum_v y_v (-1)^parity(a & v), less n/2 at a = 0, which is
        -1/2 of the correlation sum_v (-1)^(y_v ^ parity(a & v)) of the
        word with the codeword of symbol a << 1.  y H is one float32 GEMM
        of every word against the n x n +-1 matrix H.  Every entry is an
        integer of magnitude at most n, so float32 holds it exactly.
        """
        U = words.astype(np.float32) @ self._hadamard
        U[:, 0] -= self.n // 2
        return U

    @staticmethod
    def symbols_at(U: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The symbols of the codewords named by a in each row of U: the
        codeword of a << 1 where U[a] < 0 (the correlation is positive),
        its complement, with m0 = 1, where U[a] > 0."""
        return (U[np.arange(len(U)), a] > 0) | a << 1


@lru_cache(maxsize=None)
def _inner_rm() -> _InnerRM:
    return _InnerRM()


class RmRsCode(LinearCode):
    """Concatenation: shortened RS(N, K) over GF(2^8) outside, RM(1,7) inside.

    A block contributes a wrong outer symbol only when it holds more than
    the inner radius of errors, so every pattern of weight up to
    (t_out + 1) * (t_in + 1) - 1 is corrected.
    """

    @staticmethod
    def spec_of(outer_n: int, outer_k: int) -> CodeSpec:
        """Name, n, kappa and t_corr of RmRsCode(outer_n, outer_k), unbuilt."""
        t_out = (outer_n - outer_k) // 2
        return CodeSpec(
            f"rs({outer_n},{outer_k})*rm(1,{_InnerRM.m})",
            outer_n * _InnerRM.n,
            outer_k * _InnerRM.k,
            (t_out + 1) * (_InnerRM.t_corr + 1) - 1,
        )

    def __init__(self, outer_n: int, outer_k: int):
        self.inner = _inner_rm()
        self.table = gf_table(self.inner.k)
        if not 1 <= outer_k < outer_n <= self.table.order:
            raise ValueError("outer parameters out of range")
        self.outer_n = outer_n
        self.outer_k = outer_k
        self.redundancy = outer_n - outer_k
        self.t_out = self.redundancy // 2
        spec = self.spec_of(outer_n, outer_k)
        self.name, self.n, self.kappa, self.t_corr = spec.name, spec.n, spec.kappa, spec.t_corr
        r = self.redundancy
        self._rs_table = self._syndrome_table()
        self._rs_rows = 256 * np.arange(outer_n)
        # inverse of the syndrome map restricted to the first `redundancy`
        # symbol positions, for syndrome preimages, and its logs
        self._v_inv = self._vandermonde_inverse(self.table.pow_alpha(np.arange(r)))
        self._v_inv_log = self.table.log[self._v_inv]
        # Chien-search points: alpha^-i, the root of the locator factor of position i
        self._x_inv = self.table.pow_alpha(-np.arange(outer_n))

    # -- symbol-matrix helpers ------------------------------------------------

    def _vandermonde_inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse of V[j-1, i] = x_i^j (j = 1..r) for distinct nonzero x.

        V = W diag(x) with W[k, i] = x_i^k, so row i of the inverse is the
        coefficient vector of the Lagrange basis polynomial
        L_i(z) = P(z) / ((z - x_i) P'(x_i)), P(z) = prod_m (z - x_m),
        divided by x_i.  Every step runs over all i at once.
        """
        t = self.table
        r = x.size
        p = np.zeros(r + 1, dtype=np.int64)  # P, lowest coefficient first
        p[0] = 1
        for xm in x:  # p <- p * (z + xm)
            p[1:] = p[:-1] ^ t.mul(p[1:], xm)
            p[0] = t.mul(p[0], xm)
        q = np.zeros((r, r), dtype=np.int64)  # row i: P(z) / (z + x_i)
        q[:, r - 1] = 1
        for k in range(r - 1, 0, -1):
            q[:, k - 1] = p[k] ^ t.mul(x, q[:, k])
        # P'(x_i) = (P / (z + x_i))(x_i), by Horner over all rows
        deriv = np.zeros(r, dtype=np.int64)
        for k in range(r - 1, -1, -1):
            deriv = t.mul(deriv, x) ^ q[:, k]
        return t.mul(q, t.inv(t.mul(x, deriv))[:, None])

    def _syndrome_table(self) -> np.ndarray:
        """The RS syndrome table, (outer_n * 256, ceil(r/8)) uint64: row
        256 i + v holds the syndrome of symbol v at position i, S_j =
        v x_i^j for j = 1..r and the symbol locator x_i = alpha^i, as r
        bytes.  S is GF(2)-linear in v, so rows are built by XOR doubling
        from the syndromes of v = 1, 2, 4, ..., 128 at each position."""
        t, n, r = self.table, self.outer_n, self.redundancy
        powers_log = np.outer(np.arange(n), np.arange(1, r + 1)) % t.order  # logs of x_i^j
        basis = np.zeros((n, 8, -(-r // 8) * 8), dtype=np.uint8)
        basis[:, :, :r] = t.exp[powers_log[:, None] + t.log[1 << np.arange(8)][:, None]]
        basis = basis.view(np.uint64)
        table = np.zeros((n, 256, basis.shape[2]), dtype=np.uint64)
        for k in range(8):
            table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ basis[:, k, None]
        return table.reshape(n * 256, -1)

    def _log_product(self, matrix_log: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """The product of a fixed symbol matrix, given by its logs, and a
        symbol vector: ``table.mul`` with the matrix's gather done once."""
        t = self.table
        return np.bitwise_xor.reduce(t.exp[matrix_log + t.log[symbols]], axis=1)

    def _rs_syndromes(self, symbols: np.ndarray) -> np.ndarray:
        """The RS syndrome of a symbol vector as r uint8 symbols: the XOR
        of one syndrome table row per position."""
        rows = self._rs_table.take(symbols + self._rs_rows, axis=0)
        return np.bitwise_xor.reduce(rows, axis=0).view(np.uint8)[: self.redundancy]

    def _rs_preimage(self, syndromes: np.ndarray) -> np.ndarray:
        """Symbols supported on the first `redundancy` positions hitting them."""
        out = np.zeros(self.outer_n, dtype=np.int64)
        if syndromes.any():
            out[: self.redundancy] = self._log_product(self._v_inv_log, syndromes)
        return out

    def _rs_decode(self, symbols: np.ndarray, target: np.ndarray) -> np.ndarray | None:
        """Errors-only bounded-distance decode toward the coset of ``target``.

        The symbols within t_out symbol errors of ``symbols`` whose RS
        syndrome is ``target``, or None.  The error values have syndrome
        rs_syn(symbols) ^ target, so Berlekamp-Massey, the Chien search
        and Forney run on that, exactly as a decode toward the code runs
        on a word of that syndrome; the final check is that the corrected
        symbols have syndrome ``target``.  ``syn_dec`` decodes the shifted
        symbols of its difference E this way, so no word of the code
        itself is ever formed.
        """
        t = self.table
        synd = self._rs_syndromes(symbols) ^ target
        if not synd.any():
            return symbols
        locator = _berlekamp_massey(t, synd.tolist())
        if not locator or len(locator) - 1 > self.t_out:
            return None
        degree = len(locator) - 1
        # Chien search over every position at once: roots are alpha^-i
        positions = (t.poly_eval(locator, self._x_inv) == 0).nonzero()[0]
        if positions.size != degree:
            return None
        # Forney: omega = S(X) * locator(X) mod X^redundancy
        omega = np.zeros(self.redundancy, dtype=np.int64)
        for j, lj in enumerate(locator):
            omega[j:] ^= t.mul(synd[: self.redundancy - j], lj)
        deriv = [locator[i] if i % 2 == 1 else 0 for i in range(1, len(locator))]
        x = self._x_inv[positions]
        den = t.poly_eval(deriv, x)
        if np.any(den == 0):
            return None
        fixed = symbols.copy()
        fixed[positions] ^= t.mul(t.poly_eval(omega, x), t.inv(den))
        if np.any(self._rs_syndromes(fixed) != target):
            return None
        return fixed

    # -- bit-level interface ----------------------------------------------------
    #
    # A syndrome is the inner check bits of every block, block by block,
    # then the outer syndrome symbols, one byte each, low bit first.  A
    # block has 120 check bits, so both parts are whole bytes: ``syn``
    # joins the check bytes of ``_images`` and the bytes of
    # ``_rs_syndromes`` with one ``int.from_bytes``; ``syn_dec`` scatters
    # the check bytes XOR s's onto the check positions only when it
    # corrects something.

    def _images(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (N, 15) check bytes and the (N,) symbols of the blocks of
        ``cells``, by the block table."""
        images = self.inner.images(np.packbits(cells, bitorder="little").reshape(self.outer_n, -1))
        return images[:, :-1], images[:, -1]

    def syn(self, cells: np.ndarray) -> Bits:
        """The syndrome of the word ``cells``, refused as ``syn_dec`` refuses them."""
        self._check_cells(cells)
        checks, symbols = self._images(cells)
        raw = checks.tobytes() + self._rs_syndromes(symbols).tobytes()
        return Bits(int.from_bytes(raw, "little"), self.syndrome_len)

    def syn_dec(self, s: Bits, received: np.ndarray) -> np.ndarray | None:
        """The pattern e the decoder finds with syn(received ^ e) = s, as
        0/1 uint8 cells of length n, or None.

        ``received`` is the received cells, a 0/1 uint8 array of length n;
        any other shape or dtype is a ``ValueError``.  On zero cells it
        decodes s itself: ``syn_dec(syn(e), zeros)`` gives back every e of
        weight <= t_corr.

        The call starts as ``syn`` does, with the bytes of syn(received):
        every block's check bytes and symbol, then the RS syndrome of the
        symbols, which is formed only when the check bytes equal those of
        s.  e = 0 exactly when all the bytes equal the bytes of s, and then
        the call returns zeros: E is not formed and no block is
        transformed.  That is every noise-free retrieval.

        Otherwise the decode runs on E, the (N, n) blocks holding
        diff = the check bytes ^ s's inner bytes on their check positions
        and zeros elsewhere.  With sym the received symbols, the received
        blocks plus s_inner are E ^ encode(sym), so e must make
        E ^ e = encode(sym ^ fixed) with rs_syn(fixed) = s_outer.  Each
        block of E is ML-decoded to a symbol d, ``_rs_decode`` moves
        sym ^ d into the coset of s_outer, giving fixed, and
        e = E ^ encode(sym ^ fixed).

        Certified blocks: a block of E of weight w <= t_in = 31 has
        |U| = 64 - w >= 33 at symbol 0 and |U| <= 31 at every other (the
        zero codeword is n/2 from all others but its complement), so its
        ML symbol is 0, the unique first maximiser.  Only blocks of weight
        above 31 are transformed.

        This is the decode of the coset word of s ^ syn(received),
        y0 = E ^ encode(p) with p = preimage(s_outer ^ rs_syn(sym)), which
        ``syn_dec(s ^ syn(received), zeros)`` decodes: y0's ML symbols are
        d ^ p, whose RS syndrome rs_syn(sym ^ d) ^ s_outer is the one
        ``_rs_decode`` sees.  Only the tie rule tells them apart: y0's
        first maximiser is E's maximiser a with the least a ^ (p >> 1).
        A tie needs a block 32 or more bits from every codeword (top
        |U| <= n/4, never a certified one), so p is formed and that rule
        applied only when such a block occurs.
        """
        self._check_syndrome(s)
        self._check_cells(received)
        inner = self.inner
        checks, symbols = self._images(received)
        raw = s.value.to_bytes(s.length // 8, "little")
        inner_bytes = checks.size
        if (
            checks.tobytes() == raw[:inner_bytes]
            and self._rs_syndromes(symbols).tobytes() == raw[inner_bytes:]
        ):
            return np.zeros(self.n, dtype=np.uint8)
        outer_syn = np.frombuffer(raw, np.uint8, offset=inner_bytes)
        diff = checks ^ np.frombuffer(raw, np.uint8, inner_bytes).reshape(checks.shape)
        E = np.zeros((self.outer_n, inner.n), dtype=np.uint8)
        E[:, inner.check] = np.unpackbits(diff, axis=1, bitorder="little")
        ml = symbols.astype(np.int64)
        open_ = (np.bitwise_count(diff).sum(axis=1) > inner.t_corr).nonzero()[0]  # not certified
        if open_.size:
            U = inner.transform(E[open_])
            size = np.abs(U)
            best = np.argmax(size, axis=1)
            top = size[np.arange(open_.size), best]
            far = (top <= inner.n // 4).nonzero()[0]
            if far.size:
                p = self._rs_preimage(outer_syn ^ self._rs_syndromes(symbols))
                # rank each far block's maximisers a by a ^ a_p, their index in y0
                rank = np.arange(inner.n) ^ (p[open_[far]] >> 1)[:, None]
                best[far] = np.argmin(np.where(size[far] == top[far, None], rank, inner.n), axis=1)
            ml[open_] ^= inner.symbols_at(U, best)
        fixed = self._rs_decode(ml, outer_syn)
        if fixed is None:
            return None
        return (E ^ inner.encode(symbols ^ fixed)).reshape(-1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_RMRS_MENU = [
    (n, k)
    for n in (12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 72, 76, 80, 88, 96, 112, 128, 160, 192, 224, 255)
    for k in (2, 3, 4, 5, 6, 8, 10, 12, 16)
    if k < n
]


class CodeRegistry:
    """The menu of RS(N, K) * RM(1, 7) codes, keyed by name; construction is lazy."""

    def __init__(self):
        self._menu: dict[str, tuple[CodeSpec, int, int]] = {}
        for n_out, k_out in _RMRS_MENU:
            spec = RmRsCode.spec_of(n_out, k_out)
            self._menu[spec.name] = (spec, n_out, k_out)
        self._cache: dict[str, RmRsCode] = {}

    def specs(self) -> list[CodeSpec]:
        return [spec for spec, _, _ in self._menu.values()]

    def spec(self, name: str) -> CodeSpec:
        """The menu entry called ``name``, without building the code; KeyError if absent."""
        return self._menu[name][0]

    def build(self, spec: CodeSpec) -> RmRsCode:
        entry = self._menu.get(spec.name)
        if entry is None or entry[0] != spec:
            raise KeyError(spec)
        if spec.name not in self._cache:
            self._cache[spec.name] = RmRsCode(entry[1], entry[2])
        return self._cache[spec.name]

    def by_name(self, name: str) -> RmRsCode:
        return self.build(self.spec(name))


_DEFAULT_REGISTRY: CodeRegistry | None = None


def default_registry() -> CodeRegistry:
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = CodeRegistry()
    return _DEFAULT_REGISTRY
