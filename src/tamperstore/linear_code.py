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
per code), the Chien search and the Forney step each act on whole symbol
arrays through its gathers; only Berlekamp-Massey runs symbol by symbol.
The two fixed matrices, the syndrome map and the inverse, are kept as
logs, so a product with one of them gathers only the vector's logs.
The inner Reed-Muller code is used only through byte symbols (see
``_InnerRM``), so no generic GF(2) matrix runs in ``syn`` or ``syn_dec``;
``parity_check_matrix`` builds the explicit H from the generator as an
independent reference.

``syn_dec(s, received)`` finds a pattern e with syn(received ^ e) = s:
it builds the coset word of s ^ syn(received) from the received blocks and
s directly, so retrieval needs no syndrome of its measured word.  With
``received`` left out it decodes s itself, the pattern of syndrome s.

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
# GF(2) linear algebra on 0/1 numpy arrays
# ---------------------------------------------------------------------------

def gf2_row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    m = mat.copy() % 2
    pivots = []
    row = 0
    for col in range(m.shape[1]):
        if row == m.shape[0]:
            break
        hit = np.nonzero(m[row:, col])[0]
        if hit.size == 0:
            continue
        m[[row, row + hit[0]]] = m[[row + hit[0], row]]
        others = np.nonzero(m[:, col])[0]
        others = others[others != row]
        m[others] ^= m[row]
        pivots.append(col)
        row += 1
    return m, pivots


def gf2_nullspace(mat: np.ndarray) -> np.ndarray:
    """Rows form a basis of the right null space."""
    reduced, pivots = gf2_row_reduce(mat)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = reduced[r, fc]
    return basis


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

    def syn(self, x: Bits) -> Bits:
        raise NotImplementedError

    def syn_dec(self, s: Bits, received: Bits | None = None) -> Bits | None:
        raise NotImplementedError

    @property
    def syndrome_len(self) -> int:
        return self.n - self.kappa

    def _check_word(self, x: Bits) -> None:
        if x.length != self.n:
            raise ValueError(f"word length {x.length}, expected {self.n}")

    def _check_syndrome(self, s: Bits) -> None:
        if s.length != self.syndrome_len:
            raise ValueError(f"syndrome length {s.length}, expected {self.syndrome_len}")

    def parity_check_matrix(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(self.name, self.n, self.kappa, self.t_corr)

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
    from a table of all codewords, ML decoding a Hadamard transform.
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
        # Hadamard matrix H[a, v] = (-1)^parity(a & v): the codewords with m0 = 0.
        # With a = a_hi 2^lo + a_lo and v likewise it is H_hi (x) H_lo.
        signs = 1 - 2 * self.codewords[0::2].astype(np.float32)
        lo = m // 2
        self._h_lo = signs[: 1 << lo, : 1 << lo]
        self._h_hi = signs[:: 1 << lo, :: 1 << lo]

    def symbols(self, words: np.ndarray) -> np.ndarray:
        """(N, n) words -> (N,) symbols read off the information positions."""
        bits = words[:, self.info]
        bits[:, 1:] ^= bits[:, :1]
        return np.packbits(bits, axis=1, bitorder="little")[:, 0]

    def encode(self, symbols: np.ndarray) -> np.ndarray:
        """(N,) symbols -> (N, n) codewords."""
        return self.codewords[symbols]

    def syndrome(self, words: np.ndarray) -> np.ndarray:
        """(N, n) words -> (N, n - k) check bits: each word minus the
        codeword with its information bits, on the check positions."""
        return (words ^ self.encode(self.symbols(words)))[:, self.check]

    def decode_ml(self, words: np.ndarray) -> np.ndarray:
        """(N, n) words -> (N,) symbols of the nearest codewords.

        T[a] = sum_v (-1)^(y_v ^ parity(a & v)), the Hadamard transform of
        the signs, as two float32 products: each word as a 2^hi x 2^lo
        matrix Y[v_hi, v_lo] becomes H_hi Y H_lo, which read row by row is
        T in natural order.  Every entry is an integer of magnitude at most
        n, so float32 holds it exactly.  The nearest codeword has the
        largest |T[a]| (the first such a on a tie), and m0 = 1 where that
        T[a] is negative.
        """
        signs = 1 - 2 * words.astype(np.float32)
        lo = self._h_lo.shape[0]
        T = np.matmul(self._h_hi, signs.reshape(len(words), -1, lo) @ self._h_lo)
        T = T.reshape(len(words), self.n)
        best = np.argmax(np.abs(T), axis=1)
        negative = T[np.arange(len(words)), best] < 0
        return negative | best << 1


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
        # syndrome map: row j-1 holds x_i^j for the symbol locator x_i = alpha^i,
        # kept as logs (j i mod order) since it is only ever a multiplicand
        r = self.redundancy
        self._powers_log = np.outer(np.arange(1, r + 1), np.arange(outer_n)) % self.table.order
        # inverse of the syndrome map restricted to the first `redundancy`
        # symbol positions, for syndrome preimages, and its logs
        self._v_inv = self._vandermonde_inverse(self.table.pow_alpha(np.arange(r)))
        self._v_inv_log = self.table.log[self._v_inv]

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

    def _log_product(self, matrix_log: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """The product of a fixed symbol matrix, given by its logs, and a
        symbol vector: ``table.mul`` with the matrix's gather done once."""
        t = self.table
        return np.bitwise_xor.reduce(t.exp[matrix_log + t.log[symbols]], axis=1)

    def _rs_syndromes(self, symbols: np.ndarray) -> np.ndarray:
        return self._log_product(self._powers_log, symbols)

    def _rs_preimage(self, syndromes: np.ndarray) -> np.ndarray:
        """Symbols supported on the first `redundancy` positions hitting them."""
        out = np.zeros(self.outer_n, dtype=np.int64)
        if syndromes.any():
            out[: self.redundancy] = self._log_product(self._v_inv_log, syndromes)
        return out

    def _rs_decode(self, symbols: np.ndarray) -> np.ndarray | None:
        """Errors-only bounded-distance decode toward the zero-syndrome codeword."""
        t = self.table
        synd = self._rs_syndromes(symbols)
        if not synd.any():
            return symbols
        locator = _berlekamp_massey(t, synd.tolist())
        if not locator or len(locator) - 1 > self.t_out:
            return None
        degree = len(locator) - 1
        # Chien search over every position at once: roots are alpha^-i
        x_inv = t.pow_alpha(-np.arange(self.outer_n))
        positions = np.flatnonzero(t.poly_eval(locator, x_inv) == 0)
        if positions.size != degree:
            return None
        # Forney: omega = S(X) * locator(X) mod X^redundancy
        omega = np.zeros(self.redundancy, dtype=np.int64)
        for j, lj in enumerate(locator):
            omega[j:] ^= t.mul(synd[: self.redundancy - j], lj)
        deriv = [locator[i] if i % 2 == 1 else 0 for i in range(1, len(locator))]
        x = x_inv[positions]
        den = t.poly_eval(deriv, x)
        if np.any(den == 0):
            return None
        fixed = symbols.copy()
        fixed[positions] ^= t.mul(t.poly_eval(omega, x), t.inv(den))
        if np.any(self._rs_syndromes(fixed)):
            return None
        return fixed

    # -- bit-level interface ----------------------------------------------------
    #
    # A syndrome is the inner check bits of every block, block by block,
    # then the outer syndrome symbols, one byte each, low bit first.

    def _pack_syndrome(self, inner_syn: np.ndarray, outer_syn: np.ndarray) -> Bits:
        outer = int.from_bytes(outer_syn.astype(np.uint8).tobytes(), "little")
        return Bits.from_array(inner_syn.reshape(-1)).concat(Bits(outer, 8 * self.redundancy))

    def _unpack_syndrome(self, s: Bits) -> tuple[np.ndarray, np.ndarray]:
        """(N, n_in) words holding each block's inner syndrome on its check
        positions and zeros elsewhere, and the outer syndrome symbols.

        A block has 120 check bits, so both parts are whole bytes.
        """
        raw = s.value.to_bytes(s.length // 8, "little")
        inner_bytes = self.outer_n * self.inner.check.size // 8
        inner_syn = np.unpackbits(np.frombuffer(raw, np.uint8, inner_bytes), bitorder="little")
        words = np.zeros((self.outer_n, self.inner.n), dtype=np.uint8)
        words[:, self.inner.check] = inner_syn.reshape(self.outer_n, -1)
        return words, np.frombuffer(raw, np.uint8, offset=inner_bytes)

    def syn(self, x: Bits) -> Bits:
        self._check_word(x)
        blocks = x.to_array().reshape(self.outer_n, self.inner.n)
        outer_syn = self._rs_syndromes(self.inner.symbols(blocks))
        return self._pack_syndrome(self.inner.syndrome(blocks), outer_syn)

    def syn_dec(self, s: Bits, received: Bits | None = None) -> Bits | None:
        """The pattern e the decoder finds with syn(received ^ e) = s, or None.

        ``received`` defaults to the zero word, so ``syn_dec(syn(e))`` gives
        back every e of weight <= t_corr.  The word decoded is the coset
        word of s ^ syn(received), built without that syndrome: with sym
        the symbols of the received blocks, it is
        blocks ^ encode(sym ^ preimage(s_outer ^ rs_syn(sym))) with s_inner
        on the check positions.  blocks ^ encode(sym) is zero on the
        information positions, so this is the word the difference alone
        gives, and it is zero exactly when the difference is.
        """
        self._check_syndrome(s)
        if received is None:
            received = Bits.zeros(self.n)
        self._check_word(received)
        inner = self.inner
        blocks = received.to_array().reshape(self.outer_n, inner.n)
        symbols = inner.symbols(blocks)
        inner_words, outer_syn = self._unpack_syndrome(s)
        outer_diff = outer_syn ^ self._rs_syndromes(symbols)
        y0 = blocks ^ inner_words ^ inner.encode(symbols ^ self._rs_preimage(outer_diff))
        if not y0.any():
            return Bits.zeros(self.n)
        # decode y0 toward the code
        fixed = self._rs_decode(inner.decode_ml(y0))
        if fixed is None:
            return None
        return Bits.from_array((y0 ^ inner.encode(fixed)).reshape(-1))

    def parity_check_matrix(self) -> np.ndarray:
        """H built from the generator alone, as a reference for ``syn``."""
        t = self.table
        inner = self.inner
        k, n1 = inner.k, inner.n
        h_inner = gf2_nullspace(inner.gen)  # (n1 - k) x n1
        extract = np.zeros((k, n1), dtype=np.uint8)  # symbol bits of a codeword
        extract[:, 0] = 1
        extract[np.arange(1, k), 1 << np.arange(inner.m)] = 1
        rows = np.zeros((self.syndrome_len, self.n), dtype=np.uint8)
        r_in = n1 - k
        for i in range(self.outer_n):
            rows[i * r_in : (i + 1) * r_in, i * n1 : (i + 1) * n1] = h_inner
        base = self.outer_n * r_in
        for j in range(1, self.redundancy + 1):
            for i in range(self.outer_n):
                coeff = t.pow_alpha(j * i)
                # bit matrix of multiplication by coeff, composed with extraction
                mult = np.zeros((k, k), dtype=np.uint8)
                for b in range(k):
                    prod = t.mul(coeff, 1 << b)
                    mult[:, b] = [(prod >> bb) & 1 for bb in range(k)]
                block = (mult.astype(np.int16) @ extract.astype(np.int16)) % 2
                rows[base + (j - 1) * k : base + j * k, i * n1 : (i + 1) * n1] = block
        return rows


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
