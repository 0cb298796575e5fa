"""One plain store -> retrieve session, the oracle of the package's fast one.

Every step is written in its textbook form, with nothing cached and no
draw rewritten, so ``test_reference`` can run the package's session and
this one side by side from equal generators and compare them after each
step.  A speed change to the session path is checked against this module;
it does not bring a copy of the code it replaces.

* Draws are numpy's own calls, in ``store``'s order: ``rng.bytes`` per bit
  string (w redrawn while zero), ``rng.choice(total, r, replace=False)``
  for the traps, ``rng.random(n) < beta0`` for noise and
  ``rng.integers(0, 2, n, dtype=np.uint8)`` for fresh bits and random
  bases.  The client's read-out draws only when some basis differs.
* The pad is the full carry-less product u x reduced mod the pinned
  modulus, cut to its first ell bits.  Randomisation multiplies by w with
  ``GF2Field.mul_int`` and back by ``inv_int(w)``.
* The MAC is Horner's rule (``explicit_tag``).
* A measurement is the select collapse (``where_collapse``).
* The syndrome is the dense parity-check matrix built from the generator
  alone (``parity_check_matrix``), one Python int per row.
* The decoder is the coset-word decoder (``coset_syn_dec``), the decoder
  as it stood before it ran in the received frame.  Its pattern e must
  satisfy H(x' ^ e) = s.
* The message code is a table built from ``example1``'s rule as strings
  (``example1_table``); ``store`` looks the codeword up and retrieval scans
  the table for the one that prefixes m0.
* Retrieval aborts in the order ``retrieve``'s docstring gives: format,
  mac, trap, decode.

The module is not collected by pytest; tests import it as
``from reference import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tamperstore.bits import Bits
from tamperstore.gf2 import GF2Field, clmul, poly_mod
from tamperstore.linear_code import RmRsCode, _berlekamp_massey
from tamperstore.mac import MacKey

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
# the parity-check matrix and the syndrome
# ---------------------------------------------------------------------------


def row_int(bits: np.ndarray) -> int:
    """A 0/1 row as an int, element j as bit j."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def parity_check_matrix(code: RmRsCode) -> list[int]:
    """H built from the generator alone, one int per row (bit j = column j).

    The rows are each block's inner checks, block by block, then the bits
    of the outer syndrome symbols, low bit first: the order of ``syn``.
    Ints keep H at about 12 MB at rs(76,5); as dense uint8 it is 94 MB.
    """
    t = code.table
    inner = code.inner
    k, n1 = inner.k, inner.n
    h_inner = [row_int(row) for row in gf2_nullspace(inner.gen)]  # n1 - k rows
    extract = np.zeros((k, n1), dtype=np.uint8)  # symbol bits of a codeword
    extract[:, 0] = 1
    extract[np.arange(1, k), 1 << np.arange(inner.m)] = 1
    rows = [row << (i * n1) for i in range(code.outer_n) for row in h_inner]
    for j in range(1, code.redundancy + 1):
        symbol_rows = [0] * k
        for i in range(code.outer_n):
            coeff = t.pow_alpha(j * i)
            # bit matrix of multiplication by coeff, composed with extraction
            mult = np.zeros((k, k), dtype=np.uint8)
            for b in range(k):
                prod = t.mul(coeff, 1 << b)
                mult[:, b] = [(prod >> bb) & 1 for bb in range(k)]
            block = (mult.astype(np.int16) @ extract.astype(np.int16)) % 2
            for bit in range(k):
                symbol_rows[bit] |= row_int(block[bit]) << (i * n1)
        rows += symbol_rows
    return rows


def syndrome(h: list[int], x: Bits) -> Bits:
    """H x: bit i is the parity of row i and x."""
    return Bits.from_array([(row & x.value).bit_count() & 1 for row in h])


# ---------------------------------------------------------------------------
# the coset-word decoder
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hadamard(m: int) -> np.ndarray:
    """The 2^m x 2^m matrix H[a, v] = (-1)^parity(a & v), from its definition."""
    v = np.arange(1 << m)
    parity = np.zeros((1 << m, 1 << m), dtype=np.int64)
    for j in range(m):
        parity ^= ((v[:, None] & v) >> j) & 1
    return 1.0 - 2 * parity


def coset_decode_ml(inner, words: np.ndarray) -> np.ndarray:
    """ML symbols of RM(1, m) blocks: the first largest |T[a]| of the
    correlations T = signs H (float64, exact on these integer sums)."""
    T = (1.0 - 2 * words) @ hadamard(inner.m)
    best = np.argmax(np.abs(T), axis=1)
    negative = T[np.arange(len(words)), best] < 0
    return negative | best << 1


def coset_rs_decode(self: RmRsCode, symbols: np.ndarray) -> np.ndarray | None:
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


def coset_syn_dec(self: RmRsCode, s: Bits, received: Bits | None = None) -> Bits | None:
    """The pattern e with syn(received ^ e) = s, found by decoding the coset
    word y0 of s ^ syn(received) toward the code, or None."""
    self._check_syndrome(s)
    if received is None:
        received = Bits.zeros(self.n)
    if received.length != self.n:
        raise ValueError(f"word length {received.length}, expected {self.n}")
    inner = self.inner
    blocks = received.to_array().reshape(self.outer_n, inner.n)
    symbols = inner.symbols(blocks)
    inner_words, outer_syn = self._unpack_syndrome(s)
    outer_diff = outer_syn ^ self._rs_syndromes(symbols)
    y0 = blocks ^ inner_words ^ inner.encode(symbols ^ self._rs_preimage(outer_diff))
    if not y0.any():
        return Bits.zeros(self.n)
    # decode y0 toward the code
    fixed = coset_rs_decode(self, coset_decode_ml(inner, y0))
    if fixed is None:
        return None
    return Bits.from_array((y0 ^ inner.encode(fixed)).reshape(-1))


# ---------------------------------------------------------------------------
# the MAC, the pad and the collapse
# ---------------------------------------------------------------------------


def explicit_tag(key: MacKey, msg: Bits) -> int:
    """b + sum m_i a^i by textbook Horner over ``GF2Field.mul_int``, with
    blocks cut by Bits slicing."""
    lam = key.lam
    field = GF2Field(lam)
    blocks = [msg[start : start + lam].value for start in range(0, msg.length, lam)]
    blocks.append(1 + msg.length % ((1 << lam) - 1))
    acc = 0
    for block in reversed(blocks):
        acc = field.mul_int(acc ^ block, key.a)
    return acc ^ key.b


def pad(u: Bits, x: Bits, ell: int) -> Bits:
    """The first ell bits of u x in GF(2^n), n = len(x), from the full
    carry-less product reduced mod the pinned modulus."""
    product = poly_mod(clmul(u.value, x.value), GF2Field(x.length).modulus)
    return Bits(product, x.length).first(ell)


def where_collapse(basis, value, requested, rng):
    """The select form of the collapse, kept as the oracle of the branch-free one."""
    fresh = rng.integers(0, 2, requested.size, dtype=np.uint8)
    return np.where(requested == basis, value, fresh).astype(np.uint8)


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------


@dataclass
class Bundle:
    """The server's classical fields and the register's hidden records."""

    w: Bits
    u: Bits
    c: Bits
    theta: Bits
    basis: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class Secrets:
    mac_key: MacKey
    t: Bits
    v: Bits
    s: Bits
    m_nabla: Bits

    def to_kv(self) -> dict:
        """The fields ``ClientSecrets.to_kv`` writes; the key is a || b."""
        lam = self.mac_key.lam
        key = Bits(self.mac_key.a, lam).concat(Bits(self.mac_key.b, lam))
        return {"mac_key": key, "t": self.t, "v": self.v, "s": self.s, "m_nabla": self.m_nabla}


def random_bits(length: int, rng: np.random.Generator) -> Bits:
    """The first ``length`` bits of ``rng.bytes(ceil(length / 8))``."""
    raw = rng.bytes((length + 7) // 8)
    return Bits(int.from_bytes(raw, "little") & ((1 << length) - 1), length)


def sample(dist, rng: np.random.Generator) -> int:
    return int(rng.choice(dist.outcomes, p=dist.probs))


@lru_cache(maxsize=None)
def example1_table(L: int) -> dict[int, Bits]:
    """{message: codeword} of example1: the heavy message 2^L - 1 is '1', and
    every other mu is '0' followed by the L bits of mu, lowest bit first."""
    heavy = (1 << L) - 1
    table = {mu: Bits.from_01("0" + format(mu, f"0{L}b")[::-1]) for mu in range(heavy)}
    table[heavy] = Bits.from_01("1")
    return table


def store(message: int, params, h: list[int], table, rng) -> tuple[Bundle, Secrets]:
    """Compress with the code ``table``, randomise, prepare the cells with
    traps, pad, tag."""
    codeword = table[message]
    m0 = codeword.concat(random_bits(params.ell0 - codeword.length, rng))
    w = random_bits(params.ell0, rng)
    while w.value == 0:
        w = random_bits(params.ell0, rng)
    product = Bits(GF2Field(params.ell0).mul_int(w.value, m0.value), params.ell0)
    m, m_nabla = product[: params.ell], product[params.ell :]

    total = params.n + params.r
    xi = random_bits(total, rng).to_array()
    t = np.zeros(total, dtype=np.uint8)
    t[rng.choice(total, params.r, replace=False)] = 1
    v, x = Bits.from_array(xi[t == 1]), Bits.from_array(xi[t == 0])

    u = random_bits(params.n, rng)
    a, b = random_bits(params.lam, rng), random_bits(params.lam, rng)
    mac_key = MacKey(a.value, b.value, params.lam)
    c = m ^ pad(u, x, params.ell)
    theta = Bits(explicit_tag(mac_key, w.concat(u).concat(c)), params.lam)
    bundle = Bundle(w, u, c, theta, basis=t.copy(), value=xi)
    return bundle, Secrets(mac_key, Bits.from_array(t), v, syndrome(h, x), m_nabla)


def noise(bundle: Bundle, beta0: float, rng) -> None:
    """Flip each value with probability beta0; a noiseless channel draws nothing."""
    if beta0 > 0:
        bundle.value = bundle.value ^ (rng.random(bundle.value.size) < beta0).astype(np.uint8)


def attack(bundle: Bundle, strategy: str, rng) -> None:
    """Intercept-resend, measuring every cell in random or standard bases,
    or a flip of bit 0 of c."""
    n = bundle.value.size
    if strategy == "intercept-resend/random-basis":
        bases = rng.integers(0, 2, n, dtype=np.uint8)
    elif strategy == "intercept-resend/all-standard":
        bases = np.zeros(n, dtype=np.uint8)
    elif strategy == "flip-c":
        bundle.c = Bits(bundle.c.value ^ 1, bundle.c.length)
        return
    else:
        raise ValueError(f"no reference for strategy {strategy!r}")
    bundle.value = where_collapse(bundle.basis, bundle.value, bases, rng)
    bundle.basis = bases


def retrieve(bundle: Bundle, secrets: Secrets, params, code, h, table, rng):
    """(omega, message, abort reason), testing format, MAC, traps, decode."""
    lengths = (bundle.w.length, bundle.u.length, bundle.c.length, bundle.theta.length)
    wanted = (params.ell0, params.n, params.ell, params.lam)
    if lengths != wanted or bundle.value.size != params.n + params.r or bundle.w.value == 0:
        return 0, None, "format"
    if explicit_tag(secrets.mac_key, bundle.w.concat(bundle.u).concat(bundle.c)) != bundle.theta.value:
        return 0, None, "mac"

    t = secrets.t.to_array()
    if np.any(bundle.basis != t):
        bundle.value = where_collapse(bundle.basis, bundle.value, t, rng)
        bundle.basis = t
    word = bundle.value
    if (Bits.from_array(word[t == 1]) ^ secrets.v).weight() > params.beta * params.r:
        return 0, None, "trap"

    x_prime = Bits.from_array(word[t == 0])
    e = coset_syn_dec(code, secrets.s, x_prime)
    if e is None:
        return 0, None, "decode"
    x_hat = x_prime ^ e
    assert syndrome(h, x_hat) == secrets.s
    m_hat = pad(bundle.u, x_hat, params.ell) ^ bundle.c
    field = GF2Field(params.ell0)
    m0 = field.mul_int(field.inv_int(bundle.w.value), m_hat.concat(secrets.m_nabla).value)
    for message, codeword in table.items():
        if m0 & ((1 << codeword.length) - 1) == codeword.value:
            return 1, message, "none"
    return 0, None, "decode"
