"""The delegated-storage state machines (store, retrieve), usefulness
accounting, and the ideal ledger of recursive delegation.

``store`` runs the five preparation steps (compress, randomise, encode
into qubits with hidden traps, extract a one-time pad and syndrome, tag)
and returns the server bundle next to the client secrets; everything else
is discarded.  It makes three generator calls: the padding, the seed w
(redrawn from the next words while zero) and the cells xi in one, the trap
set, then the seed u and the MAC key in one.  Field elements are ``Bits``:
the randomiser's seed w of GF(2^ell0) goes into the bundle as drawn, and
the pad is the hash of the n-bit payload x under the n-bit seed u.
``retrieve`` runs the four testing/decryption steps against a possibly
tampered bundle and returns an outcome flag instead of raising: aborts are
regular results, and a bundle whose field lengths differ from the
parameters', or whose seed w is zero, aborts with reason "format" before
the MAC is checked.  Both run on a ``ProtocolInstance``, the session: its
params check the recipe's constraints and the session checks that its
code and prefix code are the ones the params name, each once, when it is
made, so neither phase checks them per call.

Variable homes (the classical state of one session):
  server bundle   w, u, c, theta, qubit register
  client secrets  mac key, trap layout, trap values v, syndrome s, m_nabla
  discarded       xi, x, z, p, m, m0 and every other intermediate

The code takes and returns 0/1 uint8 cells.  ``store`` gathers the
payload x once as cells for ``code.syn`` and packs it once for the pad.
Retrieval corrects the received cells x', the measured payload gathered
once, toward the stored s in one call, ``code.syn_dec(s, x')``; the
syndrome of x' is never formed, and x^ = x' ^ e is packed once, for the
pad.  The decoder transforms only the blocks whose hard decisions it
cannot certify (see ``linear_code``).

Recursion, which would store the syndrome s in a further session, exists
here only as ``ideal_recursion_accounting`` with capacity-rate codes.  A
concrete chain cannot shorten the key: every code of the registry's menu
has a syndrome of at least 1,456 bits and kappa <= 128, so ell < 128, and
each extra level keeps its own syndrome plus all but ell bits of the one
it stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kv
from .bits import Bits, _word_count, random_words
from .entropy import binary_entropy
from .gf2 import phi
from .linear_code import CodeRegistry, LinearCode, default_registry
from .mac import MacKey, tag, verify
from .params import ProtocolParams, derive_params
from .qsim import QubitRegister, TrapLayout, apply_storage_noise, measure, prepare
from .randomizer import ParseError, PrefixCode, compress, decompress, derandomize, randomize


def _transcript(w: Bits, u: Bits, c: Bits) -> Bits:
    """The layout the MAC covers: w || u || c, unframed, built as one int."""
    return Bits(
        w.value | (u.value << w.length) | (c.value << (w.length + u.length)),
        w.length + u.length + c.length,
    )


@dataclass(frozen=True)
class ServerBundle:
    """Everything stored remotely.  All of it may come back modified."""

    w: Bits
    u: Bits
    c: Bits
    theta: Bits
    register: QubitRegister

    def classical_bits(self) -> Bits:
        """The authenticated transcript w || u || c."""
        return _transcript(self.w, self.u, self.c)

    # the keys a bundle file holds and their value types; w stays a bit
    # string, since a field of a length the server chose would cost a
    # modulus search, so retrieval reads w in the field of params.ell0
    # after checking its length
    _KV_FIELDS = {**dict.fromkeys(("w", "u", "c", "theta"), Bits), "register": bytes}

    def to_kv(self) -> dict:
        return {
            "w": self.w,
            "u": self.u,
            "c": self.c,
            "theta": self.theta,
            "register": self.register.to_bytes(),
        }

    @classmethod
    def from_kv(cls, mapping: dict) -> "ServerBundle":
        """Inverse of :meth:`to_kv`; refuses what it does not write (``kv.check``)."""
        kv.check("bundle", mapping, cls._KV_FIELDS, {})
        return cls(
            w=mapping["w"],
            u=mapping["u"],
            c=mapping["c"],
            theta=mapping["theta"],
            register=QubitRegister.from_bytes(mapping["register"]),
        )

    def dump(self, path) -> None:
        kv.dump(path, "bundle", self.to_kv())

    @classmethod
    def load(cls, path) -> "ServerBundle":
        return kv.load(path, "bundle", cls.from_kv)


@dataclass(frozen=True)
class ClientSecrets:
    """Everything kept locally; its bit size is the protocol's whole cost."""

    mac_key: MacKey
    layout: TrapLayout
    v: Bits
    s: Bits
    m_nabla: Bits

    def storage_bits(self) -> int:
        """Local key material in bits, counting the trap set positionally."""
        total = self.layout.t.length
        r = self.layout.r
        trap_bits = math.ceil(math.log2(math.comb(total, r))) if 0 < r < total else 0
        return (
            trap_bits
            + self.v.length
            + self.s.length
            + self.mac_key.bit_size
            + self.m_nabla.length
        )

    # the keys a secrets file holds, all bit strings; r is the weight of t
    _KV_FIELDS = dict.fromkeys(("mac_key", "t", "v", "s", "m_nabla"), Bits)

    def to_kv(self) -> dict:
        return {
            "mac_key": self.mac_key.to_bits(),
            "t": self.layout.t,
            "v": self.v,
            "s": self.s,
            "m_nabla": self.m_nabla,
        }

    @classmethod
    def from_kv(cls, mapping: dict) -> "ClientSecrets":
        """Inverse of :meth:`to_kv`; refuses what it does not write (``kv.check``)."""
        kv.check("secrets", mapping, cls._KV_FIELDS, {})
        return cls(
            mac_key=MacKey.from_bits(mapping["mac_key"]),
            layout=TrapLayout(mapping["t"]),
            v=mapping["v"],
            s=mapping["s"],
            m_nabla=mapping["m_nabla"],
        )

    def dump(self, path) -> None:
        kv.dump(path, "secrets", self.to_kv())

    @classmethod
    def load(cls, path) -> "ClientSecrets":
        return kv.load(path, "secrets", cls.from_kv)


@dataclass(frozen=True)
class RetrievalOutcome:
    omega: int
    message: int | None
    abort_reason: str  # "format", "mac", "trap", "decode", or "none"

    def __post_init__(self):
        if (self.omega == 1) != (self.message is not None):
            raise ValueError("message must be present exactly when omega = 1")


def one_time_pad(u: Bits, x: Bits, ell: int) -> Bits:
    """z = phi(u, x, ell), the first ell bits of u * x in GF(2^n).

    The two-universal hash of the payload under the seed u (which may be
    zero); only those ell bits of the product are computed.  A seed and
    payload of unequal lengths raise ``ValueError``.
    """
    return phi(u, x, ell)


def _draw_padding_seed_cells(
    pad_len: int, ell0: int, total: int, rng: np.random.Generator
) -> tuple[int, Bits, np.ndarray]:
    """The padding, the nonzero seed w and the cells xi in one generator call.

    The values and the generator state are those of ``Bits.random(pad_len)``,
    ``GF2Field(ell0).random_nonzero`` and ``Bits.random(total).to_array()``
    taken in turn (see ``bits.random_words``): a zero seed is redrawn from
    the next words, so xi starts after the accepted seed and the words it
    displaced are drawn at the end.  The padding is returned as the int of
    its whole words, whose first ``pad_len`` bits ``compress`` keeps.
    """
    pad_words, seed_words = _word_count(pad_len), _word_count(ell0)
    words = random_words(pad_words + seed_words + _word_count(total), rng)
    padding = int.from_bytes(words[:pad_words].tobytes(), "little")
    start, seed_mask = pad_words, (1 << ell0) - 1
    while True:
        end = start + seed_words
        seed = int.from_bytes(words[start:end].tobytes(), "little") & seed_mask
        if seed:
            break
        words = np.concatenate((words, random_words(seed_words, rng)))
        start = end
    xi = np.unpackbits(words[end:].view(np.uint8), bitorder="little")[:total]
    return padding, Bits(seed, ell0), xi


def store(
    session: ProtocolInstance, message: int, rng: np.random.Generator
) -> tuple[ServerBundle, ClientSecrets]:
    """Steps 1-5: compress, randomise, prepare qubits, pad, tag."""
    params, code = session.params, session.code
    total, cw = params.n + params.r, session.prefix_code.codeword(message)
    padding, w, xi = _draw_padding_seed_cells(params.ell0 - cw.length, params.ell0, total, rng)
    m0 = compress(cw, params.ell0, padding)
    rm = randomize(m0, w, params.ell)

    layout = TrapLayout.random(total, params.r, rng)
    v, cells = layout.traps(xi), xi[layout.payload_indices]  # cells: the payload x
    register = prepare(xi, layout.mask)

    # the seed u and a fresh MAC key, used for this one tag, in one draw
    u, a, b = Bits.random_many((params.d, params.lam, params.lam), rng)
    mac_key = MacKey(a.value, b.value, params.lam)
    s = code.syn(cells)
    z = one_time_pad(u, Bits.from_array(cells), params.ell)
    c = rm.m ^ z

    bundle = ServerBundle(w, u, c, tag(mac_key, _transcript(w, u, c)), register)
    secrets = ClientSecrets(mac_key=mac_key, layout=layout, v=v, s=s, m_nabla=rm.m_nabla)
    return bundle, secrets


def _lengths_match(bundle: ServerBundle, params: ProtocolParams) -> bool:
    """Every bundle length is the one params fix, and the seed w is nonzero.

    The MAC covers the unframed concatenation w || u || c, so a bundle that
    moves bits across a field boundary keeps its tag; checking each length
    first makes such a bundle an abort instead of a malformed computation.
    ``store`` never draws w = 0, which ``derandomize`` cannot invert.
    """
    return (
        bundle.w.length == params.ell0
        and bundle.w.value != 0
        and bundle.u.length == params.d
        and bundle.c.length == params.ell
        and bundle.theta.length == params.lam
        and bundle.register.size == params.n + params.r
    )


def retrieve(
    session: ProtocolInstance,
    bundle: ServerBundle,
    secrets: ClientSecrets,
    rng: np.random.Generator,
) -> RetrievalOutcome:
    """Steps 6-9 against a possibly tampered bundle; aborts are outcomes.

    Secrets that do not fit params raise ValueError: the fault is local.
    """
    session.check_secrets(secrets)
    params, code, prefix_code = session.params, session.code, session.prefix_code
    if not _lengths_match(bundle, params):
        return RetrievalOutcome(0, None, "format")
    if not verify(secrets.mac_key, bundle.classical_bits(), bundle.theta):
        return RetrievalOutcome(0, None, "mac")

    layout = secrets.layout
    word = measure(bundle.register, layout.mask, rng)
    if (layout.traps(word) ^ secrets.v).weight() > params.beta * params.r:
        return RetrievalOutcome(0, None, "trap")  # a trap abort never needs the payload

    cells = word[layout.payload_indices]  # x', the received payload cells
    pattern = code.syn_dec(secrets.s, cells)
    if pattern is None:
        return RetrievalOutcome(0, None, "decode")
    x_hat = Bits.from_array(cells ^ pattern)
    z_hat = one_time_pad(bundle.u, x_hat, params.ell)
    m_hat = z_hat ^ bundle.c
    # _lengths_match fixed len(w) = ell0 and w != 0: no field of a length
    # the server chose is ever built
    m0_hat = derandomize(m_hat, secrets.m_nabla, bundle.w)
    try:
        message = decompress(m0_hat, prefix_code)
    except ParseError:
        # only reachable through tampering that survives every other test
        return RetrievalOutcome(0, None, "decode")
    return RetrievalOutcome(1, message, "none")


# ---------------------------------------------------------------------------
# usefulness accounting
# ---------------------------------------------------------------------------

def usefulness(secrets: ClientSecrets, message_bits: float) -> float:
    """Y = (message bits - locally stored bits) / message bits.

    Positive Y means delegation actually saves storage; callers should
    treat Y <= 0 as "not useful".
    """
    if message_bits <= 0:
        raise ValueError("message_bits must be positive")
    return (message_bits - secrets.storage_bits()) / message_bits


# ---------------------------------------------------------------------------
# recursion, in the capacity-rate limit only
# ---------------------------------------------------------------------------

def ideal_recursion_accounting(beta0: float, ell: float, residual_threshold: float) -> dict:
    """Geometric bookkeeping of the recursion with capacity-rate codes.

    Each level stores a message of m_i bits with m_i/(1 - h) qubits and
    leaves a syndrome of m_i * h/(1 - h) bits for the next level.  Stops
    when the residual drops under the threshold, which must be positive.
    """
    if not residual_threshold > 0:
        raise ValueError("need a positive residual threshold to stop at")
    h = binary_entropy(beta0)
    if 1 - 2 * h <= 0:
        raise ValueError("beta0 at or above the usefulness threshold")
    g = h / (1 - h)
    rows = []
    message_bits = float(ell)
    total_qubits = 0.0
    level = 0
    while True:
        level += 1
        qubits = message_bits / (1 - h)
        syndrome = message_bits * g
        total_qubits += qubits
        rows.append(
            {
                "level": level,
                "message_bits": message_bits,
                "qubits": qubits,
                "syndrome_bits": syndrome,
            }
        )
        message_bits = syndrome
        if message_bits < residual_threshold:
            break
    return {
        "levels": rows,
        "total_qubits": total_qubits,
        "residual_bits": message_bits,
        "limit_qubits": ell / (1 - 2 * h),
    }


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolInstance:
    """One session's parameter set, syndrome code and prefix code.

    The three must agree: the code is the one ``params.code_name`` names
    and the prefix code pads to ``params.ell0``.  That is checked once,
    when the session is made (``dataclasses.replace`` included), and
    ``store`` and ``retrieve`` trust it.
    """

    params: ProtocolParams
    code: LinearCode
    prefix_code: PrefixCode

    def __post_init__(self):
        params = self.params
        if self.code.name != params.code_name:
            raise ValueError(f"code {self.code.name}; params want {params.code_name}")
        if self.prefix_code.max_len != params.ell0:
            raise ValueError(
                f"prefix code pads to {self.prefix_code.max_len}, params.ell0 = {params.ell0}"
            )

    @classmethod
    def derive(
        cls,
        epsilon: float,
        beta0: float,
        ell: int,
        prefix_code: PrefixCode,
        registry: CodeRegistry | None = None,
    ) -> "ProtocolInstance":
        params = derive_params(epsilon, beta0, ell, ell0=prefix_code.max_len)
        registry = registry or default_registry()
        return cls(params, registry.by_name(params.code_name), prefix_code)

    def check_secrets(self, secrets: ClientSecrets) -> None:
        """The client's own secrets fit params.  A mismatch is a local fault,
        not the server's, so it raises ValueError naming the field."""
        params, layout = self.params, secrets.layout
        for name, got, want in (
            ("t length", layout.t.length, params.n + params.r),
            ("t weight", layout.r, params.r),
            ("v length", secrets.v.length, params.r),
            ("s length", secrets.s.length, params.n - params.kappa),
            ("m_nabla length", secrets.m_nabla.length, params.ell0 - params.ell),
            ("mac_key lam", secrets.mac_key.lam, params.lam),
        ):
            if got != want:
                raise ValueError(f"secrets field {name} is {got}; params want {want}")

    # the two phases themselves: session.store(message, rng) is
    # store(session, message, rng)
    store = store
    retrieve = retrieve

    def apply_noise(self, bundle: ServerBundle, rng: np.random.Generator) -> None:
        if self.params.beta0 > 0:
            apply_storage_noise(bundle.register, self.params.beta0, rng)
