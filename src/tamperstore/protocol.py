"""The delegated-storage state machines (store, retrieve), usefulness
accounting, and the ideal ledger of recursive delegation.

``store`` runs the five preparation steps (compress, randomise, encode
into qubits with hidden traps, extract a one-time pad and syndrome, tag)
and returns the server bundle next to the client secrets; everything else
is discarded.  ``retrieve`` runs the four testing/decryption steps against
a possibly tampered bundle and returns an outcome flag instead of raising:
aborts are regular results, and a bundle whose field lengths differ from
the parameters', or whose seed w is zero, aborts with reason "format"
before the MAC is checked.  Both take a ``ProtocolParams``, which checks
the recipe's constraints once, when it is made, and the menu code it names.

Variable homes (the classical state of one session):
  server bundle   w, u, c, theta, qubit register
  client secrets  mac key, trap layout, trap values v, syndrome s, m_nabla
  discarded       xi, x, z, p, m, m0 and every other intermediate

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
from .bits import Bits
from .entropy import binary_entropy
from .gf2 import GF2Field, phi
from .linear_code import CodeRegistry, LinearCode, default_registry
from .mac import MacKey, tag, verify
from .params import ProtocolParams, derive_params
from .qsim import QubitRegister, TrapLayout, apply_storage_noise, measure, prepare
from .randomizer import ParseError, PrefixCode, compress, decompress, derandomize, randomize

BUNDLE_VARS = ("w", "u", "c", "theta", "register")
SECRET_VARS = ("mac_key", "layout", "v", "s", "m_nabla")


def _transcript(w: Bits, u: Bits, c: Bits) -> Bits:
    """The layout the MAC covers: w || u || c, unframed."""
    return w.concat(u).concat(c)


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

    def to_kv(self) -> dict:
        return {
            "w": self.w,
            "u": self.u,
            "c": self.c,
            "theta": self.theta,
            "register": self.register.to_bytes(),
            "register_note": "simulation checkpoint, not physically transferable",
        }

    @classmethod
    def from_kv(cls, mapping: dict) -> "ServerBundle":
        kv.check_types(
            "bundle", mapping, {"w": Bits, "u": Bits, "c": Bits, "theta": Bits, "register": bytes}
        )
        # w stays a bit string: a field of a length the server chose would
        # cost a modulus search and a write to the client's cache, so
        # retrieval reads w in the field of params.ell0 after checking its
        # length.  A "w_modulus" key left by older files is ignored.
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
        return cls.from_kv(kv.load(path, "bundle"))


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
        kv.check_types("secrets", mapping, {
            **dict.fromkeys(("mac_key", "t", "v", "s", "m_nabla"), Bits),
            "r": int,
        })
        # "code_name" and "prefix_code_name" keys left by older files are
        # ignored; an "r" key they left must be the weight of t
        layout = TrapLayout(mapping["t"])
        if mapping.get("r", layout.r) != layout.r:
            raise ValueError(f"secrets field r = {mapping['r']}, but t holds {layout.r} traps")
        return cls(
            mac_key=MacKey.from_bits(mapping["mac_key"]),
            layout=layout,
            v=mapping["v"],
            s=mapping["s"],
            m_nabla=mapping["m_nabla"],
        )

    def dump(self, path) -> None:
        kv.dump(path, "secrets", self.to_kv())

    @classmethod
    def load(cls, path) -> "ClientSecrets":
        return cls.from_kv(kv.load(path, "secrets"))


@dataclass(frozen=True)
class RetrievalOutcome:
    omega: int
    message: int | None
    abort_reason: str  # "format", "mac", "trap", "decode", or "none"

    def __post_init__(self):
        if (self.omega == 1) != (self.message is not None):
            raise ValueError("message must be present exactly when omega = 1")


def one_time_pad(u: Bits, x: Bits, ell: int, field: GF2Field) -> Bits:
    """z = phi(u, x, ell), the first ell bits of u * x in GF(2^n).

    The two-universal hash of the payload under the seed u (which may be
    zero); only those ell bits of the product are computed.  A seed or
    payload whose length is not n raises ``ValueError``.
    """
    return phi(field.element(u), field.element(x), ell)


def _check_shapes(params: ProtocolParams, code: LinearCode, prefix_code: PrefixCode):
    if code.name != params.code_name:
        raise ValueError(f"code {code.name}; params want {params.code_name}")
    if prefix_code.max_len != params.ell0:
        raise ValueError(
            f"prefix code pads to {prefix_code.max_len}, params.ell0 = {params.ell0}"
        )


def store(
    message: int,
    params: ProtocolParams,
    code: LinearCode,
    prefix_code: PrefixCode,
    rng: np.random.Generator,
) -> tuple[ServerBundle, ClientSecrets]:
    """Steps 1-5: compress, randomise, prepare qubits, pad, tag."""
    _check_shapes(params, code, prefix_code)
    m0 = compress(message, prefix_code, rng)
    seed_field = GF2Field(params.ell0)
    w = seed_field.random_nonzero(rng)
    rm = randomize(m0, w, params.ell)

    total = params.n + params.r
    xi = Bits.random(total, rng).to_array()
    layout = TrapLayout.random(total, params.r, rng)
    v, x = layout.split(xi)
    register = prepare(xi, layout.mask, params.r)

    u = Bits.random(params.d, rng)
    s = code.syn(x)
    z = one_time_pad(u, x, params.ell, GF2Field(params.n))
    c = rm.m ^ z

    mac_key = MacKey.random(params.lam, rng)  # fresh key: used for this one tag
    bundle = ServerBundle(
        w=w.bits,
        u=u,
        c=c,
        theta=tag(mac_key, _transcript(w.bits, u, c)),
        register=register,
    )
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
    bundle: ServerBundle,
    secrets: ClientSecrets,
    params: ProtocolParams,
    code: LinearCode,
    prefix_code: PrefixCode,
    rng: np.random.Generator,
) -> RetrievalOutcome:
    """Steps 6-9 against a possibly tampered bundle; aborts are outcomes."""
    _check_shapes(params, code, prefix_code)
    if not _lengths_match(bundle, params):
        return RetrievalOutcome(0, None, "format")
    if not verify(secrets.mac_key, bundle.classical_bits(), bundle.theta):
        return RetrievalOutcome(0, None, "mac")

    layout = secrets.layout
    word = measure(bundle.register, layout.mask, rng)
    if (layout.traps(word) ^ secrets.v).weight() > params.beta * params.r:
        return RetrievalOutcome(0, None, "trap")  # a trap abort never needs the payload

    x_prime = layout.payload(word)
    pattern = code.syn_dec(secrets.s ^ code.syn(x_prime))
    if pattern is None:
        return RetrievalOutcome(0, None, "decode")
    x_hat = x_prime ^ pattern
    z_hat = one_time_pad(bundle.u, x_hat, params.ell, GF2Field(params.n))
    m_hat = z_hat ^ bundle.c
    m0_hat = derandomize(m_hat, secrets.m_nabla, GF2Field(params.ell0).element(bundle.w))
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

def ideal_recursion_accounting(
    beta0: float,
    ell: float,
    residual_threshold: float | None = None,
    depth: int | None = None,
) -> dict:
    """Geometric bookkeeping of the recursion with capacity-rate codes.

    Each level stores a message of m_i bits with m_i/(1 - h) qubits and
    leaves a syndrome of m_i * h/(1 - h) bits for the next level.  Stops
    after ``depth`` levels or when the residual drops under the threshold.
    """
    if depth is None and residual_threshold is None:
        raise ValueError("need a stopping rule")
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
        if depth is not None and level >= depth:
            break
        if residual_threshold is not None and message_bits < residual_threshold:
            break
    return {
        "levels": rows,
        "total_qubits": total_qubits,
        "residual_bits": message_bits,
        "limit_qubits": ell / (1 - 2 * h),
    }


# ---------------------------------------------------------------------------
# session convenience wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolInstance:
    """A parameter set, code, and prefix code wired together."""

    params: ProtocolParams
    code: LinearCode
    prefix_code: PrefixCode

    @classmethod
    def derive(
        cls,
        epsilon: float,
        beta0: float,
        ell: int,
        prefix_code: PrefixCode,
        registry: CodeRegistry | None = None,
    ) -> "ProtocolInstance":
        registry = registry or default_registry()
        params = derive_params(
            epsilon, beta0, ell, ell0=prefix_code.max_len, registry=registry
        )
        return cls(params, registry.by_name(params.code_name), prefix_code)

    def store(self, message: int, rng: np.random.Generator):
        return store(message, self.params, self.code, self.prefix_code, rng)

    def apply_noise(self, bundle: ServerBundle, rng: np.random.Generator) -> None:
        if self.params.beta0 > 0:
            apply_storage_noise(bundle.register, self.params.beta0, rng)

    def retrieve(self, bundle, secrets, rng: np.random.Generator) -> RetrievalOutcome:
        return retrieve(bundle, secrets, self.params, self.code, self.prefix_code, rng)
