"""Tamper-evident delegated storage on a simulated quantum server.

``import tamperstore`` loads the session layers and re-exports their
names: binary-field hashing (gf2), entropy accounting (entropy),
reversible message randomisation (randomizer), syndrome codes
(linear_code), one-time authentication (mac), the stochastic qubit store
(qsim), the finite-size parameter recipe (params) and the store/retrieve
state machines (protocol).  Two analyses sit on top and are imported by
name only: the exact support-measurement attack lab on pure-state toy
schemes (``tamperstore.attack_lab``) and the reproducible Monte-Carlo
harness (``tamperstore.experiments``).  The CLI (``tamperstore.cli``)
loads them only for the subcommands that run them.
"""

__version__ = "0.1.0"

from .bits import Bits
from .gf2 import GF2Field, phi
from .entropy import (
    DiscreteDistribution,
    binary_entropy,
    example1,
    extractable_length,
    min_entropy,
    renyi_entropy,
    shannon_entropy,
    smooth_renyi2,
    uniform,
)
from .randomizer import (
    PrefixCode,
    build_prefix_code,
    compress,
    decompress,
    derandomize,
    example1_code,
    padded_law,
    randomize,
)
from .linear_code import LinearCode, default_registry
from .mac import MacKey, tag, verify
from .qsim import (
    EveView,
    InterceptResend,
    PassiveEve,
    QubitRegister,
    TrapLayout,
    apply_storage_noise,
    measure,
    prepare,
)
from .params import (
    ProtocolParams,
    asymptotic_rates,
    correctness_bound,
    derive_params,
    qkd_threshold,
    security_bound,
)
from .protocol import (
    ClientSecrets,
    ProtocolInstance,
    RetrievalOutcome,
    ServerBundle,
    retrieve,
    store,
    usefulness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
