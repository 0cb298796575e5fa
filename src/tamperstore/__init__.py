"""Tamper-evident delegated storage on a simulated quantum server.

The library covers the whole pipeline: binary-field hashing (gf2),
entropy accounting (entropy), reversible message randomisation
(randomizer), syndrome codes (linear_code), one-time authentication
(mac), the stochastic qubit store (qsim), the store/retrieve state
machines (protocol), the finite-size parameter recipe (params), the
exact support-measurement attack lab on pure-state toy schemes
(attack_lab), and a reproducible Monte-Carlo harness (experiments) with
a CLI (cli).
"""

__version__ = "0.1.0"

from .bits import Bits
from .gf2 import GF2Field, phi
from .entropy import (
    DiscreteDistribution,
    binary_entropy,
    example1,
    example1_padded,
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
from .attack_lab import (
    ToyScheme,
    bb84_toy,
    best_permutation,
    run_support,
    fixed_advantage_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
