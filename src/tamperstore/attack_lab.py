"""Exact small-dimension analysis of the support-measurement attack.

A toy scheme assigns each (message, key) pair a density operator on a
Hilbert space of dimension at most 64 together with an acceptance test.
The attack projects the stored state onto the combined support of the
most likely message's encryptions over all keys: if the projector fires,
the message is guessed to be that one, otherwise not.  When the guess is
right the state is untouched and the owner's check passes, which is what
makes the attack undetectable exactly where it wins.

Everything here is computed by exact linear algebra (no sampling).  A
scheme's per-message supports and their joint span are built once, after
the orthogonality check, and the branch probabilities of the measurement
at each m* once each.  Every figure (the attack under the scheme's own
prior, the best placement of a prior, the average over placements, the
fixed-advantage witness) is then a prior-weighted sum over those arrays,
formed by ``_branch_sums``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
PROJECTOR_TOL = 1e-9
RANK_TOL = 1e-9
MAX_DIM = 64


class SchemeError(ValueError):
    """Scheme violates a structural requirement; message says which."""


@dataclass(frozen=True)
class DensityOperator:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be square")
        if m.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[0]} exceeds the exact-computation cap")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {eigs.min():.2e}")
        tr = float(np.real(np.trace(m)))
        if not 0 < tr <= 1 + PSD_TOL:
            raise ValueError(f"trace {tr} outside (0, 1]")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DensityOperator":
        v = np.asarray(vector, dtype=np.complex128)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class Projector:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("not Hermitian")
        if np.max(np.abs(m @ m - m)) > PROJECTOR_TOL:
            raise ValueError("not idempotent")


def support_projector(operators) -> Projector:
    """Projector onto the span of the supports of the given operators."""
    mats = [
        op.matrix if isinstance(op, (DensityOperator, Projector)) else np.asarray(op)
        for op in operators
    ]
    if not mats:
        raise ValueError("no operators")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("dimension mismatch among operators")
    total = sum(mats)
    eigvals, eigvecs = np.linalg.eigh(total)
    cutoff = RANK_TOL * max(float(eigvals.max()), 1e-300)
    keep = eigvecs[:, eigvals > cutoff]
    return Projector(keep @ keep.conj().T)


@dataclass(frozen=True)
class ToyScheme:
    """Messages with a prior, keys, encryptions, and an acceptance test.

    ``verification`` maps (m, k) to an operator A with 0 <= A <= 1; the
    owner accepts a (possibly disturbed) state sigma with probability
    tr(A sigma).  The default, installed by the builders, is the projector
    onto the encryption's own support: re-measure and compare.
    """

    name: str
    messages: tuple
    probs: np.ndarray
    keys: tuple
    states: dict
    verification: dict = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.size != len(self.messages) or abs(probs.sum() - 1) > 1e-12:
            raise SchemeError("message prior must sum to 1")
        dims = {self.states[(m, k)].dim for m in self.messages for k in self.keys}
        if len(dims) != 1:
            raise SchemeError("all encryptions must share one dimension")

    @property
    def dim(self) -> int:
        return next(iter(self.states.values())).dim

    def check_orthogonality(self) -> None:
        """Correctness requires sum_m Pi_{m,k} to be a projector for every key."""
        for k in self.keys:
            total = sum(
                support_projector([self.states[(m, k)]]).matrix for m in self.messages
            )
            defect = float(np.max(np.abs(total @ total - total)))
            if defect > PROJECTOR_TOL:
                raise SchemeError(
                    f"supports overlap for key {k!r}: ||S^2 - S|| = {defect:.2e}; "
                    "decryption cannot distinguish the messages"
                )

    def message_support(self, m) -> Projector:
        """Pi_{m, K}: combined support of m's encryptions over all keys."""
        return support_projector([self.states[(m, k)] for k in self.keys])

    @cached_property
    def _supports(self) -> tuple[np.ndarray, np.ndarray]:
        """(Pi_{m,K} for every message, stacked; the projector onto their
        joint span), built once per scheme after the orthogonality check."""
        self.check_orthogonality()
        per_message = np.stack([self.message_support(m).matrix for m in self.messages])
        return per_message, support_projector(per_message).matrix

    @cached_property
    def _branches(self) -> dict:
        """m* -> ``_branch_tensors(self, m*)``, filled by ``_tensors``."""
        return {}


# ---------------------------------------------------------------------------
# scheme builders
# ---------------------------------------------------------------------------

_KET0 = np.array([1.0, 0.0])
_KET1 = np.array([0.0, 1.0])
_HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def bb84_toy(
    num_qubits: int,
    key_bits: int = 1,
    probs: np.ndarray | None = None,
    name: str | None = None,
) -> ToyScheme:
    """Product BB84 encodings: message bits in bases selected by the key.

    Qubit j is prepared in the standard or Hadamard basis according to key
    bit (j mod key_bits), so |K| = 2^key_bits while |M| = 2^num_qubits.
    Verification re-measures in the key's bases and compares.
    """
    if num_qubits < 1 or 2**num_qubits > MAX_DIM:
        raise ValueError("need 1 <= qubits <= 6")
    if not 1 <= key_bits <= num_qubits:
        raise ValueError("key_bits out of range")
    messages = tuple(range(2**num_qubits))
    keys = tuple(range(2**key_bits))
    if probs is None:
        probs = np.full(len(messages), 1.0 / len(messages))
    states, verification = {}, {}
    for m in messages:
        for k in keys:
            vec = np.array([1.0])
            for j in range(num_qubits):
                ket = _KET1 if (m >> j) & 1 else _KET0
                if (k >> (j % key_bits)) & 1:
                    ket = _HAD @ ket
                vec = np.kron(vec, ket)
            rho = DensityOperator.pure(vec)
            states[(m, k)] = rho
            verification[(m, k)] = rho.matrix  # re-measure in key basis, compare
    return ToyScheme(
        name or f"toy-bb84(q={num_qubits},kb={key_bits})",
        messages,
        probs,
        keys,
        states,
        verification,
    )


def classical_otp_toy(num_bits: int, probs: np.ndarray | None = None) -> ToyScheme:
    """One-time-pad in the standard basis: |K| = |M|, no support advantage."""
    messages = tuple(range(2**num_bits))
    keys = tuple(range(2**num_bits))
    if probs is None:
        probs = np.full(len(messages), 1.0 / len(messages))
    dim = 2**num_bits
    states, verification = {}, {}
    for m in messages:
        for k in keys:
            vec = np.zeros(dim)
            vec[m ^ k] = 1.0
            rho = DensityOperator.pure(vec)
            states[(m, k)] = rho
            verification[(m, k)] = rho.matrix
    return ToyScheme(f"classical-otp({num_bits})", messages, probs, keys, states, verification)


# ---------------------------------------------------------------------------
# the attack, exactly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackReport:
    scheme: str
    m_star: object
    p_star: float
    pr_win: float
    pr_acc: float
    pr_win_and_acc: float
    pr_win_given_acc: float
    advantage: float
    win_and_acc_given_star: float
    povm_defect: float
    rows: list = field(repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "message", "key", "prior", "pr_project", "pr_acc",
                    "pr_win_and_acc",
                ],
            )
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


def _branch_tensors(scheme: ToyScheme, m_star) -> np.ndarray:
    """Exact branch probabilities of the measurement at m_star, as an
    (|M|, |K|, 4) array of (p1, p0, acc1, acc0) per (m, k).

    p1 (p0) is the probability that the projector onto Pi_{m*,K} fires
    (does not), acc1 (acc0) that it does (does not) and the owner then
    accepts.  Callers go through ``_tensors``, which builds each m* once.
    """
    per_message, everything = scheme._supports
    pi = per_message[scheme.messages.index(m_star)]
    comp = everything - pi
    pairs = [(m, k) for m in scheme.messages for k in scheme.keys]
    shape = (len(scheme.messages), len(scheme.keys)) + pi.shape
    rho = np.array([scheme.states[pair].matrix for pair in pairs]).reshape(shape)
    test = np.array([scheme.verification[pair] for pair in pairs]).reshape(shape)
    branch1 = pi @ rho @ pi
    branch0 = comp @ rho @ comp
    parts = (branch1, branch0, test @ branch1, test @ branch0)
    return np.stack([np.real(np.trace(b, axis1=-2, axis2=-1)) for b in parts], axis=-1)


def _tensors(scheme: ToyScheme, m_star) -> np.ndarray:
    """``_branch_tensors(scheme, m_star)``, built at most once per scheme."""
    if m_star not in scheme._branches:
        scheme._branches[m_star] = _branch_tensors(scheme, m_star)
    return scheme._branches[m_star]


def _branch_sums(scheme: ToyScheme, priors: np.ndarray, stars: np.ndarray) -> np.ndarray:
    """Prior-weighted (Pr[WIN], Pr[acc], Pr[WIN and acc]), keys uniform.

    Row i weights the messages by ``priors[i]`` under the measurement at
    message index ``stars[i]``; the result has one row of three per prior.
    """
    sums = np.empty((len(priors), 3))
    for star in np.unique(stars):
        p1, p0, acc1, acc0 = np.moveaxis(_tensors(scheme, scheme.messages[star]), -1, 0)
        is_star = (np.arange(len(p1)) == star)[:, None]
        per_message = np.stack(
            [np.where(is_star, p1, p0), acc1 + acc0, np.where(is_star, acc1, acc0)]
        ).mean(axis=-1)
        rows = stars == star
        sums[rows] = priors[rows] @ per_message.T
    return sums


def _win_given_acc(sums: np.ndarray) -> np.ndarray:
    """Pr[WIN | acc] per row of ``_branch_sums``; 0 where Pr[acc] = 0."""
    acc, win_acc = sums[:, 1], sums[:, 2]
    return np.divide(win_acc, acc, out=np.zeros_like(acc), where=acc > 0)


def run_support(scheme: ToyScheme, m_star=None) -> AttackReport:
    """Evaluate the attack exactly under the scheme's own prior."""
    probs = scheme.probs
    star = int(np.argmax(probs)) if m_star is None else scheme.messages.index(m_star)
    m_star = scheme.messages[star]
    p_star = float(probs[star])
    # the scheme's prior, then the prior with all mass on m*
    priors = np.stack([probs, np.eye(len(probs))[star]])
    sums = _branch_sums(scheme, priors, np.array([star, star]))
    pr_win_given_acc = float(_win_given_acc(sums)[0])
    tensors = _tensors(scheme, m_star)
    rows = [
        {
            "message": m,
            "key": k,
            "prior": float(probs[i]),
            "pr_project": float(p1),
            "pr_acc": float(acc1 + acc0),
            "pr_win_and_acc": float(acc1 if i == star else acc0),
        }
        for i, m in enumerate(scheme.messages)
        for k, (p1, _, acc1, acc0) in zip(scheme.keys, tensors[i])
    ]
    return AttackReport(
        scheme=scheme.name,
        m_star=m_star,
        p_star=p_star,
        pr_win=float(sums[0, 0]),
        pr_acc=float(sums[0, 1]),
        pr_win_and_acc=float(sums[0, 2]),
        pr_win_given_acc=pr_win_given_acc,
        advantage=pr_win_given_acc - p_star,
        win_and_acc_given_star=float(sums[1, 2]),
        povm_defect=float(np.max(np.abs(tensors[..., 0] + tensors[..., 1] - 1.0))),
        rows=rows,
    )


def advantage_floor(p_star: float, keys: int, messages: int) -> float:
    """The guaranteed advantage p*(1-p*)(1 - |K|/|M|)."""
    return p_star * (1 - p_star) * (1 - keys / messages)


def best_permutation(
    scheme: ToyScheme,
    probs: np.ndarray,
    max_exhaustive: int = 8,
    samples: int = 2000,
    rng: np.random.Generator | None = None,
) -> tuple[tuple, float, dict]:
    """Permutation of the prior maximising the undetected-guessing advantage.

    Exhaustive for |M| <= max_exhaustive; beyond that a random search runs
    and the returned info dict reports the sampled fraction.
    """
    n = len(scheme.messages)
    if np.size(probs) != n:
        raise ValueError("prior size mismatch")
    if n <= max_exhaustive:
        perms = np.array(list(itertools.permutations(range(n))))
        coverage = 1.0
    else:
        rng = rng or np.random.default_rng(0)
        perms = np.array([rng.permutation(n) for _ in range(samples)])
        coverage = samples / math.factorial(n)
    priors = np.asarray(probs, dtype=np.float64)[perms]  # one placement per row
    stars = priors.argmax(axis=1)  # the first most likely message
    advantage = (
        _win_given_acc(_branch_sums(scheme, priors, stars)) - priors[np.arange(len(perms)), stars]
    )
    best = int(np.argmax(advantage))
    info = {"coverage": coverage, "messages": n}
    return tuple(int(i) for i in perms[best]), float(advantage[best]), info


def permutation_average_win_given_not_star(scheme: ToyScheme, probs: np.ndarray) -> float:
    """Exact average over permutations of Pr[WIN | M != m*]."""
    perms = np.array(list(itertools.permutations(range(len(scheme.messages)))))
    priors = np.asarray(probs, dtype=np.float64)[perms]
    stars = priors.argmax(axis=1)
    priors[np.arange(len(perms)), stars] = 0.0  # each placement restricted to M != m*
    win = _branch_sums(scheme, priors, stars)[:, 0]
    return float(np.mean(win / priors.sum(axis=1)))


def fixed_advantage_witness(
    usefulness_y: float, qubit_sizes=(2, 3, 4), p_star: float = 0.5
) -> dict:
    """Fixed-advantage floor across message sizes at constant key fraction.

    For each size q a scheme with |K| = (1 - Y) |M| keys is built; the
    measured best-placement advantage never drops below p*(1-p*) Y, so no
    epsilon below that floor is achievable no matter the message length.
    """
    if not 0 < usefulness_y < 1:
        raise ValueError("need 0 < Y < 1")
    key_frac = 1 - usefulness_y
    floor = p_star * (1 - p_star) * usefulness_y
    rows = []
    for q in qubit_sizes:
        key_bits = q + math.log2(key_frac)
        if abs(key_bits - round(key_bits)) > 1e-9 or round(key_bits) < 1:
            raise ValueError(f"key fraction {key_frac} not realisable at q = {q}")
        key_bits = int(round(key_bits))
        n_msgs = 2**q
        # row t places the heavy mass on message t, which is then m*
        priors = np.full((n_msgs, n_msgs), (1 - p_star) / (n_msgs - 1))
        np.fill_diagonal(priors, p_star)
        sums = _branch_sums(bb84_toy(q, key_bits), priors, np.arange(n_msgs))
        rows.append(
            {
                "qubits": q,
                "messages": n_msgs,
                "keys": 2**key_bits,
                "floor": floor,
                "measured_advantage": float(np.max(_win_given_acc(sums) - p_star)),
            }
        )
    return {"usefulness": usefulness_y, "p_star": p_star, "floor": floor, "rows": rows}


# ---------------------------------------------------------------------------
# declarative scheme files
# ---------------------------------------------------------------------------

def dump_scheme(scheme: ToyScheme, path) -> None:
    """Pure-state schemes only: writes state vectors as re,im pairs."""
    with open(path, "w") as fh:
        fh.write(f"# tamperstore scheme v1\nname {scheme.name}\ndim {scheme.dim}\n")
        for m, p in zip(scheme.messages, scheme.probs):
            fh.write(f"message {m} {float(p)!r}\n")
        for k in scheme.keys:
            fh.write(f"key {k}\n")
        for (m, k), rho in scheme.states.items():
            eigvals, eigvecs = np.linalg.eigh(rho.matrix)
            if np.sum(eigvals > 1e-9) != 1:
                raise ValueError("only pure-state schemes have a text form")
            vec = eigvecs[:, -1]
            pairs = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in vec)
            fh.write(f"state {m} {k} {pairs}\n")


# fields after each directive; "state" takes m, k and one or more re,im pairs
_SCHEME_FIELDS = {"dim": 1, "message": 2, "key": 1}


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"state entry {text!r} is not re,im")
    return complex(float(parts[0]), float(parts[1]))


def load_scheme(path) -> ToyScheme:
    """Read a file written by ``dump_scheme``; a malformed line raises
    ValueError naming it."""
    name, dim = "scheme", None
    messages, probs, keys = [], [], []
    states, verification = {}, {}
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, *rest = line.split()
            try:
                fields = _SCHEME_FIELDS.get(head)
                short_state = head == "state" and len(rest) < 3
                if short_state or (fields is not None and len(rest) != fields):
                    raise ValueError(f"wrong number of fields for {head!r}")
                if head == "name":
                    name = " ".join(rest)
                elif head == "dim":
                    dim = int(rest[0])
                elif head == "message":
                    messages.append(int(rest[0]))
                    probs.append(float(rest[1]))
                elif head == "key":
                    keys.append(int(rest[0]))
                elif head == "state":
                    m, k = int(rest[0]), int(rest[1])
                    vec = np.array([_complex_pair(pair) for pair in rest[2:]])
                    if dim is not None and vec.size != dim:
                        raise ValueError("state vector does not match dim")
                    rho = DensityOperator.pure(vec)
                    states[(m, k)] = rho
                    verification[(m, k)] = rho.matrix
                else:
                    raise ValueError(f"unknown directive {head!r}")
            except ValueError as exc:
                raise ValueError(f"{path}, line {number} ({line!r}): {exc}") from None
    return ToyScheme(name, tuple(messages), np.array(probs), tuple(keys), states, verification)
