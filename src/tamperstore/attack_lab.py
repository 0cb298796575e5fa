"""Exact small-dimension analysis of the support-measurement attack.

A toy scheme assigns each (message, key) pair a pure state of dimension
at most 64, which the owner verifies by its own projector.  The attack
projects the stored state onto the combined support of the most likely
message's encryptions over all keys and guesses that message if the
projector fires.  A right guess leaves the state untouched, so the
owner's check passes exactly where the attack wins.

Everything is exact linear algebra on state vectors (no sampling, no
density matrices).  A scheme's joint span is built once, after the
orthogonality check, and the branch probabilities of the measurement at
each m* once each.  Every figure (the attack under the scheme's prior,
the best placement of a prior, the average over placements, the
fixed-advantage witness) is a prior-weighted sum over those arrays,
formed by ``_branch_sums``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

RANK_TOL = 1e-9
OVERLAP_TOL = 1e-9
MAX_DIM = 64


class SchemeError(ValueError):
    """Scheme violates a structural requirement; message says which."""


def _span_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the given rows: the eigenvectors of the
    sum of their projectors above ``RANK_TOL`` times its top eigenvalue."""
    _, sing, rows = np.linalg.svd(vectors, full_matrices=False)
    return rows[sing**2 > RANK_TOL * sing[0] ** 2]


def _weight(states: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """||P psi||^2 for every state psi, P the projector onto the basis' span."""
    return np.sum(np.abs(states @ basis.conj().T) ** 2, axis=-1)


@dataclass(frozen=True)
class ToyScheme:
    """Messages with a prior, keys, and one pure encryption per (message, key).

    ``states[i, j]`` is the unit vector psi of ``messages[i]`` under
    ``keys[j]`` (normalised here).  The owner accepts a possibly disturbed
    state sigma with probability <psi|sigma|psi>.
    """

    name: str
    messages: tuple
    probs: np.ndarray
    keys: tuple
    states: np.ndarray = field(repr=False)
    # m* -> ``_branch_tensors(self, m*)``, filled by ``_tensors``
    _branches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        prior_ok = probs.shape == (len(self.messages),) and np.all(probs >= 0)
        if not (prior_ok and abs(probs.sum() - 1) <= 1e-12):
            raise SchemeError("message prior must be nonnegative and sum to 1")
        states = np.asarray(self.states, dtype=np.complex128)
        if not self.keys or states.shape[:-1] != (len(self.messages), len(self.keys)):
            raise SchemeError("need a key, and one state vector per (message, key)")
        if states.shape[-1] > MAX_DIM:
            raise SchemeError(f"dimension {states.shape[-1]} exceeds the exact-computation cap")
        norms = np.linalg.norm(states, axis=-1, keepdims=True)
        if not np.all(np.isfinite(norms) & (norms > 0)):
            raise SchemeError("every state vector must be finite and nonzero")
        object.__setattr__(self, "states", states / norms)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def check_orthogonality(self) -> None:
        """Correctness requires each key's encryptions of distinct messages
        to be orthogonal: the Gram matrix per key is the identity."""
        gram = np.einsum("mkd,nkd->kmn", self.states.conj(), self.states)
        defects = np.abs(gram - np.eye(len(self.messages))).max(axis=(1, 2))
        for k, defect in zip(self.keys, defects):
            if defect > OVERLAP_TOL:
                raise SchemeError(
                    f"supports overlap for key {k!r}: Gram matrix off the identity by "
                    f"{defect:.2e}; decryption cannot distinguish the messages")

    @cached_property
    def _joint_basis(self) -> np.ndarray:
        """Orthonormal rows spanning every encryption, built once per scheme
        after the orthogonality check."""
        self.check_orthogonality()
        return _span_basis(self.states.reshape(-1, self.dim))

    def dump(self, path) -> None:
        """Write the text form: state vectors as re,im pairs."""
        with open(path, "w") as fh:
            fh.write(f"# tamperstore scheme v1\nname {self.name}\ndim {self.dim}\n")
            fh.writelines(f"message {m} {float(p)!r}\n" for m, p in zip(self.messages, self.probs))
            fh.writelines(f"key {k}\n" for k in self.keys)
            for m, row in zip(self.messages, self.states):
                for k, vec in zip(self.keys, row):
                    pairs = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in vec)
                    fh.write(f"state {m} {k} {pairs}\n")

    @classmethod
    def load(cls, path) -> "ToyScheme":
        """Read a file written by ``dump``; messages and keys come before their
        states.  A malformed line, a repeat, or a state of an undeclared
        message or key raises ValueError naming the line; a missing state,
        one naming its message and key."""
        name, dim = "scheme", None
        priors, keys, vectors = {}, {}, {}
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
                        if dim is not None:
                            raise ValueError("dim is already fixed")
                        dim = int(rest[0])
                    elif head == "message":
                        _declare(priors, int(rest[0]), float(rest[1]))
                    elif head == "key":
                        _declare(keys, int(rest[0]), None)
                    elif head == "state":
                        m, k = int(rest[0]), int(rest[1])
                        vec = np.array([_complex_pair(pair) for pair in rest[2:]])
                        if m not in priors or k not in keys:
                            raise ValueError(f"message {m} or key {k} is not declared")
                        dim = vec.size if dim is None else dim  # no dim line: the first state's
                        if vec.size != dim:
                            raise ValueError("state vector does not match dim")
                        _declare(vectors, (m, k), vec)
                    else:
                        raise ValueError(f"unknown directive {head!r}")
                except ValueError as exc:
                    raise ValueError(f"{path}, line {number} ({line!r}): {exc}") from None
        for m, k in itertools.product(priors, keys):
            if (m, k) not in vectors:
                raise ValueError(f"{path}: no state for message {m}, key {k}")
        states = np.array([[vectors[(m, k)] for k in keys] for m in priors])
        return cls(name, tuple(priors), np.array(list(priors.values())), tuple(keys), states)


# fields after each directive; "state" takes m, k and one or more re,im pairs
_SCHEME_FIELDS = {"dim": 1, "message": 2, "key": 1}


def _declare(table: dict, name, value) -> None:
    if name in table:
        raise ValueError("repeats an earlier declaration")
    table[name] = value


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"state entry {text!r} is not re,im")
    return complex(float(parts[0]), float(parts[1]))


# ---------------------------------------------------------------------------
# scheme builders
# ---------------------------------------------------------------------------

_HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def bb84_toy(
    num_qubits: int,
    key_bits: int = 1,
    probs: np.ndarray | None = None,
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
    states = np.empty((len(messages), len(keys), 2**num_qubits))
    for m in messages:
        for k in keys:
            vec = np.array([1.0])
            for j in range(num_qubits):
                basis = _HAD if (k >> (j % key_bits)) & 1 else np.eye(2)
                vec = np.kron(vec, basis[(m >> j) & 1])  # H is symmetric: row = column
            states[m, k] = vec
    return ToyScheme(f"toy-bb84(q={num_qubits},kb={key_bits})", messages, probs, keys, states)


def classical_otp_toy(num_bits: int, probs: np.ndarray | None = None) -> ToyScheme:
    """One-time-pad in the standard basis: |K| = |M|, no support advantage."""
    values = tuple(range(2**num_bits))
    if probs is None:
        probs = np.full(len(values), 1.0 / len(values))
    states = np.eye(len(values))[np.bitwise_xor.outer(values, values)]  # |m xor k>
    return ToyScheme(f"classical-otp({num_bits})", values, probs, values, states)


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

    p1 (p0) is the probability that the projector Pi onto Pi_{m*,K} fires
    (that E - Pi does, E the projector onto the joint span), acc1 (acc0)
    that it does and the owner then accepts.  For a unit psi the owner's
    test |psi><psi| gives p1 = ||Pi psi||^2, p0 = ||E psi||^2 - p1,
    acc1 = p1^2 and acc0 = p0^2; p1 + p0 < 1 only by rank truncation.
    Callers go through ``_tensors``, which builds each m* once.
    """
    star = _span_basis(scheme.states[scheme.messages.index(m_star)])
    p1 = _weight(scheme.states, star)
    p0 = _weight(scheme.states, scheme._joint_basis) - p1
    return np.stack([p1, p0, p1**2, p0**2], axis=-1)


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


def best_permutation(scheme: ToyScheme, probs: np.ndarray) -> tuple[tuple, float, dict]:
    """Permutation of the prior maximising the undetected-guessing advantage.

    Exhaustive for |M| <= 8; beyond that 2,000 permutations drawn from
    ``default_rng(0)`` are searched, and the returned info dict reports the
    sampled fraction.
    """
    n, samples = len(scheme.messages), 2000
    if np.size(probs) != n:
        raise ValueError("prior size mismatch")
    if n <= 8:
        perms = np.array(list(itertools.permutations(range(n))))
        coverage = 1.0
    else:
        rng = np.random.default_rng(0)
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


def fixed_advantage_witness(usefulness_y: float, qubit_sizes=(2, 3, 4)) -> dict:
    """Fixed-advantage floor across message sizes at constant key fraction.

    For each size q a scheme with |K| = (1 - Y) |M| keys is built and the
    heavy message gets the prior p* = 1/2; the measured best-placement
    advantage never drops below p*(1-p*) Y, so no epsilon below that floor
    is achievable no matter the message length.
    """
    if not 0 < usefulness_y < 1:
        raise ValueError("need 0 < Y < 1")
    key_frac = 1 - usefulness_y
    p_star = 0.5  # the heavy message's prior
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
