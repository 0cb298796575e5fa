"""Entropy functionals for the randomiser and the parameter engine.

All entropies are in bits (log base 2).  The smooth collision entropy is
computed by capping the largest probability masses, which minimises the
sum of squares among all sub-normalised vicinities of the distribution;
tests validate that optimum against an independent convex solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kv

_SUM_TOL = 1e-12


class UnsupportedOrderError(ValueError):
    """Renyi order 1 is Shannon entropy, which is a separate operation."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probabilities over integer outcome ids, with zero-mass entries dropped."""

    outcomes: np.ndarray
    probs: np.ndarray
    name: str = ""

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if outcomes.shape != probs.shape or probs.ndim != 1:
            raise ValueError("outcomes and probs must be 1-d and aligned")
        if np.any(probs < 0):
            raise ValueError("negative probability")
        if abs(float(probs.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        keep = probs > 0
        object.__setattr__(self, "outcomes", outcomes[keep])
        object.__setattr__(self, "probs", probs[keep])
        if len(np.unique(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcome ids")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.choice(self.outcomes, size=size, p=self.probs)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def uniform(n: int, name: str = "") -> DiscreteDistribution:
    if n < 1:
        raise ValueError("empty support")
    return DiscreteDistribution(np.arange(n), np.full(n, 1.0 / n), name or f"uniform({n})")


def example1(L: int, mu0: int | None = None) -> DiscreteDistribution:
    """One message of probability 1/2, the other 2^L - 1 sharing the rest.

    ``mu0`` is the heavy message id; it defaults to the all-ones string so
    that the all-zero string keeps an ordinary codeword in the matching
    prefix code.
    """
    if mu0 is None:
        mu0 = (1 << L) - 1
    n = 1 << L
    probs = np.full(n, 0.5 / (n - 1))
    probs[mu0] = 0.5
    return DiscreteDistribution(np.arange(n), probs, f"example1(L={L})")


def example1_padded(L: int, mu0: int | None = None) -> DiscreteDistribution:
    """Distribution of the padded compression of :func:`example1`.

    Outcome ids are the (L+1)-bit strings with bit 0 first: ``0 || x`` has
    probability (1/2)/(2^L - 1) for x != mu0, and ``1 || x`` has 2^-(L+1).
    """
    if mu0 is None:
        mu0 = (1 << L) - 1
    n = 1 << L
    ids_zero = (np.arange(n) << 1)  # '0' || x
    ids_one = (np.arange(n) << 1) | 1  # '1' || x
    probs_zero = np.full(n, 0.5 / (n - 1))
    probs_zero[mu0] = 0.0
    probs_one = np.full(n, 0.5 / n)
    return DiscreteDistribution(
        np.concatenate([ids_zero, ids_one]),
        np.concatenate([probs_zero, probs_one]),
        f"example1_padded(L={L})",
    )


def iid_bernoulli(p: float, n: int) -> DiscreteDistribution:
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
    if n > 24:
        raise ValueError("support 2^n too large; keep n <= 24")
    ids = np.arange(1 << n, dtype=np.int64)
    weights = np.array([int(x).bit_count() for x in ids])
    probs = p**weights * (1 - p) ** (n - weights)
    return DiscreteDistribution(ids, probs, f"iid_bernoulli({p},{n})")


def load_distribution(path) -> DiscreteDistribution:
    """Text table, one "outcome-id probability" pair per line (``kv.load_table``)."""
    table = kv.load_table(path, float)
    return DiscreteDistribution(np.array(list(table)), np.array(list(table.values())))


def save_distribution(dist: DiscreteDistribution, path) -> None:
    with open(path, "w") as fh:
        for o, p in zip(dist.outcomes, dist.probs):
            fh.write(f"{int(o)} {float(p)!r}\n")


# ---------------------------------------------------------------------------
# entropy functionals
# ---------------------------------------------------------------------------

def binary_entropy(p):
    """h(p) = p log(1/p) + (1-p) log(1/(1-p)), with h(0) = h(1) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("argument outside [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(arr > 0, arr * np.log2(arr), 0.0) - np.where(
            arr < 1, (1 - arr) * np.log2(1 - arr), 0.0
        )
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def renyi_entropy(dist: DiscreteDistribution, alpha: float) -> float:
    if alpha == 1:
        raise UnsupportedOrderError("order 1 is Shannon entropy")
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("order must be in (0,1) or (1,inf)")
    return float(-np.log2(np.sum(dist.probs**alpha)) / (alpha - 1))


def shannon_entropy(dist: DiscreteDistribution) -> float:
    p = dist.probs
    return float(-np.sum(p * np.log2(p)))


def min_entropy(dist: DiscreteDistribution) -> float:
    return float(-np.log2(np.max(dist.probs)))


def _cap_level(sorted_desc: np.ndarray, prefix: np.ndarray, target_mass: float) -> tuple[float, int]:
    """Cap level c and count k of capped entries so sum(min(p, c)) = target."""
    s = sorted_desc.size
    # candidate c for each k: k entries capped at c, the rest untouched
    ks = np.arange(1, s + 1, dtype=np.float64)
    cs = (target_mass - 1.0 + prefix) / ks
    lower = np.concatenate([sorted_desc[1:], [0.0]])  # c must be >= next mass
    valid = (cs <= sorted_desc + 1e-18) & (cs >= lower - 1e-18)
    k = int(np.argmax(valid))  # first valid k
    return float(cs[k]), k + 1


def smooth_renyi2(dist: DiscreteDistribution, eta: float) -> float:
    """eta-smooth collision entropy: max H2 over the sub-normalised vicinity."""
    if not 0 <= eta < 1:
        raise ValueError("eta outside [0, 1)")
    return float(_smooth_renyi2_grid(dist, np.array([eta]))[0])


def _smooth_renyi2_grid(dist: DiscreteDistribution, etas: np.ndarray) -> np.ndarray:
    """Vectorised smooth_renyi2 over many smoothing levels."""
    sorted_desc = np.sort(dist.probs)[::-1]
    prefix = np.cumsum(sorted_desc)
    sq_suffix = np.concatenate([np.cumsum((sorted_desc**2)[::-1])[::-1], [0.0]])
    out = np.empty(etas.size)
    for i, eta in enumerate(etas):
        if eta == 0:
            out[i] = sq_suffix[0]
            continue
        c, k = _cap_level(sorted_desc, prefix, 1.0 - eta)
        out[i] = k * c * c + sq_suffix[k]
    return -np.log2(out)


def extractable_length(
    dist: DiscreteDistribution, eps0: float, grid_points: int = 1024
) -> int:
    """Bits of near-uniform randomness extractable at non-uniformity eps0.

    Maximises floor(H2^eta + 2 - log(1/(eps0*(eps0 - eta)))) over an evenly
    spaced eta grid in [0, eps0); never negative.
    """
    if not 0 < eps0 < 1:
        raise ValueError("eps0 outside (0, 1)")
    etas = np.linspace(0.0, eps0, grid_points, endpoint=False)
    h2 = _smooth_renyi2_grid(dist, etas)
    lengths = np.floor(h2 + 2 - np.log2(1.0 / (eps0 * (eps0 - etas))))
    return max(0, int(lengths.max()))
