"""Entropy functionals for the randomiser and the parameter engine.

All entropies are in bits (log base 2).  The smooth collision entropy is
computed by capping the largest probability masses, which minimises the
sum of squares among all sub-normalised vicinities of the distribution;
tests validate that optimum against an independent convex solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if outcomes.shape != probs.shape or probs.ndim != 1:
            raise ValueError("outcomes and probs must be 1-d and aligned")
        if not np.all(np.isfinite(probs)):
            raise ValueError("non-finite probability")
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

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, normalised by their last entry as
        ``Generator.choice`` normalises them; computed once, read-only."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    def sample(self, rng: np.random.Generator):
        """One outcome, equal in value and generator state to
        ``rng.choice(self.outcomes, p=self.probs)``: one ``rng.random()``
        searched in the cached CDF, as ``choice`` does after rebuilding
        and checking it on every call."""
        return self.outcomes[self.cdf.searchsorted(rng.random(), side="right")]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def uniform(n: int) -> DiscreteDistribution:
    if n < 1:
        raise ValueError("empty support")
    return DiscreteDistribution(np.arange(n), np.full(n, 1.0 / n))


def example1(L: int) -> DiscreteDistribution:
    """One message of probability 1/2, the other 2^L - 1 sharing the rest.

    The heavy message mu0 is the all-ones string, so that the all-zero
    string keeps an ordinary codeword in the matching prefix code.
    L must be at least 1.
    """
    if L < 1:
        raise ValueError(f"example1 needs L >= 1, got {L}")
    n = 1 << L
    mu0 = n - 1
    probs = np.full(n, 0.5 / (n - 1))
    probs[mu0] = 0.5
    return DiscreteDistribution(np.arange(n), probs)


def example1_padded(L: int) -> DiscreteDistribution:
    """Distribution of the padded compression of :func:`example1`.

    Outcome ids are the (L+1)-bit strings with bit 0 first: ``0 || x`` has
    probability (1/2)/(2^L - 1) for x != mu0 (all ones), and ``1 || x`` has
    2^-(L+1).
    """
    n = 1 << L
    mu0 = n - 1
    ids_zero = (np.arange(n) << 1)  # '0' || x
    ids_one = (np.arange(n) << 1) | 1  # '1' || x
    probs_zero = np.full(n, 0.5 / (n - 1))
    probs_zero[mu0] = 0.0
    probs_one = np.full(n, 0.5 / n)
    return DiscreteDistribution(
        np.concatenate([ids_zero, ids_one]),
        np.concatenate([probs_zero, probs_one]),
    )


def load_distribution(path) -> DiscreteDistribution:
    """Text table, one "outcome-id probability" pair per line (``kv.load_table``)."""
    table = kv.load_table(path, float)
    return DiscreteDistribution(np.array(list(table)), np.array(list(table.values())))


def parse_dist(spec: str) -> DiscreteDistribution:
    """"example1:12", "uniform:256", or "file:<path>" (the ``--dist`` flag)."""
    kind, _, arg = spec.partition(":")
    if kind == "example1":
        return example1(int(arg))
    if kind == "uniform":
        return uniform(int(arg))
    if kind == "file":
        return load_distribution(arg)
    raise ValueError(f"unknown distribution spec {spec!r}")


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
