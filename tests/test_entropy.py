import math

import numpy as np
import pytest
from scipy.optimize import minimize

from tamperstore.entropy import (
    DiscreteDistribution,
    UnsupportedOrderError,
    binary_entropy,
    example1,
    example1_padded,
    extractable_length,
    iid_bernoulli,
    load_distribution,
    min_entropy,
    renyi_entropy,
    save_distribution,
    shannon_entropy,
    smooth_renyi2,
    uniform,
)


def dist(*probs):
    return DiscreteDistribution(np.arange(len(probs)), np.array(probs))


def min_sum_squares_oracle(p: np.ndarray, eta: float) -> float:
    """Independent convex solve of min sum(q^2) s.t. 0 <= q <= p, sum(q) = 1 - eta."""
    res = minimize(
        lambda q: np.sum(q * q),
        x0=p * (1 - eta),
        jac=lambda q: 2 * q,
        bounds=[(0.0, float(pi)) for pi in p],
        constraints=[{"type": "eq", "fun": lambda q: np.sum(q) - (1 - eta)}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    assert res.success
    return -math.log2(res.fun)


# -- binary entropy ---------------------------------------------------------

def test_binary_entropy_basics():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_binary_entropy_threshold_root():
    # bisection oracle for the root of 1 - 2 h(b)
    lo, hi = 1e-9, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        if 1 - 2 * binary_entropy(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 0.110028) < 1e-6


# -- Renyi / Shannon / min-entropy ------------------------------------------

def test_renyi_uniform():
    for k in (1, 3, 6):
        assert renyi_entropy(uniform(2**k), 2) == pytest.approx(k, abs=1e-12)


def test_renyi_example1_collision():
    h2 = renyi_entropy(example1(16), 2)
    assert abs(h2 - 2.0) <= 2**-12


def test_renyi_direct_sum_oracle():
    p = dist(0.5, 0.25, 0.25)
    assert renyi_entropy(p, 2) == pytest.approx(-math.log2(0.375), abs=1e-12)
    assert renyi_entropy(p, 2) == pytest.approx(1.415, abs=1e-3)


def test_renyi_order_one_rejected():
    with pytest.raises(UnsupportedOrderError):
        renyi_entropy(uniform(4), 1)


def test_shannon():
    for k in (1, 5):
        assert shannon_entropy(uniform(2**k)) == pytest.approx(k, abs=1e-12)
    assert shannon_entropy(dist(1.0)) == 0.0
    assert 10 <= shannon_entropy(example1(20)) <= 12


def test_min_entropy_values():
    L = 12
    assert min_entropy(example1(L)) == pytest.approx(1.0, abs=1e-12)
    assert min_entropy(example1_padded(L)) == pytest.approx(
        math.log2(2**L - 1) + 1, abs=1e-12
    )
    assert min_entropy(uniform(100)) == pytest.approx(math.log2(100), abs=1e-12)


def test_entropy_ordering_invariant():
    rng = np.random.default_rng(0)
    for _ in range(30):
        raw = rng.random(6) + 1e-3
        p = dist(*(raw / raw.sum()))
        hmin, h2, h = min_entropy(p), renyi_entropy(p, 2), shannon_entropy(p)
        assert hmin <= h2 + 1e-9
        assert h2 <= h + 1e-9


# -- smooth collision entropy ------------------------------------------------

def test_smooth_renyi2_zero_smoothing():
    p = dist(0.5, 0.25, 0.25)
    assert smooth_renyi2(p, 0.0) == renyi_entropy(p, 2)


def test_smooth_renyi2_grid_oracle():
    # dense grid search over all feasible Q for the 3-point distribution
    p = np.array([0.5, 0.25, 0.25])
    eta = 0.1
    best = np.inf
    grid = np.linspace(0, 0.5, 251)
    for q0 in grid[grid <= 0.5]:
        for q1 in np.linspace(0, 0.25, 126):
            q2 = (1 - eta) - q0 - q1
            if -1e-12 <= q2 <= 0.25:
                best = min(best, q0 * q0 + q1 * q1 + q2 * q2)
    oracle = -math.log2(best)
    assert smooth_renyi2(dist(*p), eta) == pytest.approx(oracle, abs=1e-4)


@pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.3])
def test_smooth_renyi2_convex_oracle_small_supports(eta):
    rng = np.random.default_rng(42)
    for size in (2, 3, 4, 5, 6):
        raw = rng.random(size) + 0.05
        p = raw / raw.sum()
        ours = smooth_renyi2(dist(*p), eta)
        assert ours == pytest.approx(min_sum_squares_oracle(p, eta), abs=1e-4)


def test_smooth_renyi2_uniform_analytic():
    for n, eta in [(8, 0.2), (32, 0.05)]:
        expected = math.log2(n) + 2 * math.log2(1 / (1 - eta))
        assert smooth_renyi2(uniform(n), eta) == pytest.approx(expected, abs=1e-12)


def test_smooth_renyi2_monotone_in_eta():
    p = dist(0.4, 0.3, 0.2, 0.1)
    values = [smooth_renyi2(p, eta) for eta in np.linspace(0, 0.5, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_smooth_renyi2_domain():
    with pytest.raises(ValueError):
        smooth_renyi2(uniform(4), 1.0)


# -- extractable length -------------------------------------------------------

def test_extractable_length_uniform_at_eta_zero():
    eps0 = 1 / 16
    for l0 in (10, 16):
        value_at_zero = math.floor(l0 + 2 + 2 * math.log2(eps0))
        assert extractable_length(uniform(2**l0), eps0) >= value_at_zero


def test_extractable_length_monotone_in_eps0():
    p = example1_padded(8)
    lengths = [extractable_length(p, e) for e in (0.01, 0.05, 0.1, 0.25)]
    assert lengths == sorted(lengths)


def test_extractable_length_never_negative():
    assert extractable_length(uniform(4), 2**-8) == 0


def test_extractable_length_two_level_oracle():
    # independent eta-grid x capping search, naive implementation
    p = example1_padded(12)
    eps0 = 2**-8
    grid_points = 64

    def naive_smooth_h2(probs, eta):
        desc = np.sort(probs)[::-1]
        if eta == 0:
            return -math.log2(float(np.sum(desc**2)))
        target = 1 - eta
        for k in range(1, desc.size + 1):
            c = (target - 1 + desc[:k].sum()) / k
            nxt = desc[k] if k < desc.size else 0.0
            if nxt - 1e-15 <= c <= desc[k - 1] + 1e-15:
                q = np.minimum(desc, c)
                return -math.log2(float(np.sum(q**2)))
        raise AssertionError("no cap level found")

    best = -np.inf
    for eta in np.linspace(0, eps0, grid_points, endpoint=False):
        h2 = naive_smooth_h2(p.probs, eta)
        best = max(best, math.floor(h2 + 2 - math.log2(1 / (eps0 * (eps0 - eta)))))
    oracle = max(0, int(best))
    assert extractable_length(p, eps0, grid_points=grid_points) == oracle


def test_extractable_length_example1_l10():
    # the value used by the randomiser statistical-distance test
    assert extractable_length(example1_padded(10), 1 / 16) == 4


# -- plumbing -----------------------------------------------------------------

def test_distribution_invariants():
    with pytest.raises(ValueError):
        dist(0.5, 0.4)
    with pytest.raises(ValueError):
        dist(1.2, -0.2)
    d = dist(0.5, 0.5, 0.0)
    assert d.support_size == 2


def test_iid_bernoulli():
    d = iid_bernoulli(0.25, 3)
    probs = dict(zip(d.outcomes.tolist(), d.probs.tolist()))
    assert probs[0] == pytest.approx(0.75**3)
    assert probs[0b111] == pytest.approx(0.25**3)
    assert shannon_entropy(d) == pytest.approx(3 * binary_entropy(0.25), abs=1e-12)


def test_load_save_round_trip(tmp_path):
    d = example1_padded(4)
    path = tmp_path / "dist.txt"
    save_distribution(d, path)
    d2 = load_distribution(path)
    assert np.array_equal(d.outcomes, d2.outcomes)
    assert np.allclose(d.probs, d2.probs, atol=0)
