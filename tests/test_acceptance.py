"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings inline.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from tamperstore.attack_lab import bb84_toy, best_permutation, advantage_floor, run_support
from tamperstore.bits import Bits
from tamperstore.entropy import (
    DiscreteDistribution,
    example1,
    min_entropy,
    renyi_entropy,
    smooth_renyi2,
)
from tamperstore.experiments import (
    ExperimentConfig,
    run_correctness_experiment,
    run_tamper_experiment,
)
from tamperstore.gf2 import phi
from tamperstore.mac import MacKey, forgery_bound, tag, verify
from tamperstore.params import asymptotic_rates, sampling_bad_event_bound
from tamperstore.protocol import ProtocolInstance, ideal_recursion_accounting
from tamperstore.randomizer import example1_code, padded_law


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} | criterion {number}: {name} | {detail} "
          f"| {time.time() - started:.1f}s")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def noiseless_instance():
    return ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))


def test_criterion_1_universal_hash_exactness():
    t0 = time.time()
    ok = True
    for nu in (2, 3, 4):
        size = 1 << nu
        for l in range(1, nu + 1):
            expected = size >> l
            for x, xp in itertools.combinations(range(size), 2):
                bx, bxp = Bits(x, nu), Bits(xp, nu)
                hits = sum(
                    phi(Bits(w, nu), bx, l) == phi(Bits(w, nu), bxp, l)
                    for w in range(size)
                )
                ok &= hits == expected
    report(1, "universal-hash exactness", ok,
           "collision fraction equals 2^-l exactly for every pair, nu <= 4", t0)


def test_criterion_2_round_trip_completeness(noiseless_instance):
    t0 = time.time()
    inst = noiseless_instance
    rng = np.random.default_rng(20240501)
    dist = example1(12)
    successes = 0
    trials = 1000
    for _ in range(trials):
        message = int(dist.sample(rng))
        bundle, secrets = inst.store(message, rng)
        out = inst.retrieve(bundle, secrets, rng)
        successes += out.omega == 1 and out.message == message
    report(2, "round-trip completeness", successes == trials,
           f"{successes}/{trials} noiseless sessions recovered the message", t0)


def test_criterion_3_correctness_bound():
    t0 = time.time()
    config = ExperimentConfig(
        "correctness", epsilon=0.05, beta0=0.05, ell=4, dist="example1:12",
        trials=2000, master_seed=31337,
    )
    rep = run_correctness_experiment(config)
    delta_c = rep.bound_value
    ok = rep.verdict == "consistent" and delta_c <= config.epsilon
    report(3, "correctness bound", ok,
           f"failures {rep.event_count}/{rep.trials}, wilson_low {rep.wilson_low:.5f} "
           f"<= delta_c {delta_c:.5f} <= eps 0.05", t0)


def test_criterion_4_tamper_detection():
    t0 = time.time()
    # active quantum attack at eps = 0.01, beta0 = 0.05 derived parameters
    config = ExperimentConfig(
        "tamper", epsilon=0.01, beta0=0.05, ell=3, dist="example1:12",
        strategy="intercept-resend/random-basis", trials=2000, master_seed=41,
    )
    rep = run_tamper_experiment(config)
    r = rep.params_summary["r"]
    ok = r >= 133
    ok &= rep.bound_value < 1e-3
    margin = rep.wilson_high - rep.frequency
    ok &= rep.frequency <= rep.bound_value + margin
    ok &= rep.verdict == "consistent"

    # classical ciphertext tampering, exhaustive at lam = 4
    lam, msg_bits = 4, 8
    msg = Bits.from_01("10110100")
    bound4 = forgery_bound(lam, msg_bits)
    worst = 0
    for i in range(msg_bits):
        flipped = msg.flip(i)
        accepted = sum(
            verify(MacKey(a, b, lam), flipped, tag(MacKey(a, b, lam), msg))
            for a in range(16)
            for b in range(16)
        )
        worst = max(worst, accepted / 256)
    ok &= worst <= bound4

    # and Monte Carlo at the production tag length
    config_c = ExperimentConfig(
        "tamper", epsilon=0.01, beta0=0.05, ell=3, dist="example1:12",
        strategy="flip-c/0", trials=400, master_seed=42,
    )
    rep_c = run_tamper_experiment(config_c)
    ok &= rep_c.frequency <= rep_c.bound_value
    report(4, "tamper detection", ok,
           f"intercept-resend acceptance {rep.event_count}/{rep.trials} vs bound "
           f"{rep.bound_value:.2e} (r={r}); classical worst {worst:.4f} <= {bound4}; "
           f"flip-c acceptance {rep_c.event_count}/{rep_c.trials} <= {rep_c.bound_value}", t0)


def test_criterion_5_support_attack():
    t0 = time.time()
    scheme = bb84_toy(2, 1)  # |M| = 4, |K| = 2
    rep = run_support(scheme)
    ok = abs(rep.win_and_acc_given_star - 1.0) <= 1e-10
    ok &= rep.pr_acc >= rep.p_star - 1e-10
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    _, advantage, _ = best_permutation(scheme, probs)
    floor = advantage_floor(0.5, 2, 4)  # p*(1-p*)(1 - 1/2)
    ok &= advantage >= floor - 1e-9
    report(5, "support attack", ok,
           f"Pr[WIN&acc|m=m*] = {rep.win_and_acc_given_star:.12f}, "
           f"Pr[acc] = {rep.pr_acc:.4f} >= p*, advantage {advantage:.4f} >= {floor:.4f}", t0)


def test_criterion_6_asymptotics():
    t0 = time.time()
    rates = asymptotic_rates(0.05)
    ok = abs(rates.n_per_ell - 1.4014) <= 1e-3
    ok &= abs(rates.syndrome_per_ell - 0.4014) <= 1e-3
    ok &= abs(rates.recursive_per_ell - 2.3412) <= 1e-3
    ok &= abs(rates.qkd_threshold - 0.110028) <= 1e-6
    accounting = ideal_recursion_accounting(0.05, 1e6, residual_threshold=1e3)
    ratio = accounting["total_qubits"] / accounting["limit_qubits"]
    ok &= abs(ratio - 1) <= 0.05
    report(6, "asymptotics", ok,
           f"rates ({rates.n_per_ell:.4f}, {rates.syndrome_per_ell:.4f}, "
           f"{rates.recursive_per_ell:.4f}), threshold {rates.qkd_threshold:.6f}, "
           f"recursion total/limit = {ratio:.4f}", t0)


def test_criterion_7_entropy_toolkit():
    t0 = time.time()
    ok = abs(min_entropy(example1(12)) - 1.0) <= 1e-12
    ok &= abs(renyi_entropy(example1(16), 2) - 2.0) <= 2**-12
    L = 12
    padded = padded_law(example1_code(L))
    ok &= abs(min_entropy(padded) - (math.log2(2**L - 1) + 1)) <= 1e-9

    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for size in (2, 3, 4, 5, 6):
        raw = rng.random(size) + 0.05
        p = raw / raw.sum()
        for eta in (0.02, 0.1, 0.3):
            ours = smooth_renyi2(DiscreteDistribution(np.arange(size), p), eta)
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
            worst_gap = max(worst_gap, abs(ours - (-math.log2(res.fun))))
    ok &= worst_gap <= 1e-4
    report(7, "entropy toolkit", ok,
           f"example values exact; smoothing vs convex oracle gap {worst_gap:.2e}", t0)


def test_criterion_8_trap_sampling_bound():
    t0 = time.time()
    n, r, beta, nu = 100, 50, 0.1, 0.1
    marked = math.ceil(n * (beta + nu)) + math.floor(r * beta)  # weight-25 word
    trials = 100_000
    rng = np.random.default_rng(88)
    bad = 0
    chunk = 10_000
    for _ in range(trials // chunk):
        ranks = np.argpartition(rng.random((chunk, n + r)), r, axis=1)[:, :r]
        trap_hits = (ranks < marked).sum(axis=1)
        payload_hits = marked - trap_hits
        bad += int(((trap_hits <= r * beta) & (payload_hits >= n * (beta + nu))).sum())
    freq = bad / trials
    bound = sampling_bad_event_bound(n, r, nu)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    ok = freq <= bound + 3 * sigma and freq > 0
    report(8, "trap-sampling bound consistency", ok,
           f"bad-event frequency {freq:.4f} <= bound {bound:.4f} + 3 sigma", t0)
