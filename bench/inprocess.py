"""In-process workloads: a closed loop with one client driving
``ProtocolInstance`` sessions (store -> noise -> [attack] -> retrieve).

Each session draws its generator and message exactly as
``experiments.run_correctness_experiment`` / ``run_tamper_experiment`` do,
so the RNG draw order matches the library's; ``cross_check`` proves it.
"""

from __future__ import annotations

import time

from tamperstore.experiments import (
    ExperimentConfig,
    _apply_strategy,
    _verdict,
    make_strategy,
    parse_dist,
    prefix_code_for,
    run_correctness_experiment,
    run_tamper_experiment,
    tamper_acceptance_bound,
    trial_rng,
    wilson_interval,
)
from tamperstore.linear_code import CodeRegistry
from tamperstore.protocol import ProtocolInstance

from common import DIST, Trial, Workload, session_check

CROSS_CHECK_TRIALS = 6


def build(workload: Workload, registry: CodeRegistry | None = None) -> ProtocolInstance:
    epsilon, beta0, ell = workload.params
    return ProtocolInstance.derive(epsilon, beta0, ell, prefix_code_for(DIST), registry)


def prepare_trial(seed: int, index: int, dist):
    rng = trial_rng(seed, index)
    return rng, int(dist.sample(rng))


def direct_call(_name, fn, *args):
    return fn(*args)


def run_sessions(instance, workload: Workload, seed: int, seconds: float, tracer=None):
    """Run sessions back to back for ``seconds`` (and at least the digest
    count); return the trials and the loop's wall time."""
    dist = parse_dist(DIST)
    strategies = [(name, make_strategy(name)) for name in workload.strategies]
    call = tracer.call if tracer else direct_call
    trials = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < workload.digest_trials or time.perf_counter() < deadline:
        if tracer:
            tracer.session = index
        rng, message = call("experiments.trial_prep", prepare_trial, seed, index, dist)
        root = tracer.begin("session") if tracer else None
        t0 = time.perf_counter()
        bundle, secrets = call("protocol.store", instance.store, message, rng)
        t1 = time.perf_counter()
        call("protocol.apply_noise", instance.apply_noise, bundle, rng)
        t2 = time.perf_counter()
        strategy = ""
        if strategies:
            strategy, eve = strategies[index % len(strategies)]
            bundle, _ = call(
                "experiments.attack", _apply_strategy, eve, bundle, instance.params, rng
            )
        t3 = time.perf_counter()
        out = call("protocol.retrieve", instance.retrieve, bundle, secrets, rng)
        t4 = time.perf_counter()
        if tracer:
            tracer.end(root)
        trials.append(
            Trial(index, strategy, message, out.omega, out.message, out.abort_reason,
                  store_s=t1 - t0, retrieve_s=t4 - t3, attack_s=t3 - t2, session_s=t4 - t0)
        )
        index += 1
    return trials, time.perf_counter() - start


def gate(instance, workload: Workload, trials: list[Trial]) -> list[tuple[str, bool, str]]:
    """Per-trial correctness, plus the acceptance bound of each attack."""
    checks = [session_check(trials)]
    for name in workload.strategies:
        attacked = [t for t in trials if t.strategy == name]
        accepted = sum(t.omega == 1 for t in attacked)
        low, _ = wilson_interval(accepted, len(attacked))
        bound_name, bound = tamper_acceptance_bound(instance.params, make_strategy(name))
        checks.append((
            f"acceptance[{name}]",
            _verdict(bound, low) == "consistent",
            f"{accepted}/{len(attacked)} accepted, "
            f"wilson low {low:.3g} vs {bound_name} = {bound:.3g}",
        ))
    return checks


def cross_check(instance, workload: Workload, seed: int, trials: list[Trial]):
    """The loop's first (omega, abort_reason) outcomes equal the library runner's."""
    k = CROSS_CHECK_TRIALS
    epsilon, beta0, ell = workload.params
    ours = [(t.omega, t.reason) for t in trials[:k]]
    if not workload.strategies:
        config = ExperimentConfig("correctness", epsilon, beta0, ell, dist=DIST,
                                  trials=k, master_seed=seed)
        theirs = run_correctness_experiment(config, instance).outcomes
        return [("cross-check[correctness]", ours == theirs, f"first {k} trials")]
    checks = []
    n = len(workload.strategies)
    for parity, name in enumerate(workload.strategies):
        config = ExperimentConfig("tamper", epsilon, beta0, ell, dist=DIST, strategy=name,
                                  trials=k, master_seed=seed)
        theirs = run_tamper_experiment(config, instance).outcomes
        same = all(ours[i] == theirs[i] for i in range(parity, k, n))
        checks.append((f"cross-check[{name}]", same, f"trials {parity}, {parity + n}, ... < {k}"))
    return checks


def traced_setup(workload: Workload) -> None:
    """Derive with a fresh registry so code construction is timed again."""
    build(workload, CodeRegistry())
