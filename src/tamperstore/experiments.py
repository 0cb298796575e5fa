"""Monte-Carlo experiment runner: bound-versus-measurement comparisons.

Each trial gets its own generator, keyed by the master seed and the trial
index through a counter-based bit generator, so trial sets are
order-independent and a report is reproducible bit for bit from its
config.  An ``ExperimentConfig`` is built in code or from the ``simulate``
flags; it has no file form, and its constructor rejects an unknown
scenario or strategy name, a correctness run with an active strategy and
a trial count below one.  Frequencies come with Wilson 95% intervals; a
bound is declared violated only when it lies below the interval's lower
edge.

Both scenarios fold over ``run_trial``: sample a message from the
session's law, store it, apply the storage noise, let a strategy act on
the bundle, retrieve.  The correctness scenario's strategy is the passive
one, which draws no randomness; the scenarios differ only in the event
they count and the bound they hold it to.  The attack strategies live
here, beside the name grammar (``make_strategy``) and the acceptance
prediction (``tamper_acceptance_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .entropy import parse_dist
from .params import ProtocolParams, correctness_bound
from .protocol import ProtocolInstance, RetrievalOutcome, ServerBundle
from .qsim import EveView, _random_cells
from .randomizer import _law, prefix_code_for

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials <= 0:
        raise ValueError("need at least one trial")
    phat, z = successes / trials, WILSON_Z
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2))
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return low, high


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-mode stream: independent of evaluation order."""
    return np.random.Generator(np.random.Philox(key=master_seed, counter=[0, 0, index, 0]))


class EveStrategy:
    """An intervention acting through the legal interface only."""

    def apply(self, view: EveView, transcript: dict, rng: np.random.Generator) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class PassiveEve(EveStrategy):
    def apply(self, view, transcript, rng):
        return None


# basis policy -> the basis every cell is measured in, or None for a
# uniform basis per cell; the first is the default
_BASIS_POLICIES = {"random-basis": None, "all-standard": 0, "all-hadamard": 1}


@dataclass(frozen=True)
class InterceptResend(EveStrategy):
    """Measure every cell under a basis policy; collapse re-prepares them."""

    policy: str = next(iter(_BASIS_POLICIES))

    def __post_init__(self):
        if self.policy not in _BASIS_POLICIES:
            raise ValueError(f"unknown basis policy {self.policy!r}")

    def apply(self, view, transcript, rng):
        n = view.size
        basis = _BASIS_POLICIES[self.policy]
        bases = _random_cells(n, rng) if basis is None else np.full(n, basis, dtype=np.uint8)
        view.measure(np.arange(n), bases, rng)


@dataclass(frozen=True)
class ClassicalTamper(EveStrategy):
    """Flip one bit of the ciphertext c, leave the qubits alone.

    A bit outside c raises ``ValueError``; it is not wrapped.
    """

    bit: int = 0

    def apply(self, view, transcript, rng):
        c = transcript["c"]
        if not 0 <= self.bit < c.length:
            raise ValueError(f"bit {self.bit} outside the {c.length}-bit field c")
        transcript["c"] = c.flip(self.bit)


def make_strategy(name: str) -> EveStrategy:
    """Exactly "passive", "intercept-resend[/<policy>]" or "flip-c[/<bit>]",
    the bit a non-negative decimal; anything else raises ``ValueError``."""
    kind, slash, arg = name.partition("/")
    if name == "passive":
        return PassiveEve()
    if kind == "intercept-resend" and (arg or not slash):
        return InterceptResend(arg) if arg else InterceptResend()  # checks the policy
    if kind == "flip-c" and ((arg.isascii() and arg.isdecimal()) or not slash):
        return ClassicalTamper(bit=int(arg or 0))
    raise ValueError(f"unknown strategy {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str  # "correctness" or "tamper"
    epsilon: float
    beta0: float
    ell: int
    dist: str = "example1:12"
    strategy: str = "passive"
    trials: int = 1000
    master_seed: int = 2024

    def __post_init__(self):
        if self.scenario not in ("correctness", "tamper"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        make_strategy(self.strategy)
        if self.scenario == "correctness" and self.strategy != "passive":
            raise ValueError(
                f"a correctness experiment runs the passive strategy, not {self.strategy!r}"
            )
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")


@dataclass(frozen=True)
class ExperimentReport:
    scenario: str
    strategy: str
    trials: int
    master_seed: int
    event_name: str  # what was counted
    event_count: int
    frequency: float
    wilson_low: float
    wilson_high: float
    bound_name: str
    bound_value: float
    verdict: str  # "consistent" or "violated"
    params_summary: dict
    extras: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list, repr=False)
    version: str = __version__

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("key,value\n")
            meta = {
                "scenario": self.scenario,
                "strategy": self.strategy,
                "trials": self.trials,
                "master_seed": self.master_seed,
                "event": self.event_name,
                "event_count": self.event_count,
                "frequency": repr(self.frequency),
                "wilson_low": repr(self.wilson_low),
                "wilson_high": repr(self.wilson_high),
                "bound_name": self.bound_name,
                "bound_value": repr(self.bound_value),
                "verdict": self.verdict,
                "version": self.version,
            }
            for key, value in self.params_summary.items():
                meta[f"params.{key}"] = value
            for key, value in self.extras.items():
                meta[f"extras.{key}"] = value
            for key, value in meta.items():
                fh.write(f"{key},{value}\n")
            fh.write("trial,omega,reason\n")
            for i, (omega, reason) in enumerate(self.outcomes):
                fh.write(f"{i},{omega},{reason}\n")


def _params_summary(params: ProtocolParams) -> dict:
    return {
        "code": params.code_name,
        "n": params.n,
        "r": params.r,
        "kappa": params.kappa,
        "ell": params.ell,
        "ell0": params.ell0,
        "lam": params.lam,
        "beta": repr(params.beta),
        "nu": repr(params.nu),
    }


def _verdict(bound: float, low: float) -> str:
    return "violated" if low > bound else "consistent"


def build_instance(config: ExperimentConfig) -> ProtocolInstance:
    """The session of ``config``; its prefix code carries the law of ``config.dist``."""
    prefix = prefix_code_for(config.dist, parse_dist(config.dist))
    return ProtocolInstance.derive(config.epsilon, config.beta0, config.ell, prefix)


def _apply_strategy(
    strategy: EveStrategy,
    bundle: ServerBundle,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> tuple[ServerBundle, dict]:
    fields = ("w", "u", "c", "theta")
    transcript = {name: getattr(bundle, name) for name in fields}
    strategy.apply(EveView(bundle.register), transcript, rng)
    return replace(bundle, **{name: transcript[name] for name in fields}), transcript


@dataclass(frozen=True)
class TrialRecord:
    index: int
    message: int  # the message sampled and stored
    outcome: RetrievalOutcome


def run_trial(
    instance: ProtocolInstance, strategy: EveStrategy, master_seed: int, index: int
) -> TrialRecord:
    """Trial ``index`` of the loop keyed by ``master_seed``: sample a message
    from the law of the session's prefix code, store it, apply the storage
    noise, let ``strategy`` act on the bundle, retrieve, all drawn from
    ``trial_rng(master_seed, index)``.  A prefix code with no law (a table
    read from a file) is a ``ValueError``."""
    law = _law(instance.prefix_code)
    rng = trial_rng(master_seed, index)
    message = int(law.sample(rng))
    bundle, secrets = instance.store(message, rng)
    instance.apply_noise(bundle, rng)
    bundle, _ = _apply_strategy(strategy, bundle, instance.params, rng)
    return TrialRecord(index, message, instance.retrieve(bundle, secrets, rng))


def log_binomial_cdf(k: int, n: int, p: float) -> float:
    """Natural log of Pr[Binomial(n, p) <= k] for 0 < p < 1.

    Each term is formed in log space from lgamma, and the terms are summed
    with fsum after dividing out the largest, so the result stays finite
    where the probability itself underflows a float.
    """
    if k < 0:
        return -math.inf
    if k >= n:
        return 0.0
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    logs = [
        log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q
        for i in range(k + 1)
    ]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def tamper_acceptance_bound(params: ProtocolParams, strategy: EveStrategy) -> tuple[str, float]:
    if isinstance(strategy, InterceptResend):
        # a trap (Hadamard basis) measured in the other basis flips with
        # probability 1/2, and a uniform basis is the other one half the time
        basis = _BASIS_POLICIES[strategy.policy]
        flip = 0.25 if basis is None else (1 - basis) / 2
        if not flip:
            # traps undisturbed: the trap test cannot see this attack
            return "trivial_bound", 1.0
        threshold = math.floor(params.beta * params.r)
        log_tail = log_binomial_cdf(threshold, params.r, flip)
        # the name carries log10 of the tail, which stays finite where the
        # float value underflows to 0.0
        log10_tail = log_tail / math.log(10)
        return (
            f"binom_cdf(r={params.r}, p={flip}, k<={threshold}) = 10^{log10_tail:.4g}",
            math.exp(log_tail),
        )
    if isinstance(strategy, ClassicalTamper):
        return "mac_forgery_bound", params.eps_mac
    return "trivial_bound", 1.0


def _run(
    config: ExperimentConfig,
    scenario: str,
    instance: ProtocolInstance | None,
    event_name: str,
    counted,
    bound,
) -> ExperimentReport:
    """The trial loop and report of both scenarios, on messages drawn from the session's law.

    ``counted(outcome, message)`` says whether a trial is an event;
    ``bound(params, strategy)`` returns the (name, value) it is held to.
    """
    if config.scenario != scenario:
        raise ValueError(f"config.scenario must be {scenario!r}")
    instance = instance or build_instance(config)
    strategy = make_strategy(config.strategy)
    events = 0
    outcomes = []
    for index in range(config.trials):
        trial = run_trial(instance, strategy, config.master_seed, index)
        events += counted(trial.outcome, trial.message)
        outcomes.append((trial.outcome.omega, trial.outcome.abort_reason))
    low, high = wilson_interval(events, config.trials)
    bound_name, bound_value = bound(instance.params, strategy)
    return ExperimentReport(
        scenario=config.scenario,
        strategy=config.strategy,
        trials=config.trials,
        master_seed=config.master_seed,
        event_name=event_name,
        event_count=events,
        frequency=events / config.trials,
        wilson_low=low,
        wilson_high=high,
        bound_name=bound_name,
        bound_value=bound_value,
        verdict=_verdict(bound_value, low),
        params_summary=_params_summary(instance.params),
        outcomes=outcomes,
    )


def run_correctness_experiment(
    config: ExperimentConfig, instance: ProtocolInstance | None = None
) -> ExperimentReport:
    """Honest channel: count retrieval failures against the theory bound."""
    return _run(
        config, "correctness", instance, "retrieval_failure",
        lambda out, message: out.omega != 1 or out.message != message,
        lambda params, _: ("correctness_failure_bound", correctness_bound(params)),
    )


def run_tamper_experiment(
    config: ExperimentConfig, instance: ProtocolInstance | None = None
) -> ExperimentReport:
    """Active adversary: count acceptances against the detection bound."""
    return _run(
        config, "tamper", instance, "acceptance_under_attack",
        lambda out, _: out.omega == 1,
        tamper_acceptance_bound,
    )
