"""Detection rates for intercept-and-resend eavesdropping.

An attacker who measures stored qubits in a random basis flips each trap
with probability 1/4; acceptance then requires a binomial tail event that
the trap threshold makes astronomically unlikely.  The Monte-Carlo runs
compare measured acceptance against that tail bound.
"""

import numpy as np

from tamperstore.experiments import (
    ExperimentConfig,
    build_instance,
    run_tamper_experiment,
    tamper_acceptance_bound,
)
from tamperstore.qsim import InterceptResend

###############################################################################
# The analytic side first: the acceptance bound for each basis policy.

config = ExperimentConfig(
    "tamper", epsilon=0.05, beta0=0.0, ell=4, dist="example1:12",
    strategy="intercept-resend/random-basis", trials=300, master_seed=55,
)
instance = build_instance(config)
p = instance.params
threshold = int(np.floor(p.beta * p.r))
print(f"r = {p.r} traps, accepted errors <= beta r = {threshold}")
for policy, flip in (("random-basis", 0.25), ("all-standard", 0.5)):
    _, bound = tamper_acceptance_bound(p, InterceptResend(policy=policy))
    print(f"  {policy:13s}: per-trap flip {flip}, acceptance bound {bound:.3e}")

###############################################################################
# Now measure.  Every trial stores a fresh message, lets the attacker
# measure all qubits, then retrieves; the report compares frequencies
# against the bound with a Wilson interval.

for policy in ("random-basis", "all-standard"):
    cfg = ExperimentConfig(
        "tamper", epsilon=0.05, beta0=0.0, ell=4, dist="example1:12",
        strategy=f"intercept-resend/{policy}", trials=300, master_seed=55,
    )
    report = run_tamper_experiment(cfg, instance=instance)
    reasons = {}
    for _, reason in report.outcomes:
        reasons[reason] = reasons.get(reason, 0) + 1
    print(f"{policy:13s}: accepted {report.event_count}/{report.trials}, "
          f"bound {report.bound_value:.2e}, verdict {report.verdict}, aborts {reasons}")

###############################################################################
# The attacker does learn payload bits when a basis guess matches: the
# report records the learned fraction, but only acceptance matters and
# acceptance never happens.
