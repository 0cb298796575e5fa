"""The package's session against the plain one in ``reference``, step by step.

Both sides start from equal generators and run sample -> store -> storage
noise -> strategy -> retrieve.  After every step the bundle fields, the
register's checkpoint bytes, the secrets' kv text, the message or outcome
and the whole generator state must be equal.  "passive" skips the noise
step; "storage-noise" runs it and nothing else.
"""

from functools import cache

import numpy as np
import pytest

import reference
from tamperstore import kv
from tamperstore.entropy import example1
from tamperstore.experiments import _apply_strategy, make_strategy
from tamperstore.protocol import ProtocolInstance
from tamperstore.qsim import QubitRegister
from tamperstore.randomizer import example1_code

PARAMS = {"A": (0.05, 0.0, 4), "B": (0.05, 0.05, 4), "C": (0.01, 0.05, 3)}
SEEDS = {"A": (0, 1, 2), "B": (0, 1, 2), "C": (0, 1)}
STRATEGIES = (
    "passive",
    "storage-noise",
    "intercept-resend/random-basis",
    "intercept-resend/all-standard",
    "flip-c",
)


@cache
def instance_and_h(name: str):
    """The params set's session and its dense H, built once per module."""
    instance = ProtocolInstance.derive(*PARAMS[name], example1_code(12))
    return instance, reference.parity_check_matrix(instance.code)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name,seed", [(name, seed) for name in PARAMS for seed in SEEDS[name]])
def test_session_matches_reference(name, seed, strategy):
    instance, h = instance_and_h(name)
    params, code, prefix_code = instance.params, instance.code, instance.prefix_code
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    def check(step):
        fields = ("w", "u", "c", "theta")
        assert [getattr(bundle, f) for f in fields] == [getattr(ref_bundle, f) for f in fields], step
        ref_register = QubitRegister(ref_bundle.basis, ref_bundle.value)
        assert bundle.register.to_bytes() == ref_register.to_bytes(), step
        assert kv.dumps("secrets", secrets.to_kv()) == kv.dumps("secrets", ref_secrets.to_kv()), step
        assert rng.bit_generator.state == ref_rng.bit_generator.state, step

    dist = example1(12)
    message = int(dist.sample(rng))
    assert message == reference.sample(dist, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    bundle, secrets = instance.store(message, rng)
    ref_bundle, ref_secrets = reference.store(message, params, h, prefix_code, ref_rng)
    check("store")

    if strategy != "passive":
        instance.apply_noise(bundle, rng)
        reference.noise(ref_bundle, params.beta0, ref_rng)
        check("noise")
    if strategy not in ("passive", "storage-noise"):
        bundle, _ = _apply_strategy(make_strategy(strategy), bundle, params, rng)
        reference.attack(ref_bundle, strategy, ref_rng)
        check(strategy)

    out = instance.retrieve(bundle, secrets, rng)
    expected = reference.retrieve(ref_bundle, ref_secrets, params, code, h, prefix_code, ref_rng)
    assert (out.omega, out.message, out.abort_reason) == expected
    check("retrieve")
