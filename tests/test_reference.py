"""The package's session against the plain one in ``reference``, step by step.

Both sides start from equal generators and run sample -> store -> storage
noise -> strategy -> retrieve.  After every step the bundle fields, the
register's checkpoint bytes, the secrets' kv text, the message or outcome
and the whole generator state must be equal.  "passive" skips the noise
step; "storage-noise" runs it and nothing else.
"""

import json
from functools import cache

import numpy as np
import pytest

import reference
from tamperstore import kv
from tamperstore.bits import Bits
from tamperstore.entropy import example1
from tamperstore.experiments import _apply_strategy, make_strategy, trial_rng
from tamperstore.protocol import ProtocolInstance
from tamperstore.qsim import QubitRegister, TrapLayout
from tamperstore.randomizer import compress, example1_code, randomize

PARAMS = {"A": (0.05, 0.0, 4), "B": (0.05, 0.05, 4), "C": (0.01, 0.05, 3)}
SEEDS = {"A": (0, 1, 2), "B": (0, 1, 2), "C": (0, 1)}
STRATEGIES = (
    "passive",
    "storage-noise",
    "intercept-resend/random-basis",
    "intercept-resend/all-standard",
    "flip-c",
)


def state(rng) -> str:
    """The whole generator state as text; Philox (``trial_rng``) holds arrays."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


@cache
def instance_and_h(name: str):
    """The params set's session and its dense H, built once per module."""
    instance = ProtocolInstance.derive(*PARAMS[name], example1_code(12))
    return instance, reference.parity_check_matrix(instance.code)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name,seed", [(name, seed) for name in PARAMS for seed in SEEDS[name]])
def test_session_matches_reference(name, seed, strategy):
    run_side_by_side(name, strategy, np.random.default_rng(seed), np.random.default_rng(seed))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_seed_trial_matches_per_call_draws_and_reference(strategy):
    """trial_rng(7, 8011) at A draws a zero seed w first and redraws it.

    ``store`` takes padding, seed and cells from one generator call; here
    the per-call draws (the padding word, seed words until one is nonzero,
    then xi, the trap set, then u and the MAC key) must give the same
    bundle, secrets and generator state, and the reference session must
    agree step by step.
    """
    instance, _ = instance_and_h("A")
    params, prefix_code = instance.params, instance.prefix_code
    rng, calls = trial_rng(7, 8011), trial_rng(7, 8011)
    message = int(example1(12).sample(rng))
    assert message == int(example1(12).sample(calls))
    bundle, secrets = instance.store(message, rng)

    total = params.n + params.r
    padding = Bits.random(params.ell0 - prefix_code.codewords[message].length, calls)
    seeds = [Bits.random(params.ell0, calls)]
    while seeds[-1].value == 0:
        seeds.append(Bits.random(params.ell0, calls))
    assert [w.value for w in seeds] == [0, 3831]
    xi = Bits.random(total, calls).to_array()
    layout = TrapLayout.random(total, params.r, calls)
    u, a, b = (Bits.random(length, calls) for length in (params.n, params.lam, params.lam))
    assert state(rng) == state(calls)

    rm = randomize(compress(message, prefix_code, padding.value), seeds[-1], params.ell)
    assert (bundle.w, bundle.u, secrets.m_nabla) == (seeds[-1], u, rm.m_nabla)
    assert secrets.layout.t == layout.t and (secrets.mac_key.a, secrets.mac_key.b) == (a.value, b.value)
    basis, value = bundle.register._records()
    assert np.array_equal(value, xi) and np.array_equal(basis, layout.mask)

    run_side_by_side("A", strategy, trial_rng(7, 8011), trial_rng(7, 8011))


def run_side_by_side(name, strategy, rng, ref_rng):
    """One session of the package and one of ``reference`` from equal
    generators, checked after every step."""
    instance, h = instance_and_h(name)
    params, code, prefix_code = instance.params, instance.code, instance.prefix_code

    def check(step):
        fields = ("w", "u", "c", "theta")
        assert [getattr(bundle, f) for f in fields] == [getattr(ref_bundle, f) for f in fields], step
        ref_register = QubitRegister(ref_bundle.basis, ref_bundle.value)
        assert bundle.register.to_bytes() == ref_register.to_bytes(), step
        assert kv.dumps("secrets", secrets.to_kv()) == kv.dumps("secrets", ref_secrets.to_kv()), step
        assert state(rng) == state(ref_rng), step

    dist = example1(12)
    message = int(dist.sample(rng))
    assert message == reference.sample(dist, ref_rng)
    assert state(rng) == state(ref_rng)

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
