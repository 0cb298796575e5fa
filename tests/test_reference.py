"""The package's session against the plain one in ``reference``, step by step.

Both sides start from equal generators and run sample -> store -> storage
noise -> strategy -> retrieve.  After every step the bundle fields, the
register's checkpoint bytes, the secrets' kv text, the message or outcome
and the whole generator state must be equal.  "passive" skips the noise
step; "storage-noise" runs it and nothing else.  The decode path is reached
by flipping payload cells on both sides alike, with the secrets in hand.
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
from tamperstore.qsim import EveView, QubitRegister, TrapLayout
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
    padding = Bits.random(params.ell0 - prefix_code.codeword(message).length, calls)
    seeds = [Bits.random(params.ell0, calls)]
    while seeds[-1].value == 0:
        seeds.append(Bits.random(params.ell0, calls))
    assert [w.value for w in seeds] == [0, 3831]
    xi = Bits.random(total, calls).to_array()
    layout = TrapLayout.random(total, params.r, calls)
    u, a, b = (Bits.random(length, calls) for length in (params.n, params.lam, params.lam))
    assert state(rng) == state(calls)

    m0 = compress(prefix_code.codeword(message), params.ell0, padding.value)
    rm = randomize(m0, seeds[-1], params.ell)
    assert (bundle.w, bundle.u, secrets.m_nabla) == (seeds[-1], u, rm.m_nabla)
    assert secrets.layout.t == layout.t and (secrets.mac_key.a, secrets.mac_key.b) == (a.value, b.value)
    basis, value = bundle.register._records()
    assert np.array_equal(value, xi) and np.array_equal(basis, layout.mask)

    run_side_by_side("A", strategy, trial_rng(7, 8011), trial_rng(7, 8011))


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("spread", ("cells", "blocks"))
def test_decode_past_the_radius_matches_reference(spread, seed):
    """Payload cells re-prepared flipped, each in its own basis, and no
    trap touched: the MAC and trap tests pass, and the two decoders must
    agree on what follows past the radius.  "cells" flips t_corr + 1 cells
    spread over the payload; "blocks" flips 5/8 of each of t_out + 1 inner
    blocks, more than the outer code can correct."""
    instance, _ = instance_and_h("C")
    code, inner = instance.code, instance.code.inner
    picks = np.random.default_rng(100 + seed)  # not the sessions' generators
    if spread == "cells":
        positions = picks.choice(code.n, code.t_corr + 1, replace=False)
    else:
        blocks = picks.choice(code.outer_n, code.t_out + 1, replace=False)
        per_block = inner.n * 5 // 8
        positions = np.concatenate(
            [block * inner.n + picks.choice(inner.n, per_block, replace=False) for block in blocks]
        )
    assert positions.size > code.t_corr

    def flip(bundle, secrets, ref_bundle):
        cells = secrets.layout.payload_indices[positions]
        EveView(bundle.register).replace(cells, ref_bundle.basis[cells], 1 - ref_bundle.value[cells])
        ref_bundle.value[cells] ^= 1

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    omega, _, reason = run_side_by_side("C", "passive", rng, ref_rng, edit=flip)
    # spread flips decode past the radius; the blocks' flips abort
    assert (omega, reason) == ((1, "none") if spread == "cells" else (0, "decode"))


def run_side_by_side(name, strategy, rng, ref_rng, edit=None):
    """One session of the package and one of ``reference`` from equal
    generators, checked after every step; ``edit(bundle, secrets,
    ref_bundle)``, if given, changes both bundles alike before retrieve.
    Returns the outcome (omega, message, abort reason)."""
    instance, h = instance_and_h(name)
    params, code = instance.params, instance.code
    table = reference.example1_table(12)

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
    ref_bundle, ref_secrets = reference.store(message, params, h, table, ref_rng)
    check("store")

    if strategy != "passive":
        instance.apply_noise(bundle, rng)
        reference.noise(ref_bundle, params.beta0, ref_rng)
        check("noise")
    if strategy not in ("passive", "storage-noise"):
        bundle, _ = _apply_strategy(make_strategy(strategy), bundle, params, rng)
        reference.attack(ref_bundle, strategy, ref_rng)
        check(strategy)
    if edit is not None:
        edit(bundle, secrets, ref_bundle)
        check("edit")

    out = instance.retrieve(bundle, secrets, rng)
    expected = reference.retrieve(ref_bundle, ref_secrets, params, code, h, table, ref_rng)
    assert (out.omega, out.message, out.abort_reason) == expected
    check("retrieve")
    return expected
