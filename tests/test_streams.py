"""The session's random stream, pinned.

Every outcome and digest depends on which values each step draws and on
the generator state it leaves.  The experiment reports and bench digests
hash only (omega, abort reason), so a change that moves the stream can
leave them alone; the pin below hashes every bundle, every secret and the
generator state after each step.  The helper tests compare each cheap
draw with the numpy call it stands for, in value and in the whole
``bit_generator.state``, so a numpy upgrade that breaks an equivalence
fails here rather than silently moving the stream.
"""

import hashlib
import json

import numpy as np
import pytest

from tamperstore import kv
from tamperstore.bits import Bits, random_words
from tamperstore.entropy import DiscreteDistribution, example1, uniform
from tamperstore.experiments import InterceptResend, trial_rng
from tamperstore.gf2 import GF2Field
from tamperstore.protocol import ProtocolInstance, _draw_padding_seed_cells
from tamperstore.qsim import EveView, _random_cells
from tamperstore.randomizer import example1_code, padded_law

# SHA-256 of four trials at each params set, recorded before the draws
# took their cheaper forms; see _stream_digest.
STREAM_PINS = {
    "A": "20987825b0a017ea83943469237fe0d596775e556334821c4dd0166d63a2e26e",
    "C": "9de991cf10d87c48e0c8cae912127a3a36d6f0560ae7cf0df49e17edb952f43e",
}
REFERENCE_PARAMS = {"A": (0.05, 0.0, 4), "C": (0.01, 0.05, 3)}


def _state_text(rng) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def _bundle_text(bundle) -> str:
    """The bundle as its file held it when the pins were recorded: the
    file then also carried a constant ``register_note``, which no draw
    touches."""
    note = "simulation checkpoint, not physically transferable"
    return kv.dumps("bundle", {**bundle.to_kv(), "register_note": note})


def _stream_digest(epsilon, beta0, ell) -> str:
    """sample -> store -> noise -> (intercept-resend on odd trials) ->
    retrieve for trial_rng(7, i), i < 4, hashing every bundle, the secrets
    and the generator state after each step."""
    inst = ProtocolInstance.derive(epsilon, beta0, ell, example1_code(12))
    dist = example1(12)
    digest = hashlib.sha256()

    def note(text: str) -> None:
        digest.update(text.encode() + b"\n")

    for index in range(4):
        rng = trial_rng(7, index)
        message = int(dist.sample(rng))
        note(f"{message} {_state_text(rng)}")
        bundle, secrets = inst.store(message, rng)
        note(_bundle_text(bundle) + kv.dumps("secrets", secrets.to_kv()))
        note(_state_text(rng))
        inst.apply_noise(bundle, rng)
        note(_bundle_text(bundle) + _state_text(rng))
        if index % 2:
            InterceptResend().apply(EveView(bundle.register), {}, rng)
            note(_bundle_text(bundle) + _state_text(rng))
        out = inst.retrieve(bundle, secrets, rng)
        note(f"{out!r} {_state_text(rng)}")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(REFERENCE_PARAMS))
def test_session_stream_is_pinned(name):
    assert _stream_digest(*REFERENCE_PARAMS[name]) == STREAM_PINS[name]


# -- each cheap draw against the numpy call it stands for ---------------------

BIT_GENERATORS = [np.random.PCG64, np.random.Philox]
LENGTHS = [0, 1, 3, 4, 5, 31, 32, 33, 3836, 14436, 14437]


def _twin_generators(bit_generator, seed, prior_words):
    """Two equal generators, each after ``prior_words`` 32-bit draws, so
    both states of the generator's buffered half word are covered."""
    pair = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(0, 1 << 32, prior_words, dtype=np.uint32)
        pair.append(rng)
    return pair


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("prior_words", [0, 1, 2, 3])
def test_random_cells_equal_uint8_integers(bit_generator, prior_words):
    for n in LENGTHS:
        rng, numpy_rng = _twin_generators(bit_generator, n, prior_words)
        cells = _random_cells(n, rng)
        expected = numpy_rng.integers(0, 2, n, dtype=np.uint8)
        assert cells.dtype == np.uint8 and np.array_equal(cells, expected), n
        assert _state_text(rng) == _state_text(numpy_rng), n


def _numpy_bits(length, rng) -> int:
    """The value ``rng.bytes`` gives for a string of ``length`` bits."""
    return int.from_bytes(rng.bytes((length + 7) // 8), "little") & ((1 << length) - 1)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("prior_words", [0, 1, 2, 3])
def test_random_bits_equal_numpy_bytes(bit_generator, prior_words):
    for length in LENGTHS:
        rng, numpy_rng = _twin_generators(bit_generator, length, prior_words)
        bits = Bits.random(length, rng)
        assert bits == Bits(_numpy_bits(length, numpy_rng), length), length
        assert _state_text(rng) == _state_text(numpy_rng), length


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("prior_words", [0, 1])
def test_one_words_call_equals_two(bit_generator, prior_words):
    # store draws its padding, seed and cells in one call on this property
    for k1, k2 in ((1, 1), (1, 120), (3, 4), (5, 0), (7, 455), (0, 3)):
        rng, split_rng = _twin_generators(bit_generator, k1 * 100 + k2, prior_words)
        merged = random_words(k1 + k2, rng)
        split = np.concatenate((random_words(k1, split_rng), random_words(k2, split_rng)))
        assert np.array_equal(merged, split), (k1, k2)
        assert _state_text(rng) == _state_text(split_rng), (k1, k2)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("prior_words", [0, 1])
@pytest.mark.parametrize("ell0", [1, 2, 13, 33])
def test_store_draws_equal_one_call_per_value(bit_generator, prior_words, ell0):
    # ell0 = 1 and 2 draw a zero seed often, so the redraw path runs
    for trial in range(40):
        pad_len, total = trial % (ell0 + 1), 1 + 37 * trial
        rng, numpy_rng = _twin_generators(bit_generator, trial, prior_words)
        padding, w, xi = _draw_padding_seed_cells(pad_len, ell0, total, rng)
        expected_padding = _numpy_bits(pad_len, numpy_rng)
        expected_w = GF2Field(ell0).random_nonzero(numpy_rng)
        expected_xi = Bits(_numpy_bits(total, numpy_rng), total).to_array()
        assert padding & ((1 << pad_len) - 1) == expected_padding, trial
        assert w == expected_w, trial
        assert xi.dtype == np.uint8 and np.array_equal(xi, expected_xi), trial
        assert _state_text(rng) == _state_text(numpy_rng), trial


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("prior_words", [0, 1, 2, 3])
def test_random_many_equals_one_bytes_call_per_string(bit_generator, prior_words):
    for lengths in ([], [0], LENGTHS, LENGTHS[::-1], [9728, 40, 40], [0, 0, 13]):
        rng, numpy_rng = _twin_generators(bit_generator, len(lengths), prior_words)
        drawn = Bits.random_many(lengths, rng)
        assert drawn == [Bits(_numpy_bits(n, numpy_rng), n) for n in lengths]
        assert _state_text(rng) == _state_text(numpy_rng)


DISTRIBUTIONS = {
    "example1(L=12)": example1(12),
    "example1_padded(L=4)": padded_law(example1_code(4)),
    "uniform(1)": uniform(1),
    "uniform(7)": uniform(7),
    "skewed": DiscreteDistribution(np.array([5, 2, 9]), np.array([0.1, 0.6, 0.3])),
}


@pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
def test_sample_equals_numpy_choice(dist):
    for index in range(300):
        rng, numpy_rng = trial_rng(7, index), trial_rng(7, index)
        sample = dist.sample(rng)
        expected = numpy_rng.choice(dist.outcomes, p=dist.probs)
        assert sample == expected and type(sample) is type(expected), index
        assert _state_text(rng) == _state_text(numpy_rng), index
    assert not dist.cdf.flags.writeable
