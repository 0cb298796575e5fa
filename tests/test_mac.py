import hashlib
import math

import numpy as np
import pytest

from tamperstore.bits import Bits
from tamperstore.gf2 import GF2Field
from tamperstore.mac import (
    MacKey,
    OversizeMessageError,
    forgery_bound,
    tag,
    tag_length,
    verify,
)


def all_keys(lam):
    return [MacKey(a, b, lam) for a in range(1 << lam) for b in range(1 << lam)]


def test_completeness_every_key_and_message():
    rng = np.random.default_rng(0)
    for lam in (1, 3, 4, 8):
        cap = min(4 * lam, lam * (1 << lam))
        for _ in range(30):
            key = MacKey.random(lam, rng)
            msg = Bits.random(int(rng.integers(0, cap + 1)), rng)
            assert verify(key, msg, tag(key, msg))


def test_degenerate_zero_a_still_complete():
    lam = 4
    rng = np.random.default_rng(1)
    for b in (0, 7, 15):
        key = MacKey(0, b, lam)
        m1, m2 = Bits.random(8, rng), Bits.random(12, rng)
        assert tag(key, m1) == tag(key, m2) == Bits(b, lam)
        assert verify(key, m1, tag(key, m1))


def test_tag_is_polynomial_evaluation():
    # independent oracle: explicit sum of m_i * a^i plus b
    lam = 4
    field = GF2Field(lam)
    rng = np.random.default_rng(2)
    for _ in range(50):
        key = MacKey.random(lam, rng)
        msg = Bits.random(11, rng)
        blocks = [msg[0:4].value, msg[4:8].value, msg[8:11].value, 1 + (11 % 15)]
        expected = key.b
        for i, block in enumerate(blocks, start=1):
            expected ^= field.mul_int(block, field.pow_int(key.a, i))
        assert tag(key, msg).value == expected


def explicit_tag(key: MacKey, msg: Bits) -> int:
    """b + sum m_i a^i with blocks cut by Bits slicing and generic field ops."""
    lam = key.lam
    field = GF2Field(lam)
    blocks = [msg[start : start + lam].value for start in range(0, msg.length, lam)]
    blocks.append(1 + msg.length % ((1 << lam) - 1))
    expected = key.b
    for i, block in enumerate(blocks, start=1):
        expected ^= field.mul_int(block, field.pow_int(key.a, i))
    return expected


# the transcript w || u || c the protocol tags: 2,577 bits at params A, 9,744 at C
SESSION_LENGTHS = {15: 2577, 19: 9744}


@pytest.mark.parametrize("lam", [1, 7, 8, 9, 15, 16, 17, 19, 23, 24, 25, 32, 33, 64, 65])
def test_tag_matches_explicit_sum_oracle(lam):
    rng = np.random.default_rng(lam)
    limit = lam * (1 << lam)  # the longest message, kept when the oracle is fast
    candidates = (0, 3 * lam, 3 * lam + 1 + lam // 2, 37 * lam - 1, limit)
    lengths = [n for n in candidates if n <= min(limit, 4000)]
    if lam in SESSION_LENGTHS:
        lengths.append(SESSION_LENGTHS[lam])
    top = (1 << lam) - 1
    keys = [MacKey(0, 1, lam), MacKey(1, 0, lam), MacKey(top, top, lam)]
    keys += [MacKey.random(lam, rng) for _ in range(4)]
    for length in lengths:
        for key in keys:
            msg = Bits.random(length, rng)
            assert tag(key, msg).value == explicit_tag(key, msg), (lam, length, key)


# Fixed tags: a tag is stored in every bundle, so a change to block cutting,
# padding, the length block or the modulus must not move them.
def fixed_message(length: int, label: str) -> Bits:
    raw = hashlib.shake_128(label.encode()).digest((length + 7) // 8)
    return Bits(int.from_bytes(raw, "little") & ((1 << length) - 1), length)


@pytest.mark.parametrize(
    "lam,length,a,b,label,expected",
    [
        (15, 2577, 0x1, 0x0, "tamperstore", 0x1D38),
        (15, 2577, 0x7FFF, 0x7FFF, "mac", 0x35E8),
        (15, 2577, 0x5A5A, 0x1234, "tamperstore", 0x4DD4),
        (19, 9744, 0x1, 0x0, "tamperstore", 0x22AE7),
        (19, 9744, 0x7FFFF, 0x7FFFF, "mac", 0x1AE),
        (19, 9744, 0x5A5A, 0x1234, "tamperstore", 0x305A3),
    ],
)
def test_tag_pinned_at_session_lengths(lam, length, a, b, label, expected):
    assert tag(MacKey(a, b, lam), fixed_message(length, label)) == Bits(expected, lam)


def test_exhaustive_forgery_bound_lambda4():
    # 2-block messages, lam = 4: success over keys is at most (B+1)/2^lam = 3/16
    lam = 4
    field = GF2Field(lam)
    msg_len = 8

    def content_poly_values(msg_value):
        out = []
        for a in range(1 << lam):
            acc = 0
            blocks = [msg_value & 15, msg_value >> 4, 1 + (msg_len % 15)]
            for block in reversed(blocks):
                acc = field.mul_int(acc ^ block, a)
            out.append(acc)
        return out

    m = 0b10110100
    base = content_poly_values(m)
    worst = 0
    for mp in range(1 << msg_len):
        if mp == m:
            continue
        diff = [pv ^ bv for pv, bv in zip(content_poly_values(mp), base)]
        counts = np.bincount(diff, minlength=1 << lam)
        worst = max(worst, int(counts.max()))
    assert worst <= 3  # degree-3 difference polynomial: at most 3 roots
    assert worst / 2.0**lam <= forgery_bound(lam, msg_len) == 3 / 16


def test_bit_flip_rejection_rate_exhaustive():
    lam = 4
    msg = Bits.from_01("10110100")
    bound = forgery_bound(lam, msg.length)
    for i in range(msg.length):
        flipped = msg.flip(i)
        accepted = sum(
            verify(key, flipped, tag(key, msg)) for key in all_keys(lam)
        )
        assert accepted / len(all_keys(lam)) <= bound


def test_tag_flip_always_rejected():
    rng = np.random.default_rng(3)
    key = MacKey.random(6, rng)
    msg = Bits.random(20, rng)
    theta = tag(key, msg)
    for i in range(theta.length):
        assert not verify(key, msg, theta.flip(i))


def test_zero_padding_does_not_collide():
    # messages that pad to identical blocks still get distinct tags a.s.
    lam = 4
    cases = [
        (Bits.zeros(0), Bits.zeros(16)),
        (Bits.from_01("1"), Bits.from_01("10")),
        (Bits.from_01("101"), Bits.from_01("1010")),
    ]
    for m1, m2 in cases:
        collisions = sum(tag(k, m1) == tag(k, m2) for k in all_keys(lam))
        assert collisions / len(all_keys(lam)) <= forgery_bound(lam, max(m1.length, m2.length))


def test_oversize_rejected():
    lam = 2
    key = MacKey(1, 1, lam)
    with pytest.raises(OversizeMessageError):
        tag(key, Bits.zeros(lam * 2**lam + 1))


def test_tag_length_vacuous_security():
    assert tag_length(1.0, 10) == 1


@pytest.mark.parametrize("lam_target", [4, 5, 6])
def test_lambda_formula_meets_exhaustive_bound(lam_target):
    # pick eps so that the formula lands on lam_target, then check the
    # worst-case forgery probability really is below eps
    msg_len = 2 * lam_target
    blocks = -(-msg_len // lam_target)
    eps = (blocks + 1) / 2.0**lam_target
    lam = tag_length(eps, msg_len)
    assert lam <= lam_target
    assert forgery_bound(lam, msg_len) <= eps


def test_tag_length_is_smallest_meeting_the_bound():
    # the protocol's message sizes at A, B and C, and small ones
    for eps in (0.5, 0.05 / 8, 0.01 / 8, 2.0**-20):
        for msg_bits in (1, 7, 100, 5133, 13323, 19465):
            lam = tag_length(eps, msg_bits)
            assert forgery_bound(lam, msg_bits) <= eps
            floor = max(1, math.ceil(math.log2(1 / eps)))
            assert lam == floor or forgery_bound(lam - 1, msg_bits) > eps


def test_key_bits_round_trip():
    rng = np.random.default_rng(4)
    key = MacKey.random(5, rng)
    assert MacKey.from_bits(key.to_bits()) == key
    assert key.bit_size == 10


@pytest.mark.parametrize(
    "bits", [Bits(0, 0), Bits(1, 1), Bits(0, 3), Bits(5 | 2 << 3, 7), Bits(511, 9)]
)
def test_key_from_bits_rejects_malformed_lengths(bits):
    # Bits(5 | 2 << 3, 7) once parsed as MacKey(5, 2, 3), dropping its top bit
    with pytest.raises(ValueError):
        MacKey.from_bits(bits)


def test_key_needs_lam_at_least_one():
    with pytest.raises(ValueError):
        MacKey(0, 0, 0)
    assert MacKey.from_bits(Bits(0b10, 2)) == MacKey(0, 1, 1)


@pytest.mark.parametrize("lam,length,a,b,label,expected", [
    (15, 2577, 0x5A5A, 0x1234, "tamperstore", 0x4DD4),
    (19, 9744, 0x7FFFF, 0x7FFFF, "mac", 0x1AE),
])
def test_cached_key_tables_give_pinned_tags(lam, length, a, b, label, expected):
    key, fresh = MacKey(a, b, lam), MacKey(a, b, lam)
    before = hash(key)
    msg = fixed_message(length, label)
    for _ in range(2):  # the first call fills the cache, the second reads it
        assert tag(key, msg) == Bits(expected, lam)
        assert verify(key, msg, Bits(expected, lam))
    assert "byte_tables" in vars(key) and "byte_tables" not in vars(fresh)
    assert key.byte_tables == tuple(map(tuple, GF2Field(lam).byte_tables(a)))
    assert key == fresh and hash(key) == hash(fresh) == before
    assert len({key, fresh}) == 1
