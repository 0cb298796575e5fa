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
from reference import explicit_tag


def all_keys(lam):
    return [MacKey(a, b, lam) for a in range(1 << lam) for b in range(1 << lam)]


def random_key(lam, rng):
    """A uniform key, a then b, drawn as ``store`` draws them."""
    a, b = Bits.random_many((lam, lam), rng)
    return MacKey(a.value, b.value, lam)


def test_completeness_every_key_and_message():
    rng = np.random.default_rng(0)
    for lam in (1, 3, 4, 8):
        cap = min(4 * lam, lam * (1 << lam))
        for _ in range(30):
            key = random_key(lam, rng)
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
        key = random_key(lam, rng)
        msg = Bits.random(11, rng)
        blocks = [msg[0:4].value, msg[4:8].value, msg[8:11].value, 1 + (11 % 15)]
        expected = key.b
        for i, block in enumerate(blocks, start=1):
            expected ^= field.mul_int(block, field.pow_int(key.a, i))
        assert tag(key, msg).value == expected


def oracle_lengths(lam: int) -> list[int]:
    """0, 1 and the lengths around one block; the block counts E = 4^k where
    Q = 2^k fills all K = Q rows, E = 4^k + 1 where Q doubles, and
    E = 2^k + 1 where the length block opens a new row; the longest
    message; and the session transcripts w || u || c, 2,577 bits at
    params A and 9,744 at C.  All at most lam * 2^lam."""
    grid = [0, 1, lam - 1, lam, lam + 1, 2577, 9744, lam << lam]
    for k in range(1, 7):
        grid += [(4**k - 1) * lam, (4**k - 1) * lam + 1, (1 << k) * lam]
    return sorted({n for n in grid if 0 <= n <= min(lam << lam, 9744)})


@pytest.mark.parametrize("lam", range(1, 71))
def test_tag_matches_explicit_sum_oracle(lam):
    rng = np.random.default_rng(lam)
    top = (1 << lam) - 1
    keys = [MacKey(0, 1, lam), MacKey(1, 0, lam), MacKey(top, top, lam)]
    for i, length in enumerate(oracle_lengths(lam)):  # edge keys and random ones in turn
        key = random_key(lam, rng) if i % 2 else keys[i // 2 % 3]
        msg = Bits.random(length, rng)
        assert tag(key, msg).value == explicit_tag(key, msg), (lam, length, key)


@pytest.mark.parametrize("lam", [1, 3, 8, 9, 15, 19, 23, 64, 65, 128])
def test_key_tables_multiply_by_powers_of_a(lam):
    # block q of Z is M_(a^(q+1)), whose row k is x^k a^(q+1), and row g of
    # G is a^g: checked against the reference product, at up to 64 blocks
    field = GF2Field(lam)
    rng = np.random.default_rng(lam)
    blocks = min(64, (1 << lam) + 1)

    def value(row):
        return sum(int(bit) << k for k, bit in enumerate(row))

    for a in (0, 1, (1 << lam) - 1, Bits.random(lam, rng).value):
        key = MacKey(a, 0, lam)
        tag(key, Bits.zeros((blocks - 1) * lam))
        zs, gs, _ = key.tables[blocks]
        rows = [value(row) for row in zs]
        assert len(rows) % lam == 0 and len(rows) // lam >= len(gs)
        power = 1
        for q in range(len(rows) // lam):
            if q < len(gs):
                assert value(gs[q]) == power
            power = field.mul_int(power, a)
            assert rows[q * lam : (q + 1) * lam] == [field.mul_int(1 << k, power) for k in range(lam)]


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
    key = random_key(6, rng)
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


def test_float32_exactness_bound_rejected():
    # lam = 2048, two blocks: Q lam^2 = 2 * 2^22 reaches 2^23
    key = MacKey(1, 1, 2048)
    with pytest.raises(OversizeMessageError):
        tag(key, Bits.zeros(1))
    assert key.tables == {}


def test_b_is_added_onto_the_tag():
    # the MAC's definition, tag(a, b) = tag(a, 0) + b, over every lam = 4
    # key and every 8-bit message
    messages = [Bits(m, 8) for m in range(256)]
    for a in range(16):
        base = MacKey(a, 0, 4)
        zero_b = [tag(base, m).value for m in messages]
        for b in range(16):
            key = MacKey(a, b, 4)
            assert [tag(key, m).value for m in messages] == [t ^ b for t in zero_b]


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
    key = random_key(5, rng)
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
    blocks = -(-length // lam) + 1
    assert tag(key, msg) == Bits(expected, lam)  # fills the cache
    cached = key.tables[blocks]
    for _ in range(2):  # reads it
        assert verify(key, msg, Bits(expected, lam))
        assert tag(key, msg) == Bits(expected, lam)
    assert list(key.tables) == [blocks] and key.tables[blocks] is cached
    assert not any(table.flags.writeable for table in cached)
    assert fresh.tables == {}
    assert key == fresh and hash(key) == hash(fresh) == before
    assert repr(key) == repr(fresh) == f"MacKey(a={a}, b={b}, lam={lam})"
    assert len({key, fresh}) == 1
