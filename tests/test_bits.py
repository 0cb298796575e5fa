import numpy as np
import pytest

from tamperstore.bits import Bits


def test_first_bit_is_index_zero():
    b = Bits.from_01("101")
    assert b[0] == 1 and b[1] == 0 and b[2] == 1
    assert b.value == 0b101  # bit i of the int is index i
    assert b.first(1).value == 1


def test_concat_keeps_transmission_order():
    a = Bits.from_01("10")
    b = Bits.from_01("011")
    c = a.concat(b)
    assert c.to_01() == "10011"
    assert c.first(2) == a
    assert c[2:5] == b


def test_array_round_trip():
    rng = np.random.default_rng(7)
    for length in [0, 1, 5, 8, 9, 64, 301]:
        b = Bits.random(length, rng)
        assert Bits.from_array(b.to_array()) == b
        assert list(b.to_array()) == [b[i] for i in range(length)]


def test_hex_round_trip():
    rng = np.random.default_rng(9)
    b = Bits.random(13, rng)
    assert Bits.from_hex(b.hex(), 13) == b


def test_xor_and_weight():
    a = Bits.from_01("1100")
    b = Bits.from_01("1010")
    assert (a ^ b).to_01() == "0110"
    assert (a ^ b).weight() == 2
    with pytest.raises(ValueError):
        a ^ Bits.from_01("111")


def test_value_range_checked():
    with pytest.raises(ValueError):
        Bits(8, 3)
    with pytest.raises(ValueError):
        Bits(-1, 3)


def test_from_hex_rejects_wrong_size_and_excess_bits():
    assert Bits.from_hex("ff1f", 13) == Bits(0x1FFF, 13)
    with pytest.raises(ValueError):
        Bits.from_hex("ff1f00", 13)  # one byte too many
    with pytest.raises(ValueError):
        Bits.from_hex("ff", 13)  # one byte too few
    with pytest.raises(ValueError):
        Bits.from_hex("ff3f", 13)  # bit 13 set: wider than the length
    with pytest.raises(ValueError):
        Bits.from_hex("00", 0)


def test_to_01_equals_the_per_bit_form():
    rng = np.random.default_rng(64)
    for length in range(65):
        for value in (0, (1 << length) - 1, int(rng.integers(0, 1 << 62)) & ((1 << length) - 1)):
            bits = Bits(value, length)
            expected = "".join("1" if (value >> i) & 1 else "0" for i in range(length))
            assert bits.to_01() == expected
            assert Bits.from_01(expected) == bits
