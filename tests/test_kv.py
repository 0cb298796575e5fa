import pytest

from tamperstore import kv
from tamperstore.bits import Bits


def test_round_trip_every_value_type():
    mapping = {"b": Bits(0x1A5, 9), "f": 0.05, "i": 7, "raw": b"\x00\xff", "s": "a = b"}
    assert kv.loads(kv.dumps("demo", mapping)) == ("demo", mapping)


@pytest.mark.parametrize("value", ["two\nlines", "carriage\rreturn"])
def test_dumps_rejects_str_spanning_lines(value):
    with pytest.raises(ValueError):
        kv.dumps("demo", {"s": value})


def test_loads_rejects_duplicate_keys():
    text = kv.dumps("demo", {"a": 1}) + "a = int:2\n"
    with pytest.raises(ValueError):
        kv.loads(text)


def test_loads_rejects_line_without_separator():
    text = kv.dumps("demo", {"a": 1}) + "b=int:2\n"
    with pytest.raises(ValueError, match="key = value"):
        kv.loads(text)


def test_loads_rejects_oversized_bits():
    text = kv.dumps("demo", {"a": Bits(1, 4)}).replace("bits:4:01", "bits:4:11")
    with pytest.raises(ValueError):
        kv.loads(text)
