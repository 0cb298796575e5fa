import pytest

from tamperstore import kv
from tamperstore.bits import Bits


def test_round_trip_every_value_type():
    # the empty bit string is the syndrome of a code with n = kappa
    mapping = {
        "b": Bits(0x1A5, 9), "empty": Bits(0, 0), "f": 0.05, "i": 7, "raw": b"\x00\xff",
        "s": "a = b",
    }
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


def test_load_checks_the_kind(tmp_path):
    path = tmp_path / "params.txt"
    kv.dump(path, "secrets", {"a": 1})
    assert kv.load(path, "secrets") == {"a": 1}
    with pytest.raises(ValueError, match="expected a params file, got 'secrets'"):
        kv.load(path, "params")


def test_load_table_reads_ids_and_comments(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# id value\n3 0.25  # trailing\n\n1 0.75\n")
    assert kv.load_table(path, float) == {3: 0.25, 1: 0.75}
    assert list(kv.load_table(path, float)) == [3, 1]


@pytest.mark.parametrize(
    "body,why",
    [
        ("0 0\n1 10\n1 11\n", "line 3: id 1 appears twice"),
        ("0 0.5\n1 0.25 0.25\n", "line 2: expected 'id value', got 3 fields"),
        ("0 0.5\n1\n", "line 2: expected 'id value', got 1 fields"),
        ("x 0.5\n", "line 1: invalid literal"),
        ("0 half\n", "line 1: could not convert"),
    ],
    ids=["duplicate-id", "three-fields", "one-field", "bad-id", "bad-value"],
)
def test_load_table_rejects_malformed_lines(tmp_path, body, why):
    path = tmp_path / "table.txt"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        kv.load_table(path, float)
    assert str(err.value).startswith(f"{path}, {why}")
