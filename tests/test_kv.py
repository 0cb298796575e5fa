import re
from pathlib import Path

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
    assert kv.load(path, "secrets", dict) == {"a": 1}
    with pytest.raises(ValueError, match="expected a params file, got 'secrets'"):
        kv.load(path, "params", dict)


def test_load_names_the_path_when_the_record_refuses_its_mapping(tmp_path):
    path = tmp_path / "bundle.txt"
    kv.dump(path, "bundle", {"u": Bits(5, 8), "zz": 1})

    def build(mapping):
        kv.check("bundle", mapping, {"u": Bits}, {})

    with pytest.raises(ValueError) as err:
        kv.load(path, "bundle", build)
    assert str(err.value) == f"{path}: unknown bundle field 'zz'"


@pytest.mark.parametrize(
    "mapping,why",
    [
        ({"a": 1, "b": Bits(1, 2), "zz": 1}, "unknown demo field 'zz'"),
        ({"a": 1}, "demo field 'b' is missing"),
        ({"a": "1", "b": Bits(1, 2)}, "demo field a = '1' has the wrong type"),
        ({"a": 1, "b": Bits(1, 2), "c": 0.5, "d": 2}, "unknown demo field 'd'"),
        ({"a": 1, "b": Bits(1, 2), "c": b"x"}, "demo field c = b'x' has the wrong type"),
    ],
    ids=["unknown", "missing", "wrong-type", "unknown-beside-optional", "optional-wrong-type"],
)
def test_check_refuses_what_the_declaration_does_not_allow(mapping, why):
    required, optional = {"a": int, "b": Bits}, {"c": (int, float)}
    kv.check("demo", {"a": 1, "b": Bits(1, 2)}, required, optional)
    kv.check("demo", {"a": 1, "b": Bits(1, 2), "c": 2}, required, optional)
    with pytest.raises(ValueError) as err:
        kv.check("demo", mapping, required, optional)
    assert str(err.value) == why


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
        ("x 0.5\n", "line 1: 'x' is not a canonical decimal integer"),
        ("0 half\n", "line 1: could not convert"),
        # ids read once in one spelling only: these loaded as 0, 10 and 3
        ("+0 0.5\n", "line 1: '+0' is not a canonical decimal integer"),
        ("0 0.5\n1_0 0.5\n", "line 2: '1_0' is not a canonical decimal integer"),
        ("\u0663 1.0\n", "line 1: '\u0663' is not a canonical decimal integer"),
        ("07 1.0\n", "line 1: '07' is not a canonical decimal integer"),
    ],
    ids=["duplicate-id", "three-fields", "one-field", "bad-id", "bad-value",
         "plus-sign", "digit-separator", "arabic-indic-digit", "leading-zero"],
)
def test_load_table_rejects_malformed_lines(tmp_path, body, why):
    path = tmp_path / "table.txt"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        kv.load_table(path, float)
    assert str(err.value).startswith(f"{path}, {why}")


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("bytes:@QUJD", "bytes:QUJD"),
        ("bytes:Q U J D", "bytes:QUJD"),
        ("int:+7", "int:7"),
        ("int:1_000", "int:1000"),
        ("int: 7", "int:7"),
        ("bits:13:0D1F", "bits:13:0d1f"),
        ("bits:13:0d 1f", "bits:13:0d1f"),
        ("bits:+13:0d1f", "bits:13:0d1f"),
        ("float:1_0.5", "float:10.5"),
    ],
)
def test_loads_accepts_only_the_canonical_spelling(text, canonical):
    # Python's parsers accept both spellings of each value; the format keeps one
    header = "# tamperstore demo v1\n"
    _, mapping = kv.loads(f"{header}a = {canonical}\n")
    assert kv.dumps("demo", mapping) == f"{header}a = {canonical}\n"
    why = re.escape(f"line 2, key 'a': {text!r} is not the canonical form")
    with pytest.raises(ValueError, match=f"^{why}"):
        kv.loads(f"{header}a = {text}\n")


def test_load_names_the_path_line_and_key(tmp_path):
    path = tmp_path / "bundle.txt"
    kv.dump(path, "bundle", {"register": b"\x01\x02\x03", "u": Bits(5, 8)})
    written = path.read_text()
    for old, new, where in (
        ("bytes:", "bytes:@@@", "line 2, key 'register'"),  # dropped by a lax base64 decode
        ("bits:8:05", "bits:8:0g", "line 3, key 'u'"),  # a bad hex digit
    ):
        path.write_text(written.replace(old, new))
        with pytest.raises(ValueError) as err:
            kv.load(path, "bundle", dict)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}, {where}: ")


def test_load_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "params.txt"
    path.write_bytes(b"# tamperstore params v1\nname = str:caf\xe9\n")
    with pytest.raises(ValueError) as err:
        kv.load(path, "params", dict)
    assert type(err.value) is ValueError
    assert str(err.value).startswith(f"{path}, line 2: not UTF-8 text")


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_pinned_params_files_load_unchanged(name):
    path = Path(__file__).parent / "data" / f"params_{name}.txt"
    assert kv.dumps("params", kv.load(path, "params", dict)) == path.read_text()
