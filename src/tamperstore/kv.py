"""Canonical key-value text format for params, bundles and secrets.

One "key = value" pair per line, keys sorted, with a typed prefix on every
value so parsing never guesses:

    int:7       float:0.05      str:passive
    bits:13:0d1f            (length in bits, then little-endian hex)
    bytes:<base64>

A value is accepted only in the one spelling written here (no plus sign, digit
separator, space, upper-case hex or stray base64 character), and a file
that breaks any rule raises ValueError naming the file, the line and the
key.  The first line names the record kind and format version.

Each record type declares its keys and their value types once; ``check``
holds a mapping to that declaration, so a key the writer never writes, a
missing required key or a value of another type is a ValueError naming
the key, and ``load`` adds the file's name to it.

``load_table`` reads the other text form, the "id value" tables of prefix
codes and message distributions.
"""

from __future__ import annotations

import base64
import io

from .bits import Bits

_FORMAT_VERSION = 1


def _encode(value) -> str:
    if isinstance(value, Bits):
        return f"bits:{value.length}:{value.hex()}"
    if isinstance(value, bool):
        return f"int:{int(value)}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, str):
        if "\n" in value or "\r" in value:
            raise ValueError(f"str value {value!r} spans lines")
        return f"str:{value}"
    if isinstance(value, (bytes, bytearray)):
        return "bytes:" + base64.b64encode(bytes(value)).decode()
    raise TypeError(f"cannot encode {type(value).__name__}")


def _decode(text: str):
    """The value ``text`` names; ValueError unless ``_encode`` of that value
    gives ``text`` back, so no second spelling of a value is accepted."""
    kind, _, body = text.partition(":")
    if kind == "int":
        value = int(body)
    elif kind == "float":
        value = float(body)
    elif kind == "str":
        value = body
    elif kind == "bits":
        length, _, hexpart = body.partition(":")
        value = Bits.from_hex(hexpart, int(length))
    elif kind == "bytes":
        value = base64.b64decode(body)
    else:
        raise ValueError(f"unknown value type {kind!r}")
    if _encode(value) != text:
        raise ValueError(f"{text!r} is not the canonical form {_encode(value)!r}")
    return value


def check(kind: str, mapping: dict, required: dict, optional: dict) -> None:
    """ValueError naming the key unless ``mapping`` holds every key of
    ``required``, no key outside ``required`` and ``optional``, and under
    each key a value of the type (or one of the types) declared for it."""
    for key, value in mapping.items():
        types = required.get(key) or optional.get(key)
        if types is None:
            raise ValueError(f"unknown {kind} field {key!r}")
        if not isinstance(value, types):
            raise ValueError(f"{kind} field {key} = {value!r:.40} has the wrong type")
    for key in required:
        if key not in mapping:
            raise ValueError(f"{kind} field {key!r} is missing")


def dumps(kind: str, mapping: dict) -> str:
    lines = [f"# tamperstore {kind} v{_FORMAT_VERSION}"]
    for key in sorted(mapping):
        if "=" in key or key != key.strip():
            raise ValueError(f"bad key {key!r}")
        lines.append(f"{key} = {_encode(mapping[key])}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> tuple[str, dict]:
    """(kind, mapping) of a record; a malformed line raises ValueError
    naming its number and, once the line has one, its key."""
    stream = io.StringIO(text, newline=None)
    header = stream.readline().strip()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "#" or parts[1] != "tamperstore":
        raise ValueError(f"line 1: bad header {header!r}")
    kind = parts[2]
    if parts[3] != f"v{_FORMAT_VERSION}":
        raise ValueError(f"line 1: unsupported version {parts[3]}")
    mapping = {}
    for number, line in enumerate(stream, 2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"line {number}: {line!r} is not 'key = value'")
        if key in mapping:
            raise ValueError(f"line {number}: duplicate key {key!r}")
        try:
            mapping[key] = _decode(value)
        except ValueError as exc:
            raise ValueError(f"line {number}, key {key!r}: {exc}") from None
    return kind, mapping


def dump(path, kind: str, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(kind, mapping))


def load(path, kind: str, build):
    """``build(mapping)`` of the record stored in ``path``; ValueError naming
    the path if the file is not UTF-8, is malformed, holds another kind, or
    ``build`` refuses its mapping."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        found, mapping = loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:
        raise ValueError(f"{path}, {exc}") from None
    if found != kind:
        raise ValueError(f"{path}: expected a {kind} file, got {found!r}")
    try:
        return build(mapping)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def decimal(text: str) -> int:
    """The int ``text`` spells in canonical decimal; ValueError for any other
    spelling (a plus sign, leading zero, digit separator, space, non-ASCII digit)."""
    if text.isascii() and text.removeprefix("-").isdigit() and str(int(text)) == text:
        return int(text)
    raise ValueError(f"{text!r} is not a canonical decimal integer")


def load_table(path, convert) -> dict:
    """{id: convert(value)} from "id value" lines (# comments); a line without two
    fields, a bad id or value, an id outside int64 or a repeated id raises ValueError naming it."""
    table = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            try:
                if len(fields) != 2:
                    raise ValueError(f"expected 'id value', got {len(fields)} fields")
                ident, value = decimal(fields[0]), convert(fields[1])
                if not -(1 << 63) <= ident < 1 << 63:
                    raise ValueError(f"id {ident} is outside int64")
                if ident in table:
                    raise ValueError(f"id {ident} appears twice")
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
            table[ident] = value
    return table
