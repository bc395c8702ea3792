"""Canonical byte encoding shared by everything that hashes, signs or publishes.

Every value that ends up inside a digest, a signature, a Fiat-Shamir
challenge or a board entry is serialized here, and the public record's
bytes are defined by these rules alone.

Items.  Every item is a 4-byte big-endian length followed by a body:

- an int is its minimal big-endian magnitude (zero is the empty body;
  negative ints have no encoding);
- bytes are themselves; a str is its UTF-8 bytes;
- a bool is the int 0 or 1.

Records.  A `Record` is a frozen dataclass whose layout follows from its
field order and annotations:

1. A record's own bytes are its fields, in declaration order.
2. A record nested as a field is one length-prefixed blob of its own bytes.
3. A tuple or list is its count (an int item), then its items.
4. A bool is the int 0 or 1.
5. `None` is an empty blob (for an optional record field, `X | None`).

A record's digest is sha256 over its bytes as one blob, `digest(record)`.
Encoding is one pass: `encode` appends each item's length prefix and body
to one list and joins it once, so a digest hashes one flat join (CPython
3.11, 2-vCPU Xeon VM: `encode(12345)` about 0.5 us, an entry digest 2 us).

A record's bytes are computed on its first `to_bytes()` and kept on the
instance, so a record that is hashed, signed and published is encoded once,
and a record nested in another gives its kept bytes.  This is sound because
every field is immutable (an int, bool, bytes, str, tuple or record), so the
bytes are a function of the instance; `dataclasses.replace` builds a new
instance with nothing kept, and equality and hashing see only the fields.
A decoded record keeps the slice it was read from as its bytes, so its
`to_bytes()`, its digest and every challenge over it encode nothing; strict
decoding makes that slice exactly what encoding the record would give.
Each `from_bytes` call keeps one memo of the nested records it has read,
keyed by the blob and its class's decoder, so a blob repeated within one
input (a link that several proof rounds open) is decoded once and its
record shared; records are immutable, so sharing is unobservable.  The
memo lives for that call only.

Decoding is strict and follows the annotations; anything else raises
`ValueError`: an int with a leading zero byte, a flag other than 0 or 1,
text that is not UTF-8, a length that runs past the data, a nested blob
not consumed exactly, and trailing bytes after the record.  The decoder is
built once per class from its annotations, never per value.

JSON input.  Configs, scenarios, `params.json` and registry rows are read
into dataclasses by annotation too, through `from_json`; see there.  JSONL
files stream one row at a time, never whole, through `write_rows` and `read_rows`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random
import reprlib
import types
import typing

_LEN_BYTES = 4


def enc_int(n: int) -> bytes:
    """Length-prefixed minimal big-endian magnitude of a non-negative int."""
    if n < 0:
        raise ValueError("canonical encoding covers non-negative integers only")
    size = (n.bit_length() + 7) // 8
    return ((size << 8 * size) | n).to_bytes(size + _LEN_BYTES, "big")


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(_LEN_BYTES, "big") + b


def encode(*fields) -> bytes:
    """Concatenate the canonical encodings of ints (bools included), bytes,
    records, (possibly nested) sequences, strings and None."""
    return b"".join(_encode_into([], fields))


def _encode_into(parts: list, fields) -> list:
    """`parts` with each field's item prefixes and bodies appended."""
    append = parts.append
    for f in fields:
        kind = type(f)
        if kind is int or kind is bool:
            append(enc_int(f))
            continue
        if kind is bytes:
            body = f
        elif kind is str:
            body = f.encode("utf-8")
        elif isinstance(f, Record):
            body = f.to_bytes()
        elif isinstance(f, (list, tuple)):
            append(enc_int(len(f)))
            _encode_into(parts, f)
            continue
        elif f is None:
            body = b""
        else:
            raise TypeError(f"cannot canonically encode {type(f).__name__}")
        append(len(body).to_bytes(_LEN_BYTES, "big"))
        append(body)
    return parts


def digest(*fields) -> bytes:
    """sha256 over the canonical encoding of the fields."""
    return hashlib.sha256(encode(*fields)).digest()


def hexdigest(*fields) -> str:
    return digest(*fields).hex()


class Record:
    """Base of every hashed, signed or published frozen dataclass."""

    def to_bytes(self) -> bytes:
        # A plain attribute, not a cached_property: before Python 3.12 that
        # takes a lock, which slows the first encoding of every record.
        raw = getattr(self, "_encoding", None)
        if raw is None:
            raw = encode(*_codec(type(self))[0](self))
            object.__setattr__(self, "_encoding", raw)  # the dataclass is frozen
        return raw

    @classmethod
    def from_bytes(cls, data: bytes):
        # bytes(): a bytearray or memoryview would give mutable fields and
        # kept bytes; a bytes object is passed through uncopied.
        return _codec(cls)[1](bytes(data), {})

    def digest(self) -> bytes:
        return digest(self.to_bytes())


# Readers take the data, a position and the `from_bytes` call's memo of
# nested records, and return (value, next position).

def _read_bytes(data: bytes, pos: int, memo: dict) -> tuple[bytes, int]:
    start = pos + _LEN_BYTES
    stop = start + int.from_bytes(data[pos:start], "big")
    if stop > len(data):  # also a cut length prefix: then start > len(data)
        raise ValueError("truncated canonical data")
    return data[start:stop], stop


def _read_int(data: bytes, pos: int, memo: dict) -> tuple[int, int]:
    start = pos + _LEN_BYTES
    stop = start + int.from_bytes(data[pos:start], "big")
    if stop > len(data):
        raise ValueError("truncated canonical data")
    if stop > start and not data[start]:
        raise ValueError("integer has a leading zero byte")
    return int.from_bytes(data[start:stop], "big"), stop


def _read_bool(data: bytes, pos: int, memo: dict) -> tuple[bool, int]:
    value, pos = _read_int(data, pos, memo)
    if value > 1:
        raise ValueError("flag is not 0 or 1")
    return value == 1, pos


def _read_str(data: bytes, pos: int, memo: dict) -> tuple[str, int]:
    body, pos = _read_bytes(data, pos, memo)
    return body.decode("utf-8"), pos


_SCALAR_READERS = {int: _read_int, bool: _read_bool, bytes: _read_bytes, str: _read_str}


def _sequence_reader(read_item):
    def read(data: bytes, pos: int, memo: dict):
        n, pos = _read_int(data, pos, memo)
        items = []
        for _ in range(n):
            item, pos = read_item(data, pos, memo)
            items.append(item)
        return tuple(items), pos

    return read


def _blob_reader(decode, optional: bool):
    def read(data: bytes, pos: int, memo: dict):
        body, pos = _read_bytes(data, pos, memo)
        if optional and not body:
            return None, pos
        key = (decode, body)
        record = memo.get(key)
        if record is None:  # a blob not yet read in this call
            record = memo[key] = decode(body, memo)
        return record, pos

    return read


def _reader(tp):
    """Reader for one field annotation."""
    if tp in _SCALAR_READERS:
        return _SCALAR_READERS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence_reader(_reader(args[0]))
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return _blob_reader(_codec(inner)[1], optional=True)
    if isinstance(tp, type) and issubclass(tp, Record):
        return _blob_reader(_codec(tp)[1], optional=False)
    raise TypeError(f"no canonical decoding for {tp!r}")


@functools.cache
def _codec(cls):
    """(field values getter, strict decoder) for one Record class.  The
    decoder takes the data and the memo of its `from_bytes` call."""
    names = [f.name for f in dataclasses.fields(cls)]
    hints = typing.get_type_hints(cls)
    readers = [_reader(hints[name]) for name in names]
    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda record: (get(record),)

    def decode(data: bytes, memo: dict):
        pos = 0
        args = []
        for read in readers:
            value, pos = read(data, pos, memo)
            args.append(value)
        if pos != len(data):
            raise ValueError("trailing bytes after canonical record")
        record = cls(*args)
        object.__setattr__(record, "_encoding", data)  # what to_bytes() would give
        return record

    return values, decode


class Check(typing.NamedTuple):
    """`Annotated` metadata for `from_json`: the value must pass `test`, and
    `what` says what it must be."""

    test: typing.Callable
    what: str


def at_least(low) -> Check:
    return Check(lambda value: value >= low, f"at least {low}")


def between(low, high) -> Check:
    return Check(lambda value: low <= value <= high, f"in [{low}, {high}]")


def from_json(cls, obj, path: str = ""):
    """The dataclass `cls` read from the parsed JSON value `obj`, an object
    whose keys are fields of `cls`, each field without a default among them.
    A field typed `int`, `str` or `bool` takes exactly that type (a bool is
    no int) and `float` an int or a float; `Annotated[T, Check(...)]` a `T`
    that passes the check; `Literal[...]` one of the choices, of its type;
    `list[T]`, `tuple[T, ...]` and `dict[str, T]` a list or an object of
    `T`s; and a dataclass an object read by this function.  Any other value
    raises ValueError naming its path in `obj`, such as `votes[4].time`, and
    any other annotation, a union among them, raises TypeError."""
    if type(obj) is not dict:
        raise _refused(path, obj, "an object")
    fields = _json_fields(cls)
    for key in obj:
        if key not in fields:
            raise _refused(path, key, f"a field of {cls.__name__}")
    values = {}
    for name, (tp, required) in fields.items():
        at = f"{path}.{name}" if path else name
        if name in obj:
            values[name] = _from_json(tp, obj[name], at)
        elif required:
            raise ValueError(f"{at}: missing")
    return cls(**values)


def check_fields(record) -> None:
    """Raise ValueError unless each field of the dataclass `record` holds a
    value that `from_json` takes for its annotation."""
    for name, (tp, _) in _json_fields(type(record)).items():
        _from_json(tp, getattr(record, name), name)


class Config:
    """Base of a dataclass that a JSON object configures: construction,
    keyword arguments and `dataclasses.replace` included, checks each field
    as `from_json` does."""

    __post_init__ = check_fields
    from_dict = classmethod(from_json)
    to_dict = dataclasses.asdict


@functools.cache
def _json_fields(cls) -> dict:
    """Each field's name -> (annotation, whether the field has no default)."""
    hints = typing.get_type_hints(cls, include_extras=True)
    missing = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _refused(path: str, value, what: str) -> ValueError:
    found = f"{reprlib.repr(value)} is not {what}"
    return ValueError(f"{path}: {found}" if path else found)


# The types of the JSON values that each scalar annotation takes, and its name.
_SCALARS = {int: ((int,), "an int"), float: ((int, float), "a number"), str: ((str,), "a string"),
            bool: ((bool,), "a bool")}


def _from_json(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        value = _from_json(args[0], value, path)
        for check in args[1:]:
            if not check.test(value):
                raise _refused(path, value, check.what)
    elif origin is typing.Literal:
        if not any(type(value) is type(choice) and value == choice for choice in args):
            raise _refused(path, value, f"one of {list(args)}")
    elif dataclasses.is_dataclass(tp):
        value = from_json(tp, value, path)
    elif tp in _SCALARS:
        if type(value) not in _SCALARS[tp][0]:
            raise _refused(path, value, _SCALARS[tp][1])
    elif origin in (list, tuple):
        if type(value) not in (list, origin):
            raise _refused(path, value, "a list")
        value = origin(_from_json(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    elif origin is dict:
        if type(value) is not dict:
            raise _refused(path, value, "an object")
        value = {key: _from_json(args[1], item, f"{path}[{key}]") for key, item in value.items()}
    else:
        raise TypeError(f"no JSON decoding for {tp!r}")
    return value


def write_rows(path, rows) -> None:
    """Write each dict of `rows` to `path` as a JSON line, keys sorted, one row at a time."""
    with open(path, "w", encoding="utf-8") as file:
        file.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def read_rows(path):
    """(number, text) of each non-blank line of `path`, read one physical line at
    a time and split and numbered as `read_text().splitlines()` would, so a \\v,
    \\f, \\x85 or U+2028 ends a line too.  A byte that is not UTF-8 raises ValueError."""
    with open(path, encoding="utf-8") as file:
        lines = itertools.chain.from_iterable(map(str.splitlines, file))
        yield from ((number, line) for number, line in enumerate(lines, 1) if line.strip())


def derive_rng(*labels) -> random.Random:
    """Deterministic RNG derived from a master seed plus context labels.

    All nondeterminism in the library flows through instances created here,
    so a run is a pure function of its (config, scenario, seed) inputs.
    """
    return random.Random(digest("evote/rng", *labels))
