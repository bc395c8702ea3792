import dataclasses
import enum
import hashlib
import json
from typing import Annotated, Literal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evote.canonical import (
    Config,
    Record,
    at_least,
    between,
    derive_rng,
    digest,
    enc_bytes,
    enc_int,
    encode,
    from_json,
    hexdigest,
    read_rows,
    write_rows,
)
from evote.groups import Ciphertext


def _record(*types):
    """A Record class whose fields have `types`, so its bytes are exactly
    encode() of its field values."""
    fields = [(f"f{i}", tp) for i, tp in enumerate(types)]
    return dataclasses.make_dataclass("Probe", fields, bases=(Record,), frozen=True)


INT, BOOL, BYTES, MIXED = _record(int), _record(bool), _record(bytes), _record(bytes, int, str)


def _decode(record, data: bytes) -> tuple:
    """The field values of `record` decoded strictly from `data`."""
    return dataclasses.astuple(record.from_bytes(data))


def test_int_zero_encodes_empty():
    assert encode(0) == b"\x00\x00\x00\x00"


def test_int_encoding_is_minimal_big_endian():
    assert encode(1) == b"\x00\x00\x00\x01\x01"
    assert encode(256) == b"\x00\x00\x00\x02\x01\x00"


def test_nested_sequences_include_count():
    # A list encodes its length (as a canonical int) before its items.
    assert encode([1, 2]) == encode(2) + encode(1) + encode(2)
    assert encode([]) == encode(0)
    assert encode([1, 2]) != encode([[1], [2]])


def test_string_encodes_utf8():
    assert encode("ab") == b"\x00\x00\x00\x02ab"


@given(st.integers(min_value=0, max_value=2**256))
def test_int_round_trip(n):
    assert _decode(INT, encode(n)) == (n,)


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**64), st.text(max_size=20))
def test_mixed_round_trip(b, n, s):
    assert _decode(MIXED, encode(b, n, s)) == (b, n, s)


def test_trailing_bytes_rejected():
    assert _decode(INT, encode(5)) == (5,)
    with pytest.raises(ValueError, match="trailing bytes"):
        _decode(INT, encode(5) + b"\x00")


def test_truncated_input_rejected():
    data = encode(b"abcdef")
    with pytest.raises(ValueError, match="truncated"):
        _decode(BYTES, data[:-2])


def test_distinct_structures_have_distinct_digests():
    # Length prefixes prevent concatenation ambiguity.
    assert digest(b"ab", b"c") != digest(b"a", b"bc")
    assert digest("ab") != digest(b"ab", b"")


def test_hexdigest_matches_digest():
    assert bytes.fromhex(hexdigest("x", 1)) == digest("x", 1)


def test_derive_rng_is_deterministic():
    a = [derive_rng("s", 1).random() for _ in range(5)]
    b = [derive_rng("s", 1).random() for _ in range(5)]
    assert a == b


def test_derive_rng_labels_are_separated():
    assert derive_rng("s", 1).random() != derive_rng("s", 2).random()
    assert derive_rng("ab", "c").random() != derive_rng("a", "bc").random()


@pytest.mark.parametrize("flag", [False, True])
def test_bool_round_trip(flag):
    [decoded] = _decode(BOOL, encode(flag))
    assert decoded is flag


@pytest.mark.parametrize("data", [encode(2), encode(256), b"\x00\x00\x00\x02\x00\x01"])
def test_flag_other_than_canonical_0_or_1_rejected(data):
    with pytest.raises(ValueError):
        _decode(BOOL, data)


@pytest.mark.parametrize(
    "data",
    [bytes.fromhex("00000001" "00"), bytes.fromhex("00000002" "0001"), bytes.fromhex("00000003" "000100")],
    ids=bytes.hex,
)
def test_int_with_leading_zero_byte_rejected(data):
    with pytest.raises(ValueError, match="leading zero"):
        _decode(INT, data)


# --- The encoder against its specification ---

def _spec(value) -> bytes:
    """The module docstring's rules, item by item, on enc_int/enc_bytes."""
    if type(value) in (int, bool):
        return enc_int(int(value))
    if type(value) is bytes:
        return enc_bytes(value)
    if type(value) is str:
        return enc_bytes(value.encode("utf-8"))
    if value is None:
        return enc_bytes(b"")
    if isinstance(value, Record):
        fields = (getattr(value, f.name) for f in dataclasses.fields(value))
        return enc_bytes(b"".join(map(_spec, fields)))
    if isinstance(value, (list, tuple)):
        return enc_int(len(value)) + b"".join(map(_spec, value))
    raise AssertionError(f"no rule for {value!r}")


_ints = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**3100),
)
_leaves = st.one_of(
    _ints,
    st.booleans(),
    st.binary(max_size=40),
    st.text(max_size=12),
    st.none(),
    st.builds(Ciphertext, _ints, _ints),
)
_values = st.recursive(
    _leaves, lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner)),
    max_leaves=12,
)


class _Flag(enum.IntEnum):
    ON = 1


def _holding(bad):
    """Values with `bad` somewhere inside, between well-formed ones."""
    return st.recursive(
        st.just(bad), lambda inner: st.tuples(_leaves, inner, _leaves).map(list), max_leaves=4
    )


@given(_ints)
def test_an_int_is_a_length_and_its_minimal_big_endian_magnitude(n):
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    assert enc_int(n) == len(body).to_bytes(4, "big") + body


@given(st.lists(_values, max_size=4))
def test_encode_follows_the_specification(fields):
    assert encode(*fields) == b"".join(map(_spec, fields))
    assert digest(*fields) == hashlib.sha256(encode(*fields)).digest()


@given(st.integers(max_value=-1).flatmap(_holding))
def test_a_negative_int_anywhere_has_no_encoding(value):
    with pytest.raises(ValueError):
        encode(value)


@given(st.sampled_from([0.5, _Flag.ON, {"k": 1}]).flatmap(_holding))
def test_a_float_an_int_enum_or_a_dict_anywhere_is_refused(value):
    with pytest.raises(TypeError):
        encode(value)


# --- JSON input ---

@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    label: str = "p"


@dataclasses.dataclass(frozen=True)
class _Shape:
    points: list[_Point]
    scale: Annotated[float, between(0, 1)] = 1.0
    kind: Literal["open", "closed"] = "open"
    tags: tuple[str, ...] = ()
    weights: dict[str, Annotated[int, at_least(0)]] = dataclasses.field(default_factory=dict)
    extra: _Point = _Point(0)


def test_from_json_reads_nested_dataclasses_by_annotation():
    shape = from_json(
        _Shape,
        {
            "points": [{"x": 1}, {"x": 2, "label": "q"}],
            "scale": 1,
            "kind": "closed",
            "tags": ["a"],
            "weights": {"w": 3},
            "extra": {"x": 4},
        },
    )
    assert shape == _Shape([_Point(1), _Point(2, "q")], 1, "closed", ("a",), {"w": 3}, _Point(4))
    assert from_json(_Shape, {"points": []}).extra == _Point(0)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "[] is not an object"),
        ({}, "points: missing"),
        ({"points": [], "bogus": 1}, "'bogus' is not a field of _Shape"),
        ({"points": [{"x": True}]}, "points[0].x: True is not an int"),
        ({"points": [{"x": 1.0}]}, "points[0].x: 1.0 is not an int"),
        ({"points": [{}]}, "points[0].x: missing"),
        ({"points": {"x": 1}}, "points: {'x': 1} is not a list"),
        ({"points": [], "scale": "1"}, "scale: '1' is not a number"),
        ({"points": [], "scale": False}, "scale: False is not a number"),
        ({"points": [], "scale": 1.5}, "scale: 1.5 is not in [0, 1]"),
        ({"points": [], "kind": "shut"}, "kind: 'shut' is not one of ['open', 'closed']"),
        ({"points": [], "tags": "ab"}, "tags: 'ab' is not a list"),
        ({"points": [], "weights": {"w": -1}}, "weights[w]: -1 is not at least 0"),
        ({"points": [], "extra": {"y": 0}}, "extra: 'y' is not a field of _Point"),
        ({"points": [], "extra": [1]}, "extra: [1] is not an object"),
        ({"points": [], "extra": "x"}, "extra: 'x' is not an object"),
    ],
)
def test_from_json_names_the_path_of_a_refused_value(obj, message):
    with pytest.raises(ValueError) as info:
        from_json(_Shape, obj)
    assert str(info.value) == message


def test_from_json_refuses_a_union_annotation():
    @dataclasses.dataclass(frozen=True)
    class Either:
        value: int | str = 0

    with pytest.raises(TypeError, match="no JSON decoding"):
        from_json(Either, {"value": 1})


def test_a_config_checks_every_construction_like_json():
    @dataclasses.dataclass(frozen=True)
    class Knobs(Config):
        n: Annotated[int, at_least(1)] = 1
        on: Literal[True] = True

    assert Knobs.from_dict({"n": 2}).to_dict() == {"n": 2, "on": True}
    for build in (lambda: Knobs(n=0), lambda: dataclasses.replace(Knobs(), n=0)):
        with pytest.raises(ValueError, match="^n: 0 is not at least 1$"):
            build()
    with pytest.raises(ValueError, match=r"^on: 1 is not one of \[True\]$"):
        Knobs(on=1)


# Line breaks of every kind `read_text().splitlines()` knows, blanks and text.
_LINE_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029", " ", "\t", "{}", "row", "\u00e9"]


@given(st.lists(st.sampled_from(_LINE_PIECES) | st.text(max_size=4), max_size=24).map("".join))
def test_read_rows_splits_and_numbers_as_splitlines(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "rows.txt"
    path.write_bytes(text.encode("utf-8"))
    lines = enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
    assert list(read_rows(path)) == [(n, line) for n, line in lines if line.strip()]


@given(st.lists(st.dictionaries(st.text(max_size=3), st.text() | st.integers() | st.booleans(),
                                max_size=3), max_size=8))
def test_write_rows_reads_back_one_row_per_line(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "rows.jsonl"
    write_rows(path, iter(rows))
    text = path.read_bytes().decode("ascii")
    assert text == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert [(n, json.loads(line)) for n, line in read_rows(path)] == list(enumerate(rows, 1))
