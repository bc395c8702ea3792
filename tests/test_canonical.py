import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evote.canonical import Record, derive_rng, digest, encode, hexdigest


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
