import pytest
from hypothesis import given
from hypothesis import strategies as st

from evote.canonical import Reader, derive_rng, digest, encode, hexdigest


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
    r = Reader(encode(n))
    assert r.read_int() == n
    r.expect_end()


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**64), st.text(max_size=20))
def test_mixed_round_trip(b, n, s):
    r = Reader(encode(b, n, s))
    assert r.read_bytes() == b
    assert r.read_int() == n
    assert r.read_str() == s
    r.expect_end()


def test_trailing_bytes_rejected():
    r = Reader(encode(5) + b"\x00")
    r.read_int()
    with pytest.raises(ValueError):
        r.expect_end()


def test_truncated_input_rejected():
    data = encode(b"abcdef")
    with pytest.raises(ValueError):
        Reader(data[:-2]).read_bytes()


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
    r = Reader(encode(flag))
    assert r.read_bool() is flag
    r.expect_end()


@pytest.mark.parametrize("data", [encode(2), encode(256), b"\x00\x00\x00\x02\x00\x01"])
def test_flag_other_than_canonical_0_or_1_rejected(data):
    with pytest.raises(ValueError):
        Reader(data).read_bool()


@pytest.mark.parametrize(
    "data",
    [bytes.fromhex("00000001" "00"), bytes.fromhex("00000002" "0001"), bytes.fromhex("00000003" "000100")],
    ids=bytes.hex,
)
def test_int_with_leading_zero_byte_rejected(data):
    with pytest.raises(ValueError):
        Reader(data).read_int()
