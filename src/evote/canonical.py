"""Canonical byte encoding shared by everything that hashes or signs.

Every value that ends up inside a digest, a signature, or a Fiat-Shamir
challenge is serialized here: fields in declaration order, each item as a
4-byte big-endian length prefix followed by minimal big-endian magnitude
bytes (zero encodes as the empty string).  Decoders reject trailing bytes.
"""

from __future__ import annotations

import hashlib
import random

_LEN_BYTES = 4


def enc_int(n: int) -> bytes:
    """Length-prefixed minimal big-endian magnitude of a non-negative int."""
    if n < 0:
        raise ValueError("canonical encoding covers non-negative integers only")
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return len(body).to_bytes(_LEN_BYTES, "big") + body


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(_LEN_BYTES, "big") + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def encode(*fields) -> bytes:
    """Concatenate the canonical encodings of ints, bytes, strings and
    (possibly nested) sequences.  Sequences encode their length first."""
    out = bytearray()
    for f in fields:
        if isinstance(f, bool):
            out += enc_int(int(f))
        elif isinstance(f, int):
            out += enc_int(f)
        elif isinstance(f, bytes):
            out += enc_bytes(f)
        elif isinstance(f, str):
            out += enc_str(f)
        elif isinstance(f, (list, tuple)):
            out += enc_int(len(f))
            out += encode(*f)
        else:
            raise TypeError(f"cannot canonically encode {type(f).__name__}")
    return bytes(out)


def digest(*fields) -> bytes:
    """sha256 over the canonical encoding of the fields."""
    return hashlib.sha256(encode(*fields)).digest()


def hexdigest(*fields) -> str:
    return digest(*fields).hex()


class Reader:
    """Sequential decoder for canonical bytes.

    Callers know the schema; the reader only enforces framing and the
    no-trailing-bytes rule.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read_bytes(self) -> bytes:
        if self._pos + _LEN_BYTES > len(self._data):
            raise ValueError("truncated canonical data")
        n = int.from_bytes(self._data[self._pos : self._pos + _LEN_BYTES], "big")
        self._pos += _LEN_BYTES
        if self._pos + n > len(self._data):
            raise ValueError("truncated canonical data")
        body = self._data[self._pos : self._pos + n]
        self._pos += n
        return body

    def read_int(self) -> int:
        return int.from_bytes(self.read_bytes(), "big")

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def read_bool(self) -> bool:
        """Strict flag: only the encodings of 0 and 1 are accepted."""
        body = self.read_bytes()
        if body not in (b"", b"\x01"):
            raise ValueError("flag is not 0 or 1")
        return body == b"\x01"

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.done():
            raise ValueError("trailing bytes after canonical record")


def derive_rng(*labels) -> random.Random:
    """Deterministic RNG derived from a master seed plus context labels.

    All nondeterminism in the library flows through instances created here,
    so a run is a pure function of its (config, scenario, seed) inputs.
    """
    return random.Random(digest("evote/rng", *labels))
