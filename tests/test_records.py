"""Every Record subclass against the layout rules in `evote.canonical`.

The classes come from `Record.__subclasses__()`, so a new record is covered
without editing this file.  Instances are generated from the annotations.
`_Layout` re-derives a record's bytes from the layout rules, independently
of the encoder, and can give one int a leading zero byte or write one flag
as 2 on the way.
"""

from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evote  # noqa: F401  (defines every record)
from evote.canonical import Record
from evote.groups import TEST_GROUP, Ciphertext, GroupParams
from evote.mixnet import MixBatch


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(set(_subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))


def _optional_inner(tp):
    args = get_args(tp)
    if len(args) == 2 and type(None) in args:
        return next(a for a in args if a is not type(None))
    return None


def _strategy(tp):
    if tp is bool:
        return st.booleans()
    if tp is int:
        return st.integers(min_value=0, max_value=2**130)
    if tp is bytes:
        return st.binary(max_size=8)
    if tp is str:
        return st.text(max_size=4)
    if get_origin(tp) is tuple:
        return st.lists(_strategy(get_args(tp)[0]), max_size=2).map(tuple)
    inner = _optional_inner(tp)
    if inner is not None:
        return st.none() | _strategy(inner)
    if tp in _VALIDATED:
        return _VALIDATED[tp]()
    hints = get_type_hints(tp)
    return st.builds(tp, *(_strategy(hints[f.name]) for f in fields(tp)))


def _mix_batch():
    # Every item has the same slot count.
    def items(width):
        item = st.lists(_strategy(Ciphertext), min_size=width, max_size=width).map(tuple)
        return st.lists(item, max_size=2).map(tuple)

    return st.integers(min_value=0, max_value=2).flatmap(items).map(MixBatch)


# Records whose constructor rejects most values get their own strategy.
_VALIDATED = {
    GroupParams: lambda: st.sampled_from([TEST_GROUP, GroupParams(p=47, q=23, g=2)]),
    MixBatch: _mix_batch,
}


class _Layout:
    """A record's bytes by the layout rules.  Int number `pad` (in encoding
    order, counts included) gets a leading zero byte; flag number `flag` is
    written as 2."""

    def __init__(self, pad=None, flag=None):
        self.pad, self.flag = pad, flag
        self.ints = self.flags = 0

    @staticmethod
    def item(body):
        return len(body).to_bytes(4, "big") + body

    def int(self, n):
        body = n.to_bytes((n.bit_length() + 7) // 8, "big")
        if self.ints == self.pad:
            body = b"\x00" + body
        self.ints += 1
        return self.item(body)

    def field(self, value, tp):
        if tp is bool:
            n = 2 if self.flags == self.flag else int(value)
            self.flags += 1
            return self.int(n)
        if tp is int:
            return self.int(value)
        if tp is bytes:
            return self.item(value)
        if tp is str:
            return self.item(value.encode("utf-8"))
        if get_origin(tp) is tuple:
            item_tp = get_args(tp)[0]
            return self.int(len(value)) + b"".join(self.field(v, item_tp) for v in value)
        if value is None:
            return self.item(b"")
        return self.item(self.record(value))

    def record(self, rec):
        hints = get_type_hints(type(rec))
        return b"".join(self.field(getattr(rec, f.name), hints[f.name]) for f in fields(rec))


def test_every_record_class_is_collected():
    names = {c.__name__ for c in RECORDS}
    assert {"Ciphertext", "MixStage", "Block", "BallotCastPayload", "ResultPayload"} <= names
    assert len(RECORDS) >= 22


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_round_trip_and_strict_decoding(cls, data):
    x = data.draw(_strategy(cls))
    raw = x.to_bytes()
    layout = _Layout()
    assert layout.record(x) == raw
    assert cls.from_bytes(raw) == x
    with pytest.raises(ValueError):
        cls.from_bytes(raw + b"\x00")
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
    with pytest.raises(ValueError):
        cls.from_bytes(raw[:cut])
    if layout.ints:
        pad = data.draw(st.integers(min_value=0, max_value=layout.ints - 1), label="pad")
        with pytest.raises(ValueError):
            cls.from_bytes(_Layout(pad=pad).record(x))
    if layout.flags:
        flag = data.draw(st.integers(min_value=0, max_value=layout.flags - 1), label="flag")
        with pytest.raises(ValueError):
            cls.from_bytes(_Layout(flag=flag).record(x))
