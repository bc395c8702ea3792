"""Every Record subclass against the layout rules in `evote.canonical`.

The classes come from `Record.__subclasses__()`, so a new record is covered
without editing this file.  Instances are generated from the annotations.
`_Layout` re-derives a record's bytes from the layout rules, independently
of the encoder, and can give one int a leading zero byte or write one flag
as 2 on the way.

A record keeps its bytes after the first `to_bytes()`, and a decoded record
keeps the slice it was read from; the tests below check that what is kept
is what the layout gives, that a replaced record does not inherit it, that
a tally computes no record's bytes twice and a verify of a loaded board
none.  One `from_bytes` call decodes each distinct nested blob once and
shares its record; the last tests check the memo's scope.
"""

from collections import Counter
from dataclasses import fields, replace
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evote  # noqa: F401  (defines every record)
from evote import canonical
from evote.ballot import compose_ballot, encode_choice
from evote.bulletin import KIND_MIX_STAGE, Board, LoginPayload, MixStagePayload, universal_verify
from evote.canonical import Record, derive_rng, enc_bytes, enc_int
from evote.groups import TEST_GROUP, Ciphertext, GroupParams
from evote.mixnet import MixBatch
from evote.tally import Election, ElectionConfig


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(set(_subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))
# Examples per record class and property: 25 in tier-1, and a quarter of
# the loaded profile's count where that is more (250 under the ci profile).
_EXAMPLES = max(25, settings().max_examples // 4)


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
@settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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


def _immutable(tp) -> bool:
    """The annotation admits only values that never change: an int, bool,
    bytes or str, a tuple of such values, a record, or an optional record."""
    if tp in (int, bool, bytes, str):
        return True
    if get_origin(tp) is tuple:
        args = get_args(tp)
        return len(args) == 2 and args[1] is Ellipsis and _immutable(args[0])
    inner = _optional_inner(tp)
    if inner is not None:
        tp = inner
    return isinstance(tp, type) and issubclass(tp, Record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_record_is_frozen_with_immutable_fields(cls):
    # What makes keeping a record's bytes sound.
    assert cls.__dataclass_params__.frozen
    hints = get_type_hints(cls)
    assert [f.name for f in fields(cls) if not _immutable(hints[f.name])] == []


def test_the_immutability_check_sees_a_mutable_field():
    assert not _immutable(list[int])
    assert not _immutable(dict[str, int])
    assert not _immutable(tuple[int, int])
    assert not _immutable(tuple[list, ...])
    assert not _immutable(object)
    assert _immutable(tuple[tuple[Ciphertext, ...], ...])
    assert _immutable(Ciphertext | None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_bytes_are_kept_once_and_replace_starts_afresh(cls, data):
    x = data.draw(_strategy(cls))
    raw = x.to_bytes()  # what the layout gives: see the round-trip test
    assert x.to_bytes() is raw
    decoded = cls.from_bytes(raw)
    assert decoded == x and hash(decoded) == hash(x)  # the kept bytes are not compared
    assert decoded.to_bytes() == raw
    other = data.draw(_strategy(cls), label="other")
    # A validated record's fields constrain each other, so it takes all of
    # the other's; any other record takes one.
    names = [f.name for f in fields(cls)]
    if cls not in _VALIDATED:
        names = [data.draw(st.sampled_from(names), label="field")]
    changed = replace(x, **{name: getattr(other, name) for name in names})
    assert changed.to_bytes() == _Layout().record(changed)
    assert (changed.to_bytes() == raw) == (changed == x)
    assert x.to_bytes() is raw


def _closed_election():
    config = ElectionConfig(candidates=["a", "b", "c"], proof_rounds=4)
    election, creds = Election.setup(config, ["v1", "v2", "v3"], seed=5)
    for when, (voter, choice) in enumerate([("v1", 0), ("v2", 2), ("v1", 1), ("v3", 2)]):
        ballot = compose_ballot(
            election.params,
            creds[voter],
            election.election_key.h,
            encode_choice(choice, len(config.candidates)),
            timestamp=when,
            rng=derive_rng("records", voter, when),
        )
        election.cast(ballot, now=when)
    election.close_election()
    return election, config


@pytest.fixture(scope="module")
def tallied():
    election, config = _closed_election()
    election.run_tally()
    return election, config


def _count_encodings(monkeypatch) -> list:
    """From now on, every record whose bytes are computed, once for each
    time; the list keeps each record alive, so ids stay unique."""
    codec = canonical._codec
    encoded = []

    def counting_codec(cls):
        values, decode = codec(cls)

        def counted(record):
            encoded.append(record)
            return values(record)

        return counted, decode

    monkeypatch.setattr(canonical, "_codec", counting_codec)
    return encoded


def test_one_tally_computes_each_record_s_bytes_once(monkeypatch):
    election, _ = _closed_election()
    encoded = _count_encodings(monkeypatch)
    assert election.run_tally().revoked_count == 1
    assert encoded
    times = Counter(id(r) for r in encoded)
    twice = Counter(type(r).__name__ for r in encoded if times[id(r)] > 1)
    assert twice == Counter()


def test_one_verify_of_a_saved_board_computes_no_record_s_bytes(tallied, tmp_path, monkeypatch):
    election, config = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    board = Board.load(path)
    encoded = _count_encodings(monkeypatch)
    report = universal_verify(
        election.params, board, config, election.election_key.h, election.commitments
    )
    assert report.overall, report.failures
    assert Counter(type(r).__name__ for r in encoded) == Counter()


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=lambda w: w.__name__)
def test_decoding_a_mutable_buffer_gives_bytes(wrap):
    raw = LoginPayload(b"\x01" * 32).to_bytes()
    login = LoginPayload.from_bytes(wrap(raw))
    assert type(login.voter_digest) is bytes
    assert hash(login) == hash(LoginPayload(b"\x01" * 32))
    assert type(login.to_bytes()) is bytes and login.to_bytes() == raw


def _records_in(value):
    """Every record in a field value, at any depth, once per occurrence."""
    if isinstance(value, Record):
        yield value
        for f in fields(value):
            yield from _records_in(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _records_in(item)


def test_decoding_a_mix_stage_decodes_each_distinct_blob_once(tallied, monkeypatch):
    election, _ = tallied
    raw = election.board.find(KIND_MIX_STAGE)[0].payload
    built = Counter()  # a decoder call builds one record: count constructions
    for cls in RECORDS:
        init = cls.__init__

        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built[_cls.__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    staged = MixStagePayload.from_bytes(raw)
    monkeypatch.undo()

    nested = list(_records_in(staged))[1:]
    distinct = {(type(r).__name__, r.to_bytes()) for r in nested}
    assert len(distinct) < len(nested)  # links and ciphertexts repeat
    assert built == Counter(name for name, _ in distinct) + Counter(["MixStagePayload"])


def test_no_record_is_shared_between_two_decodes(tallied):
    election, _ = tallied
    raw = election.board.find(KIND_MIX_STAGE)[0].payload
    first, second = MixStagePayload.from_bytes(raw), MixStagePayload.from_bytes(raw)
    assert first == second
    assert {id(r) for r in _records_in(first)}.isdisjoint(id(r) for r in _records_in(second))


def test_a_repeated_blob_is_shared_and_a_bad_copy_still_rejected():
    ct = Ciphertext(c1=5, c2=300)
    good = enc_int(1) + enc_bytes(ct.to_bytes())
    padded = enc_int(1) + enc_bytes(_Layout(pad=1).record(ct))  # c2 gets a leading zero
    batch = MixBatch.from_bytes(enc_int(2) + good + good)
    assert batch.items[0][0] is batch.items[1][0]
    for items in (good + padded, padded + good):
        with pytest.raises(ValueError):
            MixBatch.from_bytes(enc_int(2) + items)
