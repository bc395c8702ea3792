import pytest

from evote.ballot import (
    ChoiceVector,
    ReceiptStatus,
    check_receipt,
    compose_ballot,
    encode_choice,
    filter_latest,
    issue_receipt,
    parse_ballot_cast,
    validate_decrypted,
    verify_ballot,
)
from evote.canonical import derive_rng
from evote.errors import IndexOutOfRange, MalformedChoice
from evote.groups import threshold_keygen
from evote.registry import Registry, enroll_voter, revoke_eligibility


@pytest.fixture
def setup(grp):
    registry = Registry(grp)
    cred = enroll_voter(registry, "alice", derive_rng("bal", "alice"))
    ek, _shares = threshold_keygen(grp, 3, derive_rng("bal", "keys"))
    return registry, cred, ek


def _ballot(grp, cred, ek, choice_idx=1, n=3, timestamp=5, nonce=0):
    return compose_ballot(
        grp,
        cred,
        ek.h,
        encode_choice(choice_idx, n),
        timestamp=timestamp,
        rng=derive_rng("bal", "compose", cred.voter_id, timestamp, nonce),
    )


# --- choice encoding ---

def test_encode_choice_produces_unit_vector():
    assert encode_choice(1, 3).bits == (0, 1, 0)
    assert encode_choice(0, 1).bits == (1,)
    assert encode_choice(4, 5).bits == (0, 0, 0, 0, 1)


def test_encode_choice_bounds_checked():
    with pytest.raises(IndexOutOfRange):
        encode_choice(3, 3)
    with pytest.raises(IndexOutOfRange):
        encode_choice(-1, 3)


def test_unit_vector_predicate():
    assert ChoiceVector((0, 1, 0)).is_unit_vector()
    assert not ChoiceVector((1, 1, 0)).is_unit_vector()
    assert not ChoiceVector((0, 0, 0)).is_unit_vector()
    assert not ChoiceVector((0, 2, 0)).is_unit_vector()


# --- composition and verification ---

def test_composed_ballot_verifies(grp, setup):
    registry, cred, ek = setup
    sb = _ballot(grp, cred, ek)
    assert verify_ballot(grp, sb, registry, ek.h)


def test_malformed_choice_rejected_at_composition(grp, setup):
    _, cred, ek = setup
    with pytest.raises(MalformedChoice):
        compose_ballot(
            grp, cred, ek.h, ChoiceVector((1, 1, 0)), timestamp=1,
            rng=derive_rng("bad"),
        )


def test_unknown_voter_rejected(grp, setup):
    registry, cred, ek = setup
    other = Registry(grp)
    stranger = enroll_voter(other, "mallory", derive_rng("bal", "mallory"))
    sb = _ballot(grp, stranger, ek)
    assert not verify_ballot(grp, sb, registry, ek.h)


def test_revoked_voter_rejected(grp, setup):
    registry, cred, ek = setup
    sb = _ballot(grp, cred, ek)
    revoke_eligibility(registry, "alice")
    assert not verify_ballot(grp, sb, registry, ek.h)


def test_tampered_timestamp_breaks_signature(grp, setup):
    import dataclasses

    registry, cred, ek = setup
    sb = _ballot(grp, cred, ek)
    forged = dataclasses.replace(sb, timestamp=sb.timestamp + 1)
    assert not verify_ballot(grp, forged, registry, ek.h)


def test_swapped_ciphertext_breaks_signature(grp, setup):
    import dataclasses

    registry, cred, ek = setup
    sb = _ballot(grp, cred, ek)
    other = _ballot(grp, cred, ek, choice_idx=2, nonce=1)
    forged = dataclasses.replace(sb, encrypted=other.encrypted)
    assert not verify_ballot(grp, forged, registry, ek.h)


def test_ballot_digest_distinct_per_composition(grp, setup):
    _, cred, ek = setup
    a = _ballot(grp, cred, ek, nonce=0)
    b = _ballot(grp, cred, ek, nonce=1)
    assert a.digest() != b.digest()


def test_cast_payload_round_trip(grp, setup):
    from evote.ballot import ballot_cast_payload

    _, cred, ek = setup
    sb = _ballot(grp, cred, ek)
    digest, slots, proof = parse_ballot_cast(ballot_cast_payload(sb))
    assert digest == sb.digest()
    assert slots == list(sb.encrypted.slots)
    assert proof == sb.encrypted.wellformed


# --- re-vote filtering ---

def test_filter_latest_keeps_newest_per_voter(grp, setup):
    _, cred, ek = setup
    first = _ballot(grp, cred, ek, timestamp=1)
    second = _ballot(grp, cred, ek, timestamp=9)
    kept, revoked = filter_latest([first, second])
    assert kept == [second]
    assert revoked == 1


def test_filter_latest_tie_breaks_by_ingestion_order(grp, setup):
    _, cred, ek = setup
    first = _ballot(grp, cred, ek, timestamp=5, nonce=0)
    second = _ballot(grp, cred, ek, timestamp=5, nonce=1)
    kept, revoked = filter_latest([first, second])
    assert kept == [second]
    assert revoked == 1


def test_filter_latest_brute_force_oracle():
    """Randomized cross-check against sort-and-deduplicate."""
    import random

    class FakeBallot:
        def __init__(self, voter_id, timestamp):
            self.voter_id = voter_id
            self.timestamp = timestamp

        def __repr__(self):
            return f"FB({self.voter_id},{self.timestamp})"

    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randrange(0, 12)
        ballots = [
            FakeBallot(f"v{rng.randrange(4)}", rng.randrange(5)) for _ in range(n)
        ]
        kept, revoked = filter_latest(ballots)

        # oracle: stable sort by (timestamp, index), keep last per voter
        indexed = list(enumerate(ballots))
        best = {}
        for i, b in sorted(indexed, key=lambda ib: (ib[1].timestamp, ib[0])):
            best[b.voter_id] = i
        expect = [ballots[i] for i in sorted(best.values())]

        assert kept == expect
        assert revoked == n - len(expect)
        assert len({b.voter_id for b in kept}) == len(kept)


# --- receipts ---

def test_receipt_lifecycle(grp, setup):
    from evote.ballot import ballot_cast_payload
    from evote.bulletin import Board

    registry, cred, ek = setup

    sb = _ballot(grp, cred, ek, timestamp=10)
    board = Board()
    board.append("BallotCast", ballot_cast_payload(sb))
    receipt = issue_receipt(sb, now=10, ttl=30)

    assert check_receipt(receipt, board, now=10) is ReceiptStatus.CONFIRMED
    assert check_receipt(receipt, board, now=39) is ReceiptStatus.CONFIRMED
    assert check_receipt(receipt, board, now=40) is ReceiptStatus.EXPIRED
    assert check_receipt(receipt, board, now=500) is ReceiptStatus.EXPIRED

    foreign = issue_receipt(_ballot(grp, cred, ek, nonce=7), now=10)
    assert check_receipt(foreign, board, now=10) is ReceiptStatus.NOT_FOUND


# --- decrypted content validation ---

@pytest.mark.parametrize(
    "exponents,ok",
    [
        ([0, 1, 0], True),
        ([1], True),
        ([1, 1, 0], False),
        ([0, 0, 0], False),
        ([2, 0, 0], False),
        ([0, -1, 2], False),
    ],
)
def test_validate_decrypted(exponents, ok):
    assert validate_decrypted(exponents, len(exponents)) is ok


def test_validate_decrypted_needs_one_slot_per_candidate():
    assert validate_decrypted([0, 1, 0], 3)
    assert not validate_decrypted([0, 1], 3)
    assert not validate_decrypted([0, 1, 0, 0], 3)
