"""Ballot encoding, the double envelope, re-vote filtering and receipts.

A ballot is a unit bit-vector over the candidate list, encrypted slotwise
under the election key, proven well-formed, then signed by the voter with
a timestamp.  Re-votes are resolved by keeping the latest ballot per voter;
receipts confirm inclusion for a limited logical-time window.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .canonical import Reader, digest, encode
from .errors import IndexOutOfRange, MalformedChoice
from .groups import Ciphertext, GroupParams, encrypt, rand_scalar
from .registry import (
    Registry,
    Signature,
    VoterCredential,
    is_eligible,
    sign,
    verify_key_of,
    verify_sig,
)
from .zkp import WellformedProof, prove_wellformed, verify_wellformed

DEFAULT_RECEIPT_TTL = 30  # logical minutes

_KIND_BALLOT_CAST = "BallotCast"


@dataclass(frozen=True)
class ChoiceVector:
    bits: tuple[int, ...]

    def is_unit_vector(self) -> bool:
        return all(b in (0, 1) for b in self.bits) and sum(self.bits) == 1


def encode_choice(candidate_index: int, n_candidates: int) -> ChoiceVector:
    """Unit vector with a 1 at the chosen candidate's position."""
    if n_candidates < 1:
        raise IndexOutOfRange("need at least one candidate")
    if not 0 <= candidate_index < n_candidates:
        raise IndexOutOfRange(f"candidate {candidate_index} of {n_candidates}")
    bits = tuple(1 if i == candidate_index else 0 for i in range(n_candidates))
    return ChoiceVector(bits=bits)


@dataclass(frozen=True)
class EncryptedBallot:
    slots: tuple[Ciphertext, ...]
    wellformed: WellformedProof

    def to_bytes(self) -> bytes:
        return encode([ct.to_bytes() for ct in self.slots], self.wellformed.to_bytes())


@dataclass(frozen=True)
class SignedBallot:
    """Double envelope: encrypted ballot inside, voter signature outside."""

    voter_id: str
    encrypted: EncryptedBallot
    timestamp: int
    signature: Signature

    def signed_message(self) -> bytes:
        return encode(self.encrypted.to_bytes(), self.timestamp)

    def to_bytes(self) -> bytes:
        return encode(
            self.voter_id,
            self.encrypted.to_bytes(),
            self.timestamp,
            self.signature.to_bytes(),
        )

    def digest(self) -> bytes:
        return digest(self.to_bytes())


def compose_ballot(
    params: GroupParams,
    credential: VoterCredential,
    election_pk: int,
    choice: ChoiceVector,
    timestamp: int,
    rng: random.Random,
) -> SignedBallot:
    """Encrypt each slot with fresh randomness, prove well-formedness, sign."""
    if not choice.is_unit_vector():
        raise MalformedChoice(f"not a unit vector: {choice.bits}")
    randomness = [rand_scalar(params, rng, nonzero=True) for _ in choice.bits]
    slots = tuple(
        encrypt(params, election_pk, bit, r) for bit, r in zip(choice.bits, randomness)
    )
    choice_index = choice.bits.index(1)
    proof = prove_wellformed(params, election_pk, list(slots), randomness, choice_index)
    encrypted = EncryptedBallot(slots=slots, wellformed=proof)
    message = encode(encrypted.to_bytes(), timestamp)
    signature = sign(params, credential.signing_key, message)
    return SignedBallot(
        voter_id=credential.voter_id,
        encrypted=encrypted,
        timestamp=timestamp,
        signature=signature,
    )


def verify_ballot(
    params: GroupParams, sb: SignedBallot, registry: Registry, election_pk: int
) -> bool:
    """Eligibility, outer signature, inner well-formedness; false rejects."""
    if not is_eligible(registry, sb.voter_id):
        return False
    vk = verify_key_of(registry, sb.voter_id)
    if not verify_sig(params, vk, sb.signed_message(), sb.signature):
        return False
    return verify_wellformed(
        params, election_pk, list(sb.encrypted.slots), sb.encrypted.wellformed
    )


def filter_latest(ballots: list[SignedBallot]) -> tuple[list[SignedBallot], int]:
    """Keep one ballot per voter: maximal (timestamp, ingestion sequence).

    Input order is ingestion order, which breaks timestamp ties.  Kept
    ballots come back in their original ingestion order.
    """
    best: dict[str, int] = {}
    for seq, sb in enumerate(ballots):
        current = best.get(sb.voter_id)
        if current is None or (sb.timestamp, seq) > (ballots[current].timestamp, current):
            best[sb.voter_id] = seq
    kept_seqs = sorted(best.values())
    kept = [ballots[i] for i in kept_seqs]
    return kept, len(ballots) - len(kept)


@dataclass(frozen=True)
class Receipt:
    ballot_digest: bytes
    issued_at: int
    ttl: int

    @property
    def expiry(self) -> int:
        return self.issued_at + self.ttl


class ReceiptStatus(enum.Enum):
    CONFIRMED = "Confirmed"
    EXPIRED = "Expired"
    NOT_FOUND = "NotFound"


def issue_receipt(sb: SignedBallot, now: int, ttl: int = DEFAULT_RECEIPT_TTL) -> Receipt:
    return Receipt(ballot_digest=sb.digest(), issued_at=now, ttl=ttl)


def check_receipt(receipt: Receipt, board, now: int) -> ReceiptStatus:
    """Confirmed while now < expiry and the digest is on the board.

    `board` only needs to expose `.entries` with `.kind` and `.payload`;
    ballot-cast payloads start with the ballot digest.
    """
    present = False
    for entry in board.entries:
        if entry.kind != _KIND_BALLOT_CAST:
            continue
        r = Reader(entry.payload)
        if r.read_bytes() == receipt.ballot_digest:
            present = True
            break
    if not present:
        return ReceiptStatus.NOT_FOUND
    if now >= receipt.expiry:
        return ReceiptStatus.EXPIRED
    return ReceiptStatus.CONFIRMED


def validate_decrypted(exponents: list[int], n_candidates: int) -> bool:
    """A decrypted ballot is valid iff it has one slot per candidate, each
    slot is 0/1 and exactly one is 1."""
    return (
        len(exponents) == n_candidates
        and all(e in (0, 1) for e in exponents)
        and sum(exponents) == 1
    )


def ballot_cast_payload(sb: SignedBallot) -> bytes:
    """Published form of a cast ballot: digest, slots and proof only.

    Voter id and timestamp stay out of the public record.
    """
    return encode(
        sb.digest(),
        [ct.to_bytes() for ct in sb.encrypted.slots],
        sb.encrypted.wellformed.to_bytes(),
    )


def parse_ballot_cast(payload: bytes) -> tuple[bytes, list[Ciphertext], WellformedProof]:
    r = Reader(payload)
    ballot_digest = r.read_bytes()
    n = r.read_int()
    slots = []
    for _ in range(n):
        sr = Reader(r.read_bytes())
        slots.append(Ciphertext.read_from(sr))
        sr.expect_end()
    proof = WellformedProof.from_bytes(r.read_bytes())
    r.expect_end()
    return ballot_digest, slots, proof
