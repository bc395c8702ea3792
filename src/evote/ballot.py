"""Ballot encoding, the double envelope, re-vote filtering, receipts and
the counting rule.

A ballot is a unit bit-vector over the candidate list, encrypted slotwise
under the election key, proven well-formed, then signed by the voter with
a timestamp.  Re-votes are resolved by keeping the latest ballot per voter;
receipts confirm inclusion for a limited logical-time window.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .canonical import Record, encode
from .errors import IndexOutOfRange, MalformedChoice
from .groups import Ciphertext, GroupParams, encrypt, fan_out, rand_scalar
from .registry import (
    Registry,
    Signature,
    VoterCredential,
    is_eligible,
    sig_statement,
    sign,
    verify_key_of,
)
from .zkp import WellformedProof, holds, prove_wellformed, wellformed_statements

DEFAULT_RECEIPT_TTL = 30  # logical minutes


@dataclass(frozen=True)
class ChoiceVector:
    bits: tuple[int, ...]

    def is_unit_vector(self) -> bool:
        return validate_decrypted(self.bits, len(self.bits))


def encode_choice(candidate_index: int, n_candidates: int) -> ChoiceVector:
    """Unit vector with a 1 at the chosen candidate's position."""
    if n_candidates < 1:
        raise IndexOutOfRange("need at least one candidate")
    if not 0 <= candidate_index < n_candidates:
        raise IndexOutOfRange(f"candidate {candidate_index} of {n_candidates}")
    bits = tuple(1 if i == candidate_index else 0 for i in range(n_candidates))
    return ChoiceVector(bits=bits)


@dataclass(frozen=True)
class EncryptedBallot(Record):
    slots: tuple[Ciphertext, ...]
    wellformed: WellformedProof


@dataclass(frozen=True)
class SignedBallot(Record):
    """Double envelope: encrypted ballot inside, voter signature outside."""

    voter_id: str
    encrypted: EncryptedBallot
    timestamp: int
    signature: Signature

    def signed_message(self) -> bytes:
        return encode(self.encrypted, self.timestamp)

    def published(self) -> "BallotCastPayload":
        """Public form of a cast ballot: digest, slots and proof only.

        Voter id and timestamp stay out of the public record.
        """
        return BallotCastPayload(self.digest(), self.encrypted.slots, self.encrypted.wellformed)


@dataclass(frozen=True)
class BallotCastPayload(Record):
    ballot_digest: bytes
    slots: tuple[Ciphertext, ...]
    wellformed: WellformedProof


def compose_ballot(
    params: GroupParams,
    credential: VoterCredential,
    election_pk: int,
    choice: ChoiceVector,
    timestamp: int,
    rng: random.Random,
) -> SignedBallot:
    """Encrypt each slot with fresh randomness, prove well-formedness, sign.

    The randomness is drawn first, slot by slot.  Each slot's encryption is
    then one job for `groups.fan_out`, which shares them out across the
    CPUs on prod3072, as `prove_wellformed` does each slot's proof; the
    parent builds g's and the election key's comb tables first, so that no
    child builds its own.  The bytes are the same on one CPU and on many."""
    if not choice.is_unit_vector():
        raise MalformedChoice(f"not a unit vector: {choice.bits}")
    randomness = [rand_scalar(params, rng) for _ in choice.bits]
    params.warm(params.g, election_pk)
    jobs = [(params, election_pk, bit, r) for bit, r in zip(choice.bits, randomness)]
    slots = tuple(fan_out(params, encrypt, jobs))
    choice_index = choice.bits.index(1)
    proof = prove_wellformed(params, election_pk, list(slots), randomness, choice_index)
    encrypted = EncryptedBallot(slots=slots, wellformed=proof)
    signature = sign(params, credential.signing_key, encode(encrypted, timestamp))
    return SignedBallot(
        voter_id=credential.voter_id,
        encrypted=encrypted,
        timestamp=timestamp,
        signature=signature,
    )


def verify_ballot(
    params: GroupParams, sb: SignedBallot, registry: Registry, election_pk: int
) -> bool:
    """Eligibility, outer signature, inner well-formedness; false rejects.
    The signature's statement and the proof's `wellformed_statements` go to
    `holds` as one list, so on a group that batches a cast is checked in
    one batch; this is the one check of a ballot proof at cast time."""
    if not is_eligible(registry, sb.voter_id):
        return False
    vk = verify_key_of(registry, sb.voter_id)
    signature = sig_statement(params, vk, sb.signed_message(), sb.signature)
    statements = wellformed_statements(
        params, election_pk, sb.encrypted.slots, sb.encrypted.wellformed
    )
    return all(holds(params, [signature, *statements]))


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


def validate_decrypted(exponents: list[int], n_candidates: int) -> bool:
    """A decrypted ballot is valid iff it has one slot per candidate, each
    slot is 0/1 and exactly one is 1."""
    return (
        len(exponents) == n_candidates
        and all(e in (0, 1) for e in exponents)
        and sum(exponents) == 1
    )


@dataclass(frozen=True)
class CoercionVerdict:
    revoked_fraction: float
    threshold: float
    flagged: bool


def coercion_evidence(revoked_count: int, kept_count: int, threshold: float) -> CoercionVerdict:
    """Flag when revoked/(revoked+kept) strictly exceeds the threshold.

    Exact rational comparison with the threshold as written (`str`, as
    `params.json` publishes it), so a fraction equal to it does not flag.
    Zero total ballots count as fraction 0.
    """
    if revoked_count < 0 or kept_count < 0:
        raise ValueError("counts must be non-negative")
    total = revoked_count + kept_count
    fraction = Fraction(revoked_count, total) if total else Fraction(0)
    flagged = fraction > Fraction(str(threshold))
    return CoercionVerdict(
        revoked_fraction=float(fraction), threshold=threshold, flagged=flagged
    )


@dataclass(frozen=True)
class ResultPayload(Record):
    counts: tuple[int, ...]
    invalid_count: int
    revoked_count: int
    kept_count: int
    cast_count: int
    flagged: bool


def count_result(
    exponent_vectors: list[tuple[int, ...]],
    n_candidates: int,
    cast_count: int,
    kept_count: int,
    threshold: float,
) -> tuple[ResultPayload, CoercionVerdict]:
    """The published result: per-candidate sums over the valid decrypted
    ballots, the number of invalid ones, and the re-vote bookkeeping with its
    coercion flag; and the coercion verdict that the flag comes from.  Raises
    ValueError when more ballots are kept than cast."""
    counts = [0] * n_candidates
    invalid_count = 0
    for exponents in exponent_vectors:
        if validate_decrypted(exponents, n_candidates):
            for c, e_val in enumerate(exponents):
                counts[c] += e_val
        else:
            invalid_count += 1
    revoked_count = cast_count - kept_count
    verdict = coercion_evidence(revoked_count, kept_count, threshold)
    payload = ResultPayload(
        tuple(counts), invalid_count, revoked_count, kept_count, cast_count, verdict.flagged
    )
    return payload, verdict
