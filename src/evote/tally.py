"""Election lifecycle and the tallying pipeline.

The election state machine (Open -> Closed -> Tallied) gates every
decryption-capable operation behind close_election.  Tallying filters
re-votes, judges coercion evidence, anonymizes through the mix-net,
threshold-decrypts each ballot with proofs, validates contents, counts,
and publishes everything on the bulletin board.  A homomorphic aggregate
recount cross-checks the per-ballot count.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import asdict, dataclass, field
from typing import Annotated

from . import bulletin
from .ballot import (
    DEFAULT_RECEIPT_TTL,
    CoercionVerdict,
    Receipt,
    SignedBallot,
    count_result,
    filter_latest,
    issue_receipt,
    validate_decrypted,
    verify_ballot,
)
from .bulletin import Board
from .canonical import Check, Config, at_least, between, derive_rng, digest
from .errors import AlreadyClosed, FairnessViolation, MixRejected
from .groups import (
    Ciphertext,
    ElectionKey,
    GROUP_PROFILES,
    GroupName,
    GroupParams,
    TrusteeKeyShare,
    combine,
    fan_out,
    partial_decrypt,
    settle,
    threshold_decrypt,
    threshold_keygen,
)
from .mixnet import MixBatch, run_mixnet, strip_signatures, verify_mix
from .registry import Registry, VoterCredential, enroll_voters


# result.json keys the counts by candidate name, so the names differ.
_Name = Annotated[str, Check(len, "a non-empty string")]
_Names = Annotated[
    list[_Name],
    Check(lambda names: 0 < len(names) == len(set(names)), "a non-empty list of distinct names"),
]


@dataclass(frozen=True)
class ElectionConfig(Config):
    candidates: _Names
    trustee_count: Annotated[int, at_least(1)] = 3
    mix_server_count: Annotated[int, at_least(1)] = 3
    proof_rounds: Annotated[int, at_least(1)] = 20
    coercion_threshold: Annotated[float, between(0, 1)] = 0.05
    receipt_ttl: Annotated[int, at_least(0)] = DEFAULT_RECEIPT_TTL
    group: GroupName = "test"

    @property
    def params(self) -> GroupParams:
        return GROUP_PROFILES[self.group]


@dataclass
class ElectionResult:
    counts: list[int]
    invalid_count: int
    revoked_count: int
    coercion: CoercionVerdict
    proof_bundle: list[int]  # bulletin sequence numbers of published proofs
    mixed_batch: MixBatch | None = field(default=None, repr=False)

    def to_dict(self, candidates: list[str]) -> dict:
        return {
            "counts": {name: c for name, c in zip(candidates, self.counts)},
            "invalid_count": self.invalid_count,
            "revoked_count": self.revoked_count,
            "coercion": asdict(self.coercion),
            "proof_bundle": list(self.proof_bundle),
        }


class ElectionState(enum.Enum):
    OPEN = "Open"
    CLOSED = "Closed"
    TALLIED = "Tallied"


def run_tally(
    params: GroupParams,
    config: ElectionConfig,
    collected: list[SignedBallot],
    trustees: list[TrusteeKeyShare],
    election_key: ElectionKey,
    board: Board,
    seed,
) -> ElectionResult:
    """Full pipeline over already-verified ballots; publishes as it goes.

    Every mix stage is checked before any is published; the first fault
    raises MixRejected.  The ciphertexts' partial decryptions are
    independent, one job each for `groups.fan_out`, which shares them out
    across the host's CPUs on a large group."""
    trustees = sorted(trustees, key=lambda share: share.index)  # as the verifier reads partials
    kept, _ = filter_latest(collected)
    batch = strip_signatures(kept)
    batch_digest = batch.digest()
    proof_seqs: list[int] = []

    def publish(kind: str, record) -> None:
        proof_seqs.append(board.append(kind, record.to_bytes()).seq)

    transfer = bulletin.TransferPayload(bulletin.TRANSFER_LABEL, batch_digest)
    publish(bulletin.KIND_TRANSFER, transfer)
    server_rngs = [derive_rng(seed, "mix-server", i) for i in range(config.mix_server_count)]
    final, stages = run_mixnet(params, election_key.h, batch, server_rngs, config.proof_rounds)
    faults = verify_mix(params, election_key.h, batch_digest, stages, config.proof_rounds)
    for idx, reason in settle(params, faults)[0]:
        raise MixRejected(f"mix stage {idx} {reason}")
    for idx, stage in enumerate(stages):
        publish(bulletin.KIND_MIX_STAGE, bulletin.MixStagePayload(idx, stage))

    # A wide decode bound, so that a malformed slot still yields a diagnosable
    # exponent; a 0 or 1 is found first, and nothing past it could carry a
    # valid well-formedness proof.
    bound = min(params.q - 1, max(len(final.items), 1024))
    cts = [ct for item in final.items for ct in item]
    jobs = [(params, trustees, ct) for ct in cts]
    decryptions = list(zip(cts, fan_out(params, partial_decrypt, jobs)))
    plaintexts = iter(threshold_decrypt(params, decryptions, _commitments(trustees), bound))
    partials = (pds for _, pds in decryptions)
    n_candidates = len(config.candidates)
    exponent_vectors = []
    for item_i, item in enumerate(final.items):
        for slot_i, pds in zip(range(len(item)), partials):
            for pd in pds:
                publish(
                    bulletin.KIND_PARTIAL_DECRYPTION,
                    bulletin.PartialDecryptionPayload(
                        item_i, slot_i, pd.trustee_index, pd.d, pd.proof
                    ),
                )
        exponents = tuple(itertools.islice(plaintexts, len(item)))
        exponent_vectors.append(exponents)
        valid = validate_decrypted(exponents, n_candidates)
        claim = bulletin.DecryptedBallotPayload(item_i, exponents, valid)
        publish(bulletin.KIND_DECRYPTED_BALLOT, claim)

    result, coercion = count_result(
        exponent_vectors, n_candidates, len(collected), len(kept), config.coercion_threshold
    )
    publish(bulletin.KIND_RESULT, result)
    return ElectionResult(
        counts=list(result.counts),
        invalid_count=result.invalid_count,
        revoked_count=result.revoked_count,
        coercion=coercion,
        proof_bundle=proof_seqs,
        mixed_batch=final,
    )


def aggregate_check(
    params: GroupParams,
    mixed: MixBatch,
    trustees: list[TrusteeKeyShare],
    n_candidates: int,
) -> list[int]:
    """Homomorphic recount: combine all items slotwise, decrypt once per slot
    with decode bound equal to the batch size."""
    if not mixed.items:
        return [0] * n_candidates
    sums = []
    for slot_i in range(n_candidates):
        acc = Ciphertext(1, 1)
        for item in mixed.items:
            acc = combine(acc, item[slot_i], params)
        sums.append((acc, partial_decrypt(params, trustees, acc)))
    return threshold_decrypt(params, sums, _commitments(trustees), decode_bound=len(mixed.items))


def _commitments(trustees: list[TrusteeKeyShare]) -> dict[int, int]:
    """Each trustee's h_i by index, as `threshold_decrypt` and the verifier take them."""
    return {share.index: share.h for share in trustees}


@dataclass(eq=False)
class Election:
    """Single-authority election state machine tying the modules together."""

    config: ElectionConfig
    registry: Registry
    board: Board
    election_key: ElectionKey
    trustees: list[TrusteeKeyShare]
    seed: int | str
    state: ElectionState = ElectionState.OPEN
    collected: list[SignedBallot] = field(default_factory=list)
    result: ElectionResult | None = None

    @property
    def params(self) -> GroupParams:
        return self.config.params

    @classmethod
    def setup(
        cls, config: ElectionConfig, voter_ids: list[str], seed
    ) -> tuple["Election", dict[str, VoterCredential]]:
        """In-process ceremony: enroll voters, run threshold keygen."""
        params = config.params
        registry = Registry(params)
        voters = [(vid, derive_rng(seed, "enroll", vid)) for vid in voter_ids]
        credentials = {cred.voter_id: cred for cred in enroll_voters(registry, voters)}
        election_key, trustees = threshold_keygen(
            params, config.trustee_count, derive_rng(seed, "trustee-ceremony")
        )
        election = cls(
            config=config,
            registry=registry,
            board=Board(),
            election_key=election_key,
            trustees=trustees,
            seed=seed,
        )
        return election, credentials

    @property
    def commitments(self) -> dict[int, int]:
        return _commitments(self.trustees)

    def cast(self, sb: SignedBallot, now: int) -> Receipt | None:
        """Verify and store a ballot; rejected ballots are not stored at all."""
        if self.state is not ElectionState.OPEN:
            raise AlreadyClosed("voting has ended")
        if len(sb.encrypted.slots) != len(self.config.candidates):
            return None
        if not verify_ballot(self.params, sb, self.registry, self.election_key.h):
            return None
        login = bulletin.LoginPayload(digest(sb.voter_id))
        self.board.append(bulletin.KIND_LOGIN, login.to_bytes())
        self.board.append(bulletin.KIND_BALLOT_CAST, sb.published().to_bytes())
        receipt = issue_receipt(sb, now, self.config.receipt_ttl)
        self.board.append(
            bulletin.KIND_RECEIPT, bulletin.ReceiptPayload(receipt.ballot_digest).to_bytes()
        )
        self.collected.append(sb)
        return receipt

    def close_election(self) -> list[SignedBallot]:
        if self.state is not ElectionState.OPEN:
            raise AlreadyClosed("election already closed")
        self.state = ElectionState.CLOSED
        return list(self.collected)

    def run_tally(self) -> ElectionResult:
        # Fairness gate: no decryption before close.
        if self.state is ElectionState.OPEN:
            raise FairnessViolation("tally requested before the election closed")
        if self.state is ElectionState.TALLIED:
            raise AlreadyClosed("election already tallied")
        result = run_tally(
            self.params,
            self.config,
            self.collected,
            self.trustees,
            self.election_key,
            self.board,
            self.seed,
        )
        self.state = ElectionState.TALLIED
        self.result = result
        return result

    def aggregate_check(self) -> list[int]:
        if self.state is ElectionState.OPEN:
            raise FairnessViolation("aggregate decryption before close")
        if self.result is None or self.result.mixed_batch is None:
            raise FairnessViolation("aggregate check requires a completed tally")
        return aggregate_check(
            self.params,
            self.result.mixed_batch,
            self.trustees,
            len(self.config.candidates),
        )
