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
from dataclasses import dataclass, field
from fractions import Fraction

from . import bulletin
from .ballot import (
    DEFAULT_RECEIPT_TTL,
    Receipt,
    SignedBallot,
    ballot_cast_payload,
    filter_latest,
    issue_receipt,
    validate_decrypted,
    verify_ballot,
)
from .bulletin import Board
from .canonical import derive_rng
from .errors import AlreadyClosed, DecodeRangeError, FairnessViolation, MixRejected
from .groups import (
    Ciphertext,
    ElectionKey,
    GROUP_PROFILES,
    GroupParams,
    TrusteeKeyShare,
    combine,
    partial_decrypt,
    threshold_decrypt,
    threshold_keygen,
)
from .mixnet import MixBatch, run_mixnet, strip_signatures, verify_mix
from .registry import Registry, VoterCredential, enroll_voter


@dataclass
class ElectionConfig:
    candidates: list[str]
    trustee_count: int = 3
    mix_server_count: int = 3
    proof_rounds: int = 20
    revote_allowed: bool = True
    coercion_threshold: float = 0.05
    receipt_ttl: int = DEFAULT_RECEIPT_TTL
    group: str = "test"

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("need at least one candidate")
        if self.trustee_count < 1:
            raise ValueError("need at least one trustee")
        if self.mix_server_count < 1:
            raise ValueError("need at least one mix server")
        if self.proof_rounds < 1:
            raise ValueError("need at least one proof round")
        if not 0 <= self.coercion_threshold <= 1:
            raise ValueError("coercion threshold must lie in [0, 1]")
        if self.group not in GROUP_PROFILES:
            raise ValueError(f"unknown group profile {self.group!r}")

    @property
    def params(self) -> GroupParams:
        return GROUP_PROFILES[self.group]

    def to_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "trustee_count": self.trustee_count,
            "mix_server_count": self.mix_server_count,
            "proof_rounds": self.proof_rounds,
            "revote_allowed": self.revote_allowed,
            "coercion_threshold": self.coercion_threshold,
            "receipt_ttl": self.receipt_ttl,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ElectionConfig":
        return cls(**d)


@dataclass(frozen=True)
class CoercionVerdict:
    revoked_fraction: float
    threshold: float
    flagged: bool


def coercion_evidence(revoked_count: int, kept_count: int, threshold: float) -> CoercionVerdict:
    """Flag when revoked/(revoked+kept) strictly exceeds the threshold.

    Exact rational comparison; a fraction equal to the threshold does not
    flag.  Zero total ballots count as fraction 0.
    """
    if revoked_count < 0 or kept_count < 0:
        raise ValueError("counts must be non-negative")
    total = revoked_count + kept_count
    fraction = Fraction(revoked_count, total) if total else Fraction(0)
    flagged = fraction > Fraction(threshold)
    return CoercionVerdict(
        revoked_fraction=float(fraction), threshold=threshold, flagged=flagged
    )


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
            "coercion": {
                "revoked_fraction": self.coercion.revoked_fraction,
                "threshold": self.coercion.threshold,
                "flagged": self.coercion.flagged,
            },
            "proof_bundle": list(self.proof_bundle),
        }


class ElectionState(enum.Enum):
    OPEN = "Open"
    CLOSED = "Closed"
    TALLIED = "Tallied"


def _decrypt_slot(
    params: GroupParams,
    ct: Ciphertext,
    trustees: list[TrusteeKeyShare],
    commitments: dict[int, int],
    batch_size: int,
) -> tuple[int, list]:
    """Per-slot threshold decryption: bound-1 fast path, wider fallback so a
    malformed slot still yields a diagnosable exponent.

    The fallback scan is capped: anything past it could never have carried a
    valid well-formedness proof, so the error is allowed to surface."""
    partials = [partial_decrypt(params, share, ct) for share in trustees]
    try:
        m = threshold_decrypt(params, ct, partials, commitments, decode_bound=1)
    except DecodeRangeError:
        bound = min(params.q - 1, max(batch_size, 1024))
        m = threshold_decrypt(params, ct, partials, commitments, decode_bound=bound)
    return m, partials


def run_tally(
    params: GroupParams,
    config: ElectionConfig,
    collected: list[SignedBallot],
    trustees: list[TrusteeKeyShare],
    election_key: ElectionKey,
    board: Board,
    seed,
) -> ElectionResult:
    """Full pipeline over already-verified ballots; publishes as it goes."""
    commitments = {share.index: share.h for share in trustees}
    kept, revoked_count = filter_latest(collected)
    verdict = coercion_evidence(revoked_count, len(kept), config.coercion_threshold)

    batch = strip_signatures(kept)
    proof_seqs: list[int] = []
    entry = board.append(
        bulletin.KIND_TRANSFER, bulletin.transfer_payload("to-mixnet", batch.digest())
    )
    proof_seqs.append(entry.seq)

    server_rngs = [
        derive_rng(seed, "mix-server", i) for i in range(config.mix_server_count)
    ]
    final, stages = run_mixnet(
        params, election_key.h, batch, server_rngs, config.proof_rounds
    )
    for idx, stage in enumerate(stages):
        if not verify_mix(
            params,
            election_key.h,
            stage.batch_in,
            stage.batch_out,
            stage.proof,
            min_rounds=config.proof_rounds,
        ):
            raise MixRejected(f"mix stage {idx} failed verification")
        entry = board.append(
            bulletin.KIND_MIX_STAGE, bulletin.mix_stage_payload(idx, stage)
        )
        proof_seqs.append(entry.seq)

    n_candidates = len(config.candidates)
    counts = [0] * n_candidates
    invalid_count = 0
    for item_i, item in enumerate(final.items):
        exponents = []
        for slot_i, ct in enumerate(item):
            m, partials = _decrypt_slot(
                params, ct, trustees, commitments, len(final.items)
            )
            exponents.append(m)
            for pd in partials:
                entry = board.append(
                    bulletin.KIND_PARTIAL_DECRYPTION,
                    bulletin.partial_decryption_payload(
                        item_i, slot_i, pd.trustee_index, pd.d, pd.proof
                    ),
                )
                proof_seqs.append(entry.seq)
        valid = validate_decrypted(exponents, n_candidates)
        if valid:
            for c, e_val in enumerate(exponents):
                counts[c] += e_val
        else:
            invalid_count += 1
        entry = board.append(
            bulletin.KIND_DECRYPTED_BALLOT,
            bulletin.decrypted_ballot_payload(item_i, exponents, valid),
        )
        proof_seqs.append(entry.seq)

    entry = board.append(
        bulletin.KIND_RESULT,
        bulletin.result_payload(
            counts,
            invalid_count,
            revoked_count,
            len(kept),
            len(collected),
            verdict.flagged,
        ),
    )
    proof_seqs.append(entry.seq)

    return ElectionResult(
        counts=counts,
        invalid_count=invalid_count,
        revoked_count=revoked_count,
        coercion=verdict,
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
    commitments = {share.index: share.h for share in trustees}
    totals = []
    for slot_i in range(n_candidates):
        acc = Ciphertext(1, 1)
        for item in mixed.items:
            acc = combine(acc, item[slot_i], params)
        partials = [partial_decrypt(params, share, acc) for share in trustees]
        totals.append(
            threshold_decrypt(
                params, acc, partials, commitments, decode_bound=len(mixed.items)
            )
        )
    return totals


class Election:
    """Single-authority election state machine tying the modules together."""

    def __init__(
        self,
        config: ElectionConfig,
        registry: Registry,
        board: Board,
        election_key: ElectionKey,
        trustees: list[TrusteeKeyShare],
        seed,
    ):
        self.config = config
        self.params = config.params
        self.registry = registry
        self.board = board
        self.election_key = election_key
        self.trustees = trustees
        self.seed = seed
        self.state = ElectionState.OPEN
        self.collected: list[SignedBallot] = []
        self.result: ElectionResult | None = None

    @classmethod
    def setup(
        cls, config: ElectionConfig, voter_ids: list[str], seed
    ) -> tuple["Election", dict[str, VoterCredential]]:
        """In-process ceremony: enroll voters, run threshold keygen."""
        params = config.params
        registry = Registry(params)
        credentials = {
            vid: enroll_voter(registry, vid, derive_rng(seed, "enroll", vid))
            for vid in voter_ids
        }
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
        return {share.index: share.h for share in self.trustees}

    def cast(self, sb: SignedBallot, now: int) -> Receipt | None:
        """Verify and store a ballot; rejected ballots are not stored at all."""
        if self.state is not ElectionState.OPEN:
            raise AlreadyClosed("voting has ended")
        if len(sb.encrypted.slots) != len(self.config.candidates):
            return None
        if not verify_ballot(self.params, sb, self.registry, self.election_key.h):
            return None
        self.board.append(bulletin.KIND_LOGIN, bulletin.login_payload(sb.voter_id))
        self.board.append(bulletin.KIND_BALLOT_CAST, ballot_cast_payload(sb))
        receipt = issue_receipt(sb, now, self.config.receipt_ttl)
        self.board.append(
            bulletin.KIND_RECEIPT, bulletin.receipt_payload(receipt.ballot_digest)
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
