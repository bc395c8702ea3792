"""Append-only hash-chained bulletin board, doubling as the event log.

Every published artifact (cast ballots, transfers, mix stages, partial
decryptions, decrypted ballots, the result, receipts, login events) lands
here as a chained entry.  Each payload is a canonical `Record`, so a
payload that does not decode strictly is reported, never half-read.
universal_verify replays the whole election from the board using public
data only.

Bytes that no check covers (the chain still fixes them):
- the Login payload, whose voter digest cannot be recomputed without the
  voter id; each cast ballot still needs a Login entry right before it;
- the BallotCast digest prefix, which cannot be recomputed without the
  voter id and the timestamp, neither of which is published; the Receipt
  right after the cast must repeat it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

from .ballot import BallotCastPayload, ResultPayload, count_result, validate_decrypted
from .canonical import Record, digest, encode
from .groups import GroupParams
from .mixnet import MixBatch, MixStage, stage_failures
from .zkp import DecryptionProof, verify_correct_decryption, verify_wellformed

GENESIS_TAG = "evote/bulletin/genesis"

KIND_BALLOT_CAST = "BallotCast"
KIND_TRANSFER = "Transfer"
KIND_LOGIN = "Login"
KIND_MIX_STAGE = "MixStage"
KIND_PARTIAL_DECRYPTION = "PartialDecryption"
KIND_DECRYPTED_BALLOT = "DecryptedBallot"
KIND_RESULT = "Result"
KIND_RECEIPT = "Receipt"

KINDS = {
    KIND_BALLOT_CAST,
    KIND_TRANSFER,
    KIND_LOGIN,
    KIND_MIX_STAGE,
    KIND_PARTIAL_DECRYPTION,
    KIND_DECRYPTED_BALLOT,
    KIND_RESULT,
    KIND_RECEIPT,
}


@dataclass(frozen=True)
class BulletinEntry:
    seq: int
    kind: str
    payload: bytes
    prev_digest: bytes
    digest: bytes


def entry_digest(prev_digest: bytes, seq: int, kind: str, payload: bytes) -> bytes:
    return digest(prev_digest, seq, kind, payload)


def genesis_digest() -> bytes:
    return digest(GENESIS_TAG)


@dataclass
class Board:
    entries: list[BulletinEntry] = field(default_factory=list)

    def append(self, kind: str, payload: bytes) -> BulletinEntry:
        if kind not in KINDS:
            raise ValueError(f"unknown entry kind {kind!r}")
        seq = len(self.entries)
        prev = self.entries[-1].digest if self.entries else genesis_digest()
        entry = BulletinEntry(
            seq=seq,
            kind=kind,
            payload=payload,
            prev_digest=prev,
            digest=entry_digest(prev, seq, kind, payload),
        )
        self.entries.append(entry)
        return entry

    def rechain(self) -> None:
        """Recompute every seq, link and digest after an edit, so that a
        deliberate mutation trips only the check it targets."""
        entries, self.entries = self.entries, []
        for e in entries:
            self.append(e.kind, e.payload)

    def find(self, kind: str) -> list[BulletinEntry]:
        return [e for e in self.entries if e.kind == kind]

    def save(self, path: str | Path) -> None:
        lines = [
            json.dumps(
                {
                    "seq": e.seq,
                    "kind": e.kind,
                    "payload": e.payload.hex(),
                    "prev": e.prev_digest.hex(),
                    "digest": e.digest.hex(),
                },
                sort_keys=True,
            )
            for e in self.entries
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: str | Path) -> "Board":
        """Each line is a JSON object whose kind is one of KINDS and whose
        payload, prev and digest are lowercase hex, as `save` writes them;
        any other line raises ValueError naming it, so the file has one
        encoding.  The seq is kept as read, so a bad one fails verify_chain
        instead."""
        board = cls()
        for number, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                kind, *hex_fields = (row[key] for key in ("kind", "payload", "prev", "digest"))
                if not isinstance(kind, str) or kind not in KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                payload, prev, entry_hash = map(bytes.fromhex, hex_fields)
                if [payload.hex(), prev.hex(), entry_hash.hex()] != hex_fields:
                    raise ValueError("payload, prev and digest must be lowercase hex")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {exc!r}") from exc
            board.entries.append(BulletinEntry(row.get("seq"), kind, payload, prev, entry_hash))
        return board


def verify_chain(board: Board) -> bool:
    """Every digest recomputes, sequence numbers are the ints 0, 1, 2, ..."""
    prev = genesis_digest()
    for i, e in enumerate(board.entries):
        if type(e.seq) is not int or e.seq != i or e.prev_digest != prev:
            return False
        if e.digest != entry_digest(prev, e.seq, e.kind, e.payload):
            return False
        prev = e.digest
    return True


# ---------------------------------------------------------------------------
# Payload records for entries not owned by another module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoginPayload(Record):
    voter_digest: bytes  # digest(voter_id); raw ids are sensitive


# Label of the Transfer entry that hands the kept ballots to the mix-net.
TRANSFER_LABEL = "to-mixnet"


@dataclass(frozen=True)
class TransferPayload(Record):
    label: str
    batch_digest: bytes


@dataclass(frozen=True)
class MixStagePayload(Record):
    index: int
    stage: MixStage


@dataclass(frozen=True)
class PartialDecryptionPayload(Record):
    item_index: int
    slot_index: int
    trustee_index: int
    d: int
    proof: DecryptionProof


@dataclass(frozen=True)
class DecryptedBallotPayload(Record):
    item_index: int
    exponents: tuple[int, ...]
    valid: bool


@dataclass(frozen=True)
class ReceiptPayload(Record):
    ballot_digest: bytes


# ---------------------------------------------------------------------------
# Universal verification
# ---------------------------------------------------------------------------

CHECK_CHAIN = "chain_integrity"
CHECK_WELLFORMED = "wellformedness"
CHECK_MIX = "mix_stages"
CHECK_DECRYPTION = "decryption_proofs"
CHECK_COUNTS = "count_recomputation"


@dataclass
class VerificationReport:
    """Outcome of replaying the board with public data only.

    Outer signatures cannot be re-checked post-anonymization (voter ids are
    not published), which is recorded rather than hidden.
    """

    checks: dict[str, bool]
    signatures_skipped: bool
    failures: list[str]

    @property
    def overall(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "overall": self.overall}


def universal_verify(
    params: GroupParams,
    board: Board,
    config,
    election_pk: int,
    trustee_commitments: dict[int, int],
) -> VerificationReport:
    """Recheck chain, proofs and counts from the published record.

    `config` needs `.candidates`, `.mix_server_count`, `.proof_rounds` and
    `.coercion_threshold`.  Each named check returns its failures and passes
    when there are none; nothing raises.  A failure about one entry names its
    position on the board, which is its seq whenever the chain recomputes.
    """
    n_candidates = len(config.candidates)
    results = {CHECK_CHAIN: [] if verify_chain(board) else ["hash chain does not recompute"]}
    results[CHECK_WELLFORMED] = _check_wellformed(params, board, election_pk, n_candidates)
    results[CHECK_MIX], final_batch = _check_mix(params, board, election_pk, config)
    results[CHECK_DECRYPTION], claims = _check_decryption(
        params, board, final_batch, trustee_commitments, n_candidates
    )
    results[CHECK_COUNTS] = _check_counts(
        board, final_batch, claims, n_candidates, config.coercion_threshold
    )
    return VerificationReport(
        checks={name: not failed for name, failed in results.items()},
        signatures_skipped=True,
        failures=[f for failed in results.values() for f in failed],
    )


def _decode_all(board: Board, kind: str, record: type[Record], what: str) -> tuple[list, list[str]]:
    """(seq, record) for each entry of `kind` that decodes, and a failure for
    each that does not."""
    decoded, failures = [], []
    for seq, e in enumerate(board.entries):
        if e.kind == kind:
            try:
                decoded.append((seq, record.from_bytes(e.payload)))
            except ValueError:
                failures.append(f"entry {seq}: unparseable {what}")
    return decoded, failures


def _check_wellformed(
    params: GroupParams, board: Board, election_pk: int, n_candidates: int
) -> list[str]:
    """Every cast ballot's well-formedness proof.  Each cast entry stands right
    after a Login entry and right before a Receipt entry that repeats its
    digest; no other Login or Receipt entry is on the board."""
    casts, failures = _decode_all(board, KIND_BALLOT_CAST, BallotCastPayload, "ballot payload")
    receipts, unparsed = _decode_all(board, KIND_RECEIPT, ReceiptPayload, "receipt payload")
    failures += unparsed
    for seq, cast in casts:
        if len(cast.slots) != n_candidates:
            failures.append(f"entry {seq}: {len(cast.slots)} slots for {n_candidates} candidates")
        elif not verify_wellformed(params, election_pk, cast.slots, cast.wellformed):
            failures.append(f"entry {seq}: well-formedness proof rejected")
    digests = {seq: cast.ballot_digest for seq, cast in casts}
    failures += [
        f"entry {seq}: receipt does not repeat the ballot digest"
        for seq, receipt in receipts
        if seq - 1 in digests and receipt.ballot_digest != digests[seq - 1]
    ]
    kinds = [e.kind for e in board.entries]
    cast_seqs = {seq for seq, k in enumerate(kinds) if k == KIND_BALLOT_CAST}
    for kind, offset in ((KIND_LOGIN, 1), (KIND_RECEIPT, -1)):
        beside = {seq + offset for seq, k in enumerate(kinds) if k == kind}
        failures += [f"entry {s}: no {kind} entry beside it" for s in sorted(cast_seqs - beside)]
        failures += [
            f"entry {s - offset}: {kind} entry not beside a cast ballot"
            for s in sorted(beside - cast_seqs)
        ]
    return failures


def _check_mix(
    params: GroupParams, board: Board, election_pk: int, config
) -> tuple[list[str], MixBatch | None]:
    """Stage count and order, the transfer hand-off and its place between the
    cast ballots and the mix stages, continuity and every shuffle proof;
    hands on the final mix batch, or None when the stages cannot be read."""
    staged, failures = _decode_all(board, KIND_MIX_STAGE, MixStagePayload, "mix stage payload")
    if failures:
        return failures, None
    indices = [s.index for _, s in staged]
    if indices != list(range(config.mix_server_count)):
        return [f"expected mix stages 0 to {config.mix_server_count - 1}, found {indices}"], None

    transfers, failures = _decode_all(board, KIND_TRANSFER, TransferPayload, "transfer payload")
    kinds = [e.kind for e in board.entries]
    n_transfers = kinds.count(KIND_TRANSFER)
    batch_digest = None
    if n_transfers != 1:
        failures = [f"expected one transfer entry, found {n_transfers}"]
    elif transfers:
        seq, handoff = transfers[0]
        if handoff.label != TRANSFER_LABEL:
            failures.append(f"entry {seq}: transfer label {handoff.label!r}")
        batch_digest = handoff.batch_digest
    if n_transfers == 1:
        at = kinds.index(KIND_TRANSFER)
        if {KIND_LOGIN, KIND_BALLOT_CAST, KIND_RECEIPT} & set(kinds[at:]) or staged[0][0] < at:
            failures.append(f"entry {at}: transfer not between the casts and the mix stages")
    stages = [s.stage for _, s in staged]
    failures += [
        f"entry {staged[idx][0]}: mix stage {idx} {reason}"
        for idx, reason in stage_failures(
            params, election_pk, batch_digest, stages, config.proof_rounds
        )
    ]
    return failures, stages[-1].batch_out if stages else None


# The record each decryption entry decodes to, and its name in failures.
_DECRYPTION_RECORDS = {
    KIND_PARTIAL_DECRYPTION: (PartialDecryptionPayload, "partial decryption"),
    KIND_DECRYPTED_BALLOT: (DecryptedBallotPayload, "decrypted ballot"),
}


def _check_decryption(
    params: GroupParams,
    board: Board,
    final_batch: MixBatch | None,
    trustee_commitments: dict[int, int],
    n_candidates: int,
) -> tuple[list[str], list[DecryptedBallotPayload]]:
    """Walk the decryption entries in board order, after the last mix stage,
    expecting what run_tally writes: for each item of the final mix batch,
    each slot's partial decryptions by trustee index, then its decrypted
    ballot.  Checks every decryption proof and each claimed plaintext and
    validity flag; the first entry out of place ends the walk with one
    failure naming it.  Hands on the claims read, in item order."""
    p, g = params.p, params.g
    kinds = [e.kind for e in board.entries]
    seqs = [seq for seq, kind in enumerate(kinds) if kind in _DECRYPTION_RECORDS]
    if seqs and KIND_MIX_STAGE in kinds[seqs[0]:]:
        return [f"entry {seqs[0]}: decryption entry before the last mix stage"], []
    if final_batch is None:
        return ["no mix output to check the decryptions against"], []
    walk, failures, claims = iter(seqs), [], []

    def take(kind: str, *place: int):
        """(seq, record) for the next entry if it is the `kind` entry whose
        leading fields are `place`, else (seq, None) after a failure names it.
        A payload that decodes is canonical: it starts with their encoding."""
        record, what = _DECRYPTION_RECORDS[kind]
        seq = next(walk, None)
        try:
            if seq is not None and kinds[seq] == kind:
                decoded = record.from_bytes(board.entries[seq].payload)
                if board.entries[seq].payload.startswith(encode(*place)):
                    return seq, decoded
        except ValueError:
            failures.append(f"entry {seq}: unparseable {what}")
            return seq, None
        where = " ".join(f"{name} {i}" for name, i in zip(("item", "slot", "trustee"), place))
        found = "no entry" if seq is None else f"entry {seq}: {kinds[seq]} entry"
        failures.append(f"{found} where the {what} for {where} is due")
        return seq, None

    for item_i, item in enumerate(final_batch.items):
        products = [1] * len(item)
        for slot_i, trustee_i in product(range(len(item)), sorted(trustee_commitments)):
            seq, pd = take(KIND_PARTIAL_DECRYPTION, item_i, slot_i, trustee_i)
            if pd is None:
                return failures, claims
            commitment = trustee_commitments[trustee_i]
            if not verify_correct_decryption(params, commitment, item[slot_i], pd.d, pd.proof):
                failures.append(f"entry {seq}: decryption proof rejected (trustee {trustee_i})")
            products[slot_i] = (products[slot_i] * pd.d) % p
        seq, claim = take(KIND_DECRYPTED_BALLOT, item_i)
        if claim is None:
            return failures, claims
        claims.append(claim)
        if len(claim.exponents) != len(item):
            failures.append(f"entry {seq}: item {item_i}: wrong slot count")
            continue
        for slot_i, (ct, prod_d, m) in enumerate(zip(item, products, claim.exponents)):
            lhs = params.exp(g, m, fixed=True)
            if prod_d == 0 or lhs != (ct.c2 * params.exp(prod_d, -1)) % p:
                failures.append(
                    f"entry {seq}: item {item_i} slot {slot_i}: claimed plaintext mismatch"
                )
        if claim.valid != validate_decrypted(claim.exponents, n_candidates):
            failures.append(f"entry {seq}: item {item_i}: validity flag incorrect")
    if (extra := next(walk, None)) is not None:
        failures.append(f"entry {extra}: {kinds[extra]} entry past the last item")
    return failures, claims


def _check_counts(
    board: Board,
    final_batch: MixBatch | None,
    claims: list[DecryptedBallotPayload],
    n_candidates: int,
    threshold: float,
) -> list[str]:
    """Recompute the whole Result entry from the board: the counts over the
    decrypted ballots of the final mix batch, the cast, kept and revoked
    numbers, and the coercion flag.  The Result stands after the last
    decryption entry."""
    result_seqs = [seq for seq, e in enumerate(board.entries) if e.kind == KIND_RESULT]
    if len(result_seqs) != 1:
        return [f"expected exactly one result entry, found {len(result_seqs)}"]
    [seq] = result_seqs
    if any(e.kind in _DECRYPTION_RECORDS for e in board.entries[seq:]):
        return [f"entry {seq}: result before the last decryption entry"]
    if final_batch is None:
        return ["no mix output to recount from"]
    try:
        published = ResultPayload.from_bytes(board.entries[seq].payload)
    except ValueError:
        return ["unparseable result payload"]
    cast_count = len(board.find(KIND_BALLOT_CAST))
    kept_count = len(final_batch.items)
    if kept_count > cast_count:
        return [f"{kept_count} ballots mixed but only {cast_count} cast"]
    exponent_vectors = [claim.exponents for claim in claims]
    recount = count_result(exponent_vectors, n_candidates, cast_count, kept_count, threshold)
    if recount != published:
        return [f"entry {seq}: recomputed {recount} != published {published}"]
    return []
