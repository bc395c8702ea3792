"""Append-only hash-chained bulletin board, doubling as the event log.

Every published artifact (cast ballots, transfers, mix stages, partial
decryptions, decrypted ballots, the result, receipts, login events) lands
here as a chained entry.  `RECORDS` names, for each entry kind, the
canonical `Record` its payload decodes to and the named check that owns
it.  universal_verify replays the whole election from the board using
public data only, decoding every payload once and strictly through it, so
a payload that does not decode is reported, never half-read, in one pass
whose proofs, on a group that batches, are settled in one bisected batch.

Bytes that no check covers (the chain still fixes them):
- the Login voter digest: the payload decodes strictly, but the digest
  cannot be recomputed without the voter id; each cast ballot still needs
  a Login entry right before it;
- the BallotCast digest prefix, which cannot be recomputed without the
  voter id and the timestamp, neither of which is published; the Receipt
  right after the cast must repeat it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path

from .ballot import BallotCastPayload, Receipt, ReceiptStatus, ResultPayload
from .ballot import count_result, validate_decrypted
from .canonical import Record, digest, read_rows, write_rows
from .groups import GroupParams, Pending, settle, unblind
from .mixnet import MixBatch, MixStage, verify_mix
from .zkp import DecryptionProof, decryption_statement, fails_unless_hold, wellformed_statements

GENESIS_TAG = "evote/bulletin/genesis"

KIND_BALLOT_CAST = "BallotCast"
KIND_TRANSFER = "Transfer"
KIND_LOGIN = "Login"
KIND_MIX_STAGE = "MixStage"
KIND_PARTIAL_DECRYPTION = "PartialDecryption"
KIND_DECRYPTED_BALLOT = "DecryptedBallot"
KIND_RESULT = "Result"
KIND_RECEIPT = "Receipt"


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


CHECK_CHAIN = "chain_integrity"
CHECK_WELLFORMED = "wellformedness"
CHECK_MIX = "mix_stages"
CHECK_DECRYPTION = "decryption_proofs"
CHECK_COUNTS = "count_recomputation"

# Each entry kind: the record its payload decodes to, its name in failures,
# and the named check that owns it.
RECORDS = {
    KIND_LOGIN: (LoginPayload, "login payload", CHECK_WELLFORMED),
    KIND_BALLOT_CAST: (BallotCastPayload, "ballot payload", CHECK_WELLFORMED),
    KIND_RECEIPT: (ReceiptPayload, "receipt payload", CHECK_WELLFORMED),
    KIND_TRANSFER: (TransferPayload, "transfer payload", CHECK_MIX),
    KIND_MIX_STAGE: (MixStagePayload, "mix stage payload", CHECK_MIX),
    KIND_PARTIAL_DECRYPTION: (PartialDecryptionPayload, "partial decryption", CHECK_DECRYPTION),
    KIND_DECRYPTED_BALLOT: (DecryptedBallotPayload, "decrypted ballot", CHECK_DECRYPTION),
    KIND_RESULT: (ResultPayload, "result payload", CHECK_COUNTS),
}
KINDS = frozenset(RECORDS)

# The keys of a board.jsonl row, as `Board.save` writes them.
_ROW_KEYS = frozenset(("seq", "kind", "payload", "prev", "digest"))


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
        """One row per entry, each formatted and written on its own by `write_rows`."""
        write_rows(path, ({"seq": e.seq, "kind": e.kind, "payload": e.payload.hex(),
                           "prev": e.prev_digest.hex(), "digest": e.digest.hex()}
                          for e in self.entries))

    @classmethod
    def load(cls, path: str | Path) -> "Board":
        """Each line is a JSON object whose kind is one of KINDS, whose
        payload, prev and digest are lowercase hex and whose keys are among
        the row keys, as `save` writes them; any other line raises ValueError
        naming it, so the file has one encoding.  The seq is kept as read, so
        a bad or missing one fails verify_chain instead.  Rows stream one at a
        time through `read_rows`, each checked as it is read."""
        board = cls()
        for number, line in read_rows(path):
            try:
                row = json.loads(line)
                kind, *hex_fields = (row[key] for key in ("kind", "payload", "prev", "digest"))
                if kind not in KINDS:  # a list or an object raises TypeError
                    raise ValueError(f"unknown kind {kind!r}")
                payload, prev, entry_hash = map(bytes.fromhex, hex_fields)
                if [payload.hex(), prev.hex(), entry_hash.hex()] != hex_fields:
                    raise ValueError("payload, prev and digest must be lowercase hex")
                if extra := row.keys() - _ROW_KEYS:
                    raise ValueError(f"unknown keys {sorted(extra)}")
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


def _decode(entry: BulletinEntry) -> Record | None:
    """The entry's payload record through RECORDS, or None if it does not decode."""
    try:
        return RECORDS[entry.kind][0].from_bytes(entry.payload)
    except ValueError:
        return None


def check_receipt(receipt: Receipt, board: Board, now: int) -> ReceiptStatus:
    """Confirmed while now < expiry and the digest is on the board; a cast
    entry that does not decode is skipped."""
    casts = (_decode(e) for e in board.find(KIND_BALLOT_CAST))
    if not any(c is not None and c.ballot_digest == receipt.ballot_digest for c in casts):
        return ReceiptStatus.NOT_FOUND
    return ReceiptStatus.EXPIRED if now >= receipt.expiry else ReceiptStatus.CONFIRMED


# ---------------------------------------------------------------------------
# Universal verification
# ---------------------------------------------------------------------------

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
    `.coercion_threshold`.  It decodes each entry once through RECORDS,
    right before the check that owns its kind, and fails that check if it
    does not decode; an entry of a kind with no row fails the chain check.
    Each named check passes when it has no failures; nothing raises.  A
    failure about one entry names its position on the board, its seq if
    the chain holds.

    Each check runs once and returns its failures in board order, where the
    group batches each one that rests on a proof (a cast ballot's, a mix
    stage's links, a partial decryption's) held back on its claim, and
    `groups.settle` decides all of the board's in one bisected batch.
    """
    results = {CHECK_CHAIN: [] if verify_chain(board) else ["hash chain does not recompute"]}
    sections = {check: [] for _, _, check in RECORDS.values()}  # the seqs each check owns
    for seq, e in enumerate(board.entries):
        if e.kind in RECORDS:
            sections[RECORDS[e.kind][2]].append(seq)
        else:
            results[CHECK_CHAIN].append(f"entry {seq}: unknown kind {e.kind!r}")
    results.update((check, []) for check in sections)

    def decoded(check: str) -> list[tuple[int, str, Record | None]]:
        """What each check takes: (seq, kind, record) for each entry it owns,
        in board order, the record None after a failure names the entry."""
        entries = []
        for seq in sections[check]:
            kind, record = board.entries[seq].kind, _decode(board.entries[seq])
            if record is None:
                results[check].append(f"entry {seq}: unparseable {RECORDS[kind][1]}")
            entries.append((seq, kind, record))
        return entries

    def last(check: str, kind: str | None = None) -> int:
        seqs = (s for s in sections[check] if kind in (None, board.entries[s].kind))
        return max(seqs, default=-1)

    results[CHECK_WELLFORMED] += _check_wellformed(
        params, election_pk, config, decoded(CHECK_WELLFORMED)
    )
    failures, final_batch = _check_mix(
        params, election_pk, config, decoded(CHECK_MIX), last(CHECK_WELLFORMED)
    )
    results[CHECK_MIX] += failures
    failures, claims = _check_decryption(
        params, trustee_commitments, config, decoded(CHECK_DECRYPTION), final_batch,
        last(CHECK_MIX, KIND_MIX_STAGE),
    )
    results[CHECK_DECRYPTION] += failures
    casts = [s for s in sections[CHECK_WELLFORMED] if board.entries[s].kind == KIND_BALLOT_CAST]
    results[CHECK_COUNTS] += _check_counts(
        config, decoded(CHECK_COUNTS), claims, len(casts), last(CHECK_DECRYPTION)
    )
    results = dict(zip(results, settle(params, *results.values())))
    return VerificationReport(
        checks={name: not failed for name, failed in results.items()},
        signatures_skipped=True,
        failures=[f for failed in results.values() for f in failed],
    )


def _check_wellformed(params: GroupParams, election_pk: int, config, entries) -> list:
    """Every cast ballot's well-formedness proof.  Each cast entry stands right
    after a Login entry and right before a Receipt entry that repeats its
    digest; no other Login or Receipt entry is on the board."""
    n = len(config.candidates)
    failures, casts = [], {}
    for seq, kind, record in entries:
        if record is None:
            continue
        if kind == KIND_BALLOT_CAST:
            casts[seq] = record
            if len(record.slots) != n:
                failures.append(f"entry {seq}: {len(record.slots)} slots for {n} candidates")
            else:
                proof = wellformed_statements(params, election_pk, record.slots, record.wellformed)
                failure = f"entry {seq}: well-formedness proof rejected"
                failures += fails_unless_hold(params, proof, failure)
        elif kind == KIND_RECEIPT and seq - 1 in casts:
            if record.ballot_digest != casts[seq - 1].ballot_digest:
                failures.append(f"entry {seq}: receipt does not repeat the ballot digest")
    kind_at = {seq: kind for seq, kind, _ in entries}
    for kind, offset in ((KIND_LOGIN, -1), (KIND_RECEIPT, 1)):
        for seq, at in kind_at.items():
            if at == KIND_BALLOT_CAST and kind_at.get(seq + offset) != kind:
                failures.append(f"entry {seq}: no {kind} entry beside it")
            elif at == kind and kind_at.get(seq - offset) != KIND_BALLOT_CAST:
                failures.append(f"entry {seq}: {kind} entry not beside a cast ballot")
    return failures


def _check_mix(
    params: GroupParams, election_pk: int, config, entries, casts_end: int
) -> tuple[list, MixBatch | None]:
    """Stage count and order, the transfer hand-off and its place between the
    cast ballots (the last ends at `casts_end`) and the mix stages, continuity
    and every shuffle proof; hands on the final mix batch, or None when the
    stages cannot be read."""
    staged = [(seq, record) for seq, kind, record in entries if kind == KIND_MIX_STAGE]
    if any(record is None for _, record in staged):
        return [], None  # the stage that does not decode is named already
    indices = [s.index for _, s in staged]
    if indices != list(range(config.mix_server_count)):
        return [f"expected mix stages 0 to {config.mix_server_count - 1}, found {indices}"], None

    transfers = [(seq, record) for seq, kind, record in entries if kind == KIND_TRANSFER]
    failures, batch_digest = [], None
    if len(transfers) != 1:
        failures.append(f"expected one transfer entry, found {len(transfers)}")
    else:
        [(at, handoff)] = transfers
        if handoff is not None:
            batch_digest = handoff.batch_digest
            if handoff.label != TRANSFER_LABEL:
                failures.append(f"entry {at}: transfer label {handoff.label!r}")
        if casts_end > at or staged[0][0] < at:
            failures.append(f"entry {at}: transfer not between the casts and the mix stages")
    stages = [s.stage for _, s in staged]
    for fault in verify_mix(params, election_pk, batch_digest, stages, config.proof_rounds):
        idx, reason = fault.failure if type(fault) is Pending else fault
        line = f"entry {staged[idx][0]}: mix stage {idx} {reason}"
        failures.append(fault._replace(failure=line) if type(fault) is Pending else line)
    return failures, stages[-1].batch_out if stages else None


def _check_decryption(
    params: GroupParams, commitments: dict[int, int], config, entries, final_batch, end: int
) -> tuple[list, list[DecryptedBallotPayload] | None]:
    """Walk the decryption entries in board order, after the last mix stage
    at `end`, expecting what run_tally writes: for each item of the final
    mix batch, each slot's partial decryptions by trustee index, then its
    decrypted ballot.  Checks every decryption proof, each claimed plaintext
    against `groups.unblind` of its slot's partials, as the tally decodes
    it, and each validity flag; the first entry out of place ends the walk
    with one failure naming it.  Hands on the claims in item order, or None
    when the walk ends early.  No proof's check builds a c1 table."""
    if entries and entries[0][0] < end:
        return [f"entry {entries[0][0]}: decryption entry before the last mix stage"], None
    if final_batch is None:
        return ["no mix output to check the decryptions against"], None
    walk, failures, claims = iter(entries), [], []

    def take(kind: str, *place: int):
        """(seq, record) for the next entry if it is the `kind` entry whose
        leading fields are `place`, else (seq, None) after a failure names it;
        a `kind` entry that does not decode is named already."""
        seq, found, record = next(walk, (None, None, None))
        leading = () if record is None else tuple(getattr(record, f.name) for f in fields(record))
        if found == kind and (record is None or leading[: len(place)] == place):
            return seq, record
        where = " ".join(f"{name} {i}" for name, i in zip(("item", "slot", "trustee"), place))
        at = "no entry" if seq is None else f"entry {seq}: {found} entry"
        failures.append(f"{at} where the {RECORDS[kind][1]} for {where} is due")
        return seq, None

    for item_i, item in enumerate(final_batch.items):
        partials = [[] for _ in item]
        for slot_i, trustee_i in product(range(len(item)), sorted(commitments)):
            seq, pd = take(KIND_PARTIAL_DECRYPTION, item_i, slot_i, trustee_i)
            if pd is None:
                return failures, None
            claim = (commitments[trustee_i], item[slot_i], pd.d, pd.proof)
            failure = f"entry {seq}: decryption proof rejected (trustee {trustee_i})"
            failures += fails_unless_hold(params, [decryption_statement(params, *claim)], failure)
            partials[slot_i].append(pd.d)
        seq, claim = take(KIND_DECRYPTED_BALLOT, item_i)
        if claim is None:
            return failures, None
        claims.append(claim)
        if len(claim.exponents) != len(item):
            failures.append(f"entry {seq}: item {item_i}: wrong slot count")
            continue
        for slot_i, (ct, ds, m) in enumerate(zip(item, partials, claim.exponents)):
            # g has order q, so m + q would match wherever m does.
            if not params.is_scalar(m):
                failures.append(
                    f"entry {seq}: item {item_i} slot {slot_i}: claimed plaintext out of range"
                )
                continue
            if params.exp(params.g, m, fixed=True) != unblind(params, ct, ds):
                failures.append(
                    f"entry {seq}: item {item_i} slot {slot_i}: claimed plaintext mismatch"
                )
        if claim.valid != validate_decrypted(claim.exponents, len(config.candidates)):
            failures.append(f"entry {seq}: item {item_i}: validity flag incorrect")
    if (extra := next(walk, None)) is not None:
        failures.append(f"entry {extra[0]}: {extra[1]} entry past the last item")
    return failures, claims


def _check_counts(config, entries, claims: list | None, cast_count: int, end: int) -> list[str]:
    """Recompute the whole Result entry from the board: the counts over the
    claims for the final mix batch, one per kept ballot, the cast, kept and
    revoked numbers, and the coercion flag.  The Result stands after the last
    decryption entry, at `end`."""
    if len(entries) != 1:
        return [f"expected exactly one result entry, found {len(entries)}"]
    [(seq, _, published)] = entries
    if seq < end:
        return [f"entry {seq}: result before the last decryption entry"]
    if published is None:
        return []
    if claims is None:
        return ["no complete decryption to recount from"]
    kept_count = len(claims)
    if kept_count > cast_count:
        return [f"{kept_count} ballots mixed but only {cast_count} cast"]
    exponents = [claim.exponents for claim in claims]
    recount, _ = count_result(
        exponents, len(config.candidates), cast_count, kept_count, config.coercion_threshold
    )
    if recount != published:
        return [f"entry {seq}: recomputed {recount} != published {published}"]
    return []
