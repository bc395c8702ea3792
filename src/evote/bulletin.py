"""Append-only hash-chained bulletin board, doubling as the event log.

Every published artifact (cast ballots, transfers, mix stages, partial
decryptions, decrypted ballots, the result, receipts, login events) lands
here as a chained entry.  universal_verify replays the whole election from
the board using public data only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ballot import parse_ballot_cast, validate_decrypted
from .canonical import Reader, digest, encode
from .groups import GroupParams
from .mixnet import MixStage, verify_mix
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
        board = cls()
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            board.entries.append(
                BulletinEntry(
                    seq=row["seq"],
                    kind=row["kind"],
                    payload=bytes.fromhex(row["payload"]),
                    prev_digest=bytes.fromhex(row["prev"]),
                    digest=bytes.fromhex(row["digest"]),
                )
            )
        return board


def verify_chain(board: Board) -> bool:
    """Every digest recomputes, sequence numbers are dense from 0."""
    prev = genesis_digest()
    for i, e in enumerate(board.entries):
        if e.seq != i or e.prev_digest != prev:
            return False
        if e.digest != entry_digest(prev, e.seq, e.kind, e.payload):
            return False
        prev = e.digest
    return True


# ---------------------------------------------------------------------------
# Payload schemas for entries not owned by another module
# ---------------------------------------------------------------------------

def login_payload(voter_id: str) -> bytes:
    # Only a digest of the id is published; raw ids are sensitive.
    return encode(digest(voter_id))


def transfer_payload(label: str, batch_digest: bytes) -> bytes:
    return encode(label, batch_digest)


def parse_transfer(payload: bytes) -> tuple[str, bytes]:
    r = Reader(payload)
    label = r.read_str()
    batch_digest = r.read_bytes()
    r.expect_end()
    return label, batch_digest


def mix_stage_payload(stage_index: int, stage: MixStage) -> bytes:
    return encode(stage_index, stage.to_bytes())


def parse_mix_stage(payload: bytes) -> tuple[int, MixStage]:
    r = Reader(payload)
    stage_index = r.read_int()
    stage = MixStage.from_bytes(r.read_bytes())
    r.expect_end()
    return stage_index, stage


def partial_decryption_payload(
    item_index: int, slot_index: int, trustee_index: int, d: int, proof: DecryptionProof
) -> bytes:
    return encode(item_index, slot_index, trustee_index, d, proof.to_bytes())


def parse_partial_decryption(payload: bytes) -> tuple[int, int, int, int, DecryptionProof]:
    r = Reader(payload)
    item_index = r.read_int()
    slot_index = r.read_int()
    trustee_index = r.read_int()
    d = r.read_int()
    proof = DecryptionProof.from_bytes(r.read_bytes())
    r.expect_end()
    return item_index, slot_index, trustee_index, d, proof


def decrypted_ballot_payload(item_index: int, exponents: list[int], valid: bool) -> bytes:
    return encode(item_index, exponents, int(valid))


def parse_decrypted_ballot(payload: bytes) -> tuple[int, list[int], bool]:
    r = Reader(payload)
    item_index = r.read_int()
    n = r.read_int()
    exponents = [r.read_int() for _ in range(n)]
    valid = bool(r.read_int())
    r.expect_end()
    return item_index, exponents, valid


def result_payload(
    counts: list[int],
    invalid_count: int,
    revoked_count: int,
    kept_count: int,
    cast_count: int,
    flagged: bool,
) -> bytes:
    return encode(counts, invalid_count, revoked_count, kept_count, cast_count, int(flagged))


def parse_result(payload: bytes) -> tuple[list[int], int, int, int, int, bool]:
    r = Reader(payload)
    n = r.read_int()
    counts = [r.read_int() for _ in range(n)]
    invalid_count = r.read_int()
    revoked_count = r.read_int()
    kept_count = r.read_int()
    cast_count = r.read_int()
    flagged = bool(r.read_int())
    r.expect_end()
    return counts, invalid_count, revoked_count, kept_count, cast_count, flagged


def receipt_payload(ballot_digest: bytes) -> bytes:
    return encode(ballot_digest)


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
        return {
            "checks": dict(self.checks),
            "signatures_skipped": self.signatures_skipped,
            "failures": list(self.failures),
            "overall": self.overall,
        }


def universal_verify(
    params: GroupParams,
    board: Board,
    config,
    election_pk: int,
    trustee_commitments: dict[int, int],
) -> VerificationReport:
    """Recheck chain, proofs and counts from the published record.

    `config` needs `.candidates`, `.mix_server_count` and `.proof_rounds`.
    Failures are reported per named check; nothing raises.
    """
    p, g = params.p, params.g
    n_candidates = len(config.candidates)
    failures: list[str] = []
    checks = {
        CHECK_CHAIN: True,
        CHECK_WELLFORMED: True,
        CHECK_MIX: True,
        CHECK_DECRYPTION: True,
        CHECK_COUNTS: True,
    }

    if not verify_chain(board):
        checks[CHECK_CHAIN] = False
        failures.append("hash chain does not recompute")

    # Well-formedness of every published cast ballot.
    cast_entries = board.find(KIND_BALLOT_CAST)
    for e in cast_entries:
        try:
            _, slots, proof = parse_ballot_cast(e.payload)
        except ValueError:
            checks[CHECK_WELLFORMED] = False
            failures.append(f"entry {e.seq}: unparseable ballot payload")
            continue
        if len(slots) != n_candidates:
            checks[CHECK_WELLFORMED] = False
            failures.append(f"entry {e.seq}: {len(slots)} slots for {n_candidates} candidates")
        elif not verify_wellformed(params, election_pk, slots, proof):
            checks[CHECK_WELLFORMED] = False
            failures.append(f"entry {e.seq}: well-formedness proof rejected")

    # Mix stages: count, continuity, and every shuffle proof.
    stages: list[tuple[int, MixStage]] = []
    final_batch = None
    try:
        stages = sorted(
            (parse_mix_stage(e.payload) for e in board.find(KIND_MIX_STAGE)),
            key=lambda s: s[0],
        )
    except ValueError:
        checks[CHECK_MIX] = False
        failures.append("unparseable mix stage payload")
    if checks[CHECK_MIX]:
        if [i for i, _ in stages] != list(range(config.mix_server_count)):
            checks[CHECK_MIX] = False
            failures.append(
                f"expected {config.mix_server_count} mix stages, found {len(stages)}"
            )
    if checks[CHECK_MIX]:
        transfers = board.find(KIND_TRANSFER)
        if stages and transfers:
            _, first_digest = parse_transfer(transfers[0].payload)
            if stages[0][1].batch_in.digest() != first_digest:
                checks[CHECK_MIX] = False
                failures.append("first mix input does not match the transferred batch")
        for idx, stage in stages:
            if idx > 0 and stage.batch_in != stages[idx - 1][1].batch_out:
                checks[CHECK_MIX] = False
                failures.append(f"mix stage {idx} input breaks continuity")
            if not verify_mix(
                params,
                election_pk,
                stage.batch_in,
                stage.batch_out,
                stage.proof,
                min_rounds=config.proof_rounds,
            ):
                checks[CHECK_MIX] = False
                failures.append(f"mix stage {idx} proof rejected")
        if stages:
            final_batch = stages[-1][1].batch_out

    # Partial decryptions: all trustees, valid proofs, consistent plaintexts.
    n_trustees = len(trustee_commitments)
    partials: dict[tuple[int, int], dict[int, int]] = {}
    decryption_parse_ok = True
    for e in board.find(KIND_PARTIAL_DECRYPTION):
        try:
            item_i, slot_i, trustee_i, d, proof = parse_partial_decryption(e.payload)
        except ValueError:
            checks[CHECK_DECRYPTION] = False
            failures.append(f"entry {e.seq}: unparseable partial decryption")
            decryption_parse_ok = False
            continue
        if final_batch is None or not (
            0 <= item_i < len(final_batch.items)
            and 0 <= slot_i < len(final_batch.items[item_i])
        ):
            checks[CHECK_DECRYPTION] = False
            failures.append(f"entry {e.seq}: partial decryption out of range")
            continue
        ct = final_batch.items[item_i][slot_i]
        commitment = trustee_commitments.get(trustee_i)
        if commitment is None or not verify_correct_decryption(
            params, commitment, ct, d, proof
        ):
            checks[CHECK_DECRYPTION] = False
            failures.append(
                f"entry {e.seq}: decryption proof rejected (trustee {trustee_i})"
            )
            continue
        partials.setdefault((item_i, slot_i), {})[trustee_i] = d

    decrypted: dict[int, tuple[list[int], bool]] = {}
    for e in board.find(KIND_DECRYPTED_BALLOT):
        try:
            item_i, exponents, valid = parse_decrypted_ballot(e.payload)
        except ValueError:
            checks[CHECK_DECRYPTION] = False
            failures.append(f"entry {e.seq}: unparseable decrypted ballot")
            decryption_parse_ok = False
            continue
        decrypted[item_i] = (exponents, valid)

    if final_batch is not None and decryption_parse_ok:
        for item_i, item in enumerate(final_batch.items):
            claim = decrypted.get(item_i)
            if claim is None:
                checks[CHECK_DECRYPTION] = False
                failures.append(f"item {item_i}: no decrypted ballot published")
                continue
            exponents, valid = claim
            if len(exponents) != len(item):
                checks[CHECK_DECRYPTION] = False
                failures.append(f"item {item_i}: wrong slot count")
                continue
            for slot_i, ct in enumerate(item):
                ds = partials.get((item_i, slot_i), {})
                if set(ds) != set(trustee_commitments):
                    checks[CHECK_DECRYPTION] = False
                    failures.append(
                        f"item {item_i} slot {slot_i}: trustee partials incomplete"
                    )
                    continue
                prod_d = 1
                for t in sorted(ds):
                    prod_d = (prod_d * ds[t]) % p
                lhs = pow(g, exponents[slot_i], p)
                if prod_d == 0 or lhs != (ct.c2 * pow(prod_d, -1, p)) % p:
                    checks[CHECK_DECRYPTION] = False
                    failures.append(
                        f"item {item_i} slot {slot_i}: claimed plaintext mismatch"
                    )
            if valid != validate_decrypted(exponents, n_candidates):
                checks[CHECK_DECRYPTION] = False
                failures.append(f"item {item_i}: validity flag incorrect")

    # Count recomputation against the published result.
    result_entries = board.find(KIND_RESULT)
    if len(result_entries) != 1:
        checks[CHECK_COUNTS] = False
        failures.append(f"expected exactly one result entry, found {len(result_entries)}")
    elif final_batch is None:
        checks[CHECK_COUNTS] = False
        failures.append("no mix output to recount from")
    else:
        try:
            counts, invalid_count, revoked_count, kept_count, cast_count, _flagged = (
                parse_result(result_entries[0].payload)
            )
        except ValueError:
            checks[CHECK_COUNTS] = False
            failures.append("unparseable result payload")
        else:
            recount = [0] * n_candidates
            invalid = 0
            for item_i in range(len(final_batch.items)):
                claim = decrypted.get(item_i)
                if claim is None:
                    continue
                exponents, _ = claim
                if validate_decrypted(exponents, n_candidates):
                    for c, e_val in enumerate(exponents):
                        recount[c] += e_val
                else:
                    invalid += 1
            if recount != counts or invalid != invalid_count:
                checks[CHECK_COUNTS] = False
                failures.append(
                    f"recomputed counts {recount}/{invalid} != published {counts}/{invalid_count}"
                )
            if kept_count != len(final_batch.items):
                checks[CHECK_COUNTS] = False
                failures.append("kept count does not match mix batch size")
            if cast_count != len(cast_entries) or revoked_count != cast_count - kept_count:
                checks[CHECK_COUNTS] = False
                failures.append("cast/revoked bookkeeping does not match the board")

    return VerificationReport(checks=checks, signatures_skipped=True, failures=failures)
