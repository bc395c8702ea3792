import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from board_utils import clone_board, drop_entry, flip_byte, rechain, replace_payload
from evote.bulletin import (
    Board,
    KIND_BALLOT_CAST,
    KIND_DECRYPTED_BALLOT,
    KIND_LOGIN,
    KIND_MIX_STAGE,
    KIND_PARTIAL_DECRYPTION,
    KIND_RECEIPT,
    KIND_RESULT,
    KIND_TRANSFER,
    KINDS,
    RECORDS,
    TRANSFER_LABEL,
    BulletinEntry,
    DecryptedBallotPayload,
    LoginPayload,
    MixStagePayload,
    PartialDecryptionPayload,
    ReceiptPayload,
    ResultPayload,
    TransferPayload,
    entry_digest,
    universal_verify,
    verify_chain,
)
from evote.canonical import derive_rng, digest, encode


def test_board_appends_chain(grp):
    board = Board()
    e0 = board.append("Login", LoginPayload(digest("alice")).to_bytes())
    e1 = board.append("Login", LoginPayload(digest("bob")).to_bytes())
    assert e0.seq == 0 and e1.seq == 1
    assert e1.prev_digest == e0.digest
    assert verify_chain(board)


def test_unknown_kind_rejected():
    board = Board()
    with pytest.raises(ValueError):
        board.append("Gossip", b"")


def test_save_load_round_trip(tallied, tmp_path):
    election, _ = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    loaded = Board.load(path)
    assert loaded.entries == election.board.entries
    assert verify_chain(loaded)


def test_blank_line_in_a_saved_board_is_skipped(tallied, tmp_path):
    election, config = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["  "] + lines[3:]) + "\n")
    loaded = Board.load(path)
    assert loaded.entries == election.board.entries
    assert _verify(election, config, loaded).overall


# Rows are split as `read_text().splitlines()` splits them: universal
# newlines, then `str.splitlines` on each physical line.
@pytest.mark.parametrize(
    "rewrite",
    [
        lambda lines: "\r\n".join(lines) + "\r\n",
        lambda lines: "\r".join(lines) + "\r",
        lambda lines: "\n".join(lines[:2] + [" \t "] + lines[2:]) + "\n",
        lambda lines: "\n".join(lines),
    ],
    ids=["CRLF endings", "lone CRs", "whitespace-only line", "no final newline"],
)
def test_a_rewritten_board_loads_to_the_same_entries(tallied, tmp_path, rewrite):
    election, _ = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    path.write_bytes(rewrite(path.read_text().splitlines()).encode())
    assert Board.load(path).entries == election.board.entries


@pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x85", "\u2028"])
@pytest.mark.parametrize("where", ["middle", "end"])
def test_a_line_break_inside_row_3_is_numbered_as_splitlines_numbers_it(
    tallied, tmp_path, mark, where
):
    """A mark in the middle of row 3 cuts it, so line 3 is its first half; one
    at its end adds a blank line 4, so row 5, with an unknown kind, is line 6."""
    election, _ = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    rows = path.read_text().splitlines()
    cut = len(rows[2]) // 2 if where == "middle" else len(rows[2])
    rows[2] = rows[2][:cut] + mark + rows[2][cut:]
    rows[4] = rows[4].replace(f'"kind": "{election.board.entries[4].kind}"', '"kind": "Gossip"')
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    number, bad = (3, rows[2][:cut]) if where == "middle" else (6, rows[4])
    assert path.read_text(encoding="utf-8").splitlines()[number - 1] == bad
    with pytest.raises(ValueError, match=f"^line {number}: "):
        Board.load(path)


def test_a_byte_that_is_not_utf8_raises_value_error(tallied, tmp_path):
    election, _ = tallied
    path = tmp_path / "board.jsonl"
    election.board.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:200] + b"\xff" + data[200:])
    with pytest.raises(ValueError):
        Board.load(path)


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc above those held before) of call()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _large_board(path):
    """A board of 100 Login rows of 10,500 random payload bytes, saved to
    `path` (a 2.1 MB file)."""
    board = Board()
    for i in range(100):
        board.append(KIND_LOGIN, derive_rng("stream", i).randbytes(10_500))
    board.save(path)
    assert path.stat().st_size > 2_000_000
    return board


def test_save_streams_rows(tmp_path):
    """Save formats and writes one row at a time: it holds under a tenth of
    the file at once."""
    board = _large_board(tmp_path / "first.jsonl")
    _, peak = _traced_peak(lambda: board.save(tmp_path / "board.jsonl"))
    assert (tmp_path / "board.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()
    assert peak < (tmp_path / "board.jsonl").stat().st_size / 10


def test_load_streams_rows(tmp_path):
    """Load reads and checks one row at a time: it holds less than the file,
    the entries it builds included."""
    path = tmp_path / "board.jsonl"
    board = _large_board(path)
    loaded, peak = _traced_peak(lambda: Board.load(path))
    assert loaded.entries == board.entries
    assert peak < path.stat().st_size


def test_chain_detects_payload_edit(tallied):
    election, _ = tallied
    board = election.board
    mutated = replace_payload(
        board, 1, flip_byte(board.entries[1].payload), fix_chain=False
    )
    assert not verify_chain(mutated)


def test_chain_detects_deletion(tallied):
    election, _ = tallied
    assert not verify_chain(drop_entry(election.board, 2, fix_chain=False))


def test_rechained_board_passes_chain_check(tallied):
    election, _ = tallied
    board = drop_entry(election.board, 2, fix_chain=True)
    assert verify_chain(board)


def test_payload_codecs_round_trip(tallied):
    election, _ = tallied
    board = election.board
    transfer = TransferPayload.from_bytes(board.find(KIND_TRANSFER)[0].payload)
    assert isinstance(transfer.label, str) and len(transfer.batch_digest) == 32
    staged = MixStagePayload.from_bytes(board.find(KIND_MIX_STAGE)[0].payload)
    assert staged.index == 0 and staged.stage.batch_in.items
    pd = PartialDecryptionPayload.from_bytes(board.find(KIND_PARTIAL_DECRYPTION)[0].payload)
    assert (pd.item_index, pd.slot_index, pd.trustee_index) == (0, 0, 1)
    claim = DecryptedBallotPayload.from_bytes(board.find(KIND_DECRYPTED_BALLOT)[0].payload)
    assert claim.valid and sum(claim.exponents) == 1
    result = ResultPayload.from_bytes(board.find(KIND_RESULT)[0].payload)
    assert sum(result.counts) == result.kept_count
    assert result.cast_count == result.kept_count + result.revoked_count


def test_universal_verify_passes_honest_board(tallied):
    election, config = tallied
    report = universal_verify(
        election.params,
        election.board,
        config,
        election.election_key.h,
        election.commitments,
    )
    assert report.overall, report.failures
    assert report.signatures_skipped
    assert set(report.checks) == {
        "chain_integrity",
        "wellformedness",
        "mix_stages",
        "decryption_proofs",
        "count_recomputation",
    }


def _verify(election, config, board):
    return universal_verify(
        election.params, board, config, election.election_key.h, election.commitments
    )


def test_tampered_ballot_payload_fails_wellformedness(tallied):
    election, config = tallied
    board = election.board
    seq = board.find(KIND_BALLOT_CAST)[0].seq
    # flip a byte inside the first slot ciphertext (past the 4+32 digest
    # prefix) and re-chain so only proof verification can catch it
    payload = board.entries[seq].payload
    mutated = replace_payload(board, seq, flip_byte(payload, 40), fix_chain=True)
    report = _verify(election, config, mutated)
    assert not report.checks["wellformedness"]
    assert report.checks["chain_integrity"]


def test_swapped_mix_output_rows_fail(tallied):
    from evote.mixnet import MixBatch, MixStage

    election, config = tallied
    board = election.board
    entry = board.find(KIND_MIX_STAGE)[-1]
    staged = MixStagePayload.from_bytes(entry.payload)
    idx, stage = staged.index, staged.stage
    items = list(stage.batch_out.items)
    items[0], items[1] = items[1], items[0]
    forged_stage = MixStage(
        batch_in=stage.batch_in,
        batch_out=MixBatch(items=tuple(items)),
        proof=stage.proof,
    )
    mutated = replace_payload(
        board, entry.seq, MixStagePayload(idx, forged_stage).to_bytes(), fix_chain=True
    )
    report = _verify(election, config, mutated)
    assert not report.checks["mix_stages"]
    assert report.checks["chain_integrity"]


def test_broken_stage_continuity_fails(tallied):
    from evote.mixnet import MixStage

    election, config = tallied
    board = election.board
    entries = board.find(KIND_MIX_STAGE)
    stage0 = MixStagePayload.from_bytes(entries[0].payload).stage
    staged1 = MixStagePayload.from_bytes(entries[1].payload)
    idx1, stage1 = staged1.index, staged1.stage
    forged_stage = MixStage(
        batch_in=stage0.batch_in,  # should be stage0.batch_out
        batch_out=stage1.batch_out,
        proof=stage1.proof,
    )
    mutated = replace_payload(
        board, entries[1].seq, MixStagePayload(idx1, forged_stage).to_bytes(), fix_chain=True
    )
    report = _verify(election, config, mutated)
    assert not report.checks["mix_stages"]


def test_stage_proven_from_another_input_breaks_continuity(tallied):
    """Stage 1 re-mixes the first input with a valid proof: only the
    continuity rule catches it, at stage 1 and again at stage 2."""
    from evote.mixnet import MixStage, mix_once

    election, config = tallied
    board = election.board
    entries = board.find(KIND_MIX_STAGE)
    stage0 = MixStagePayload.from_bytes(entries[0].payload).stage
    out, proof = mix_once(
        election.params,
        election.election_key.h,
        stage0.batch_in,
        derive_rng("bulletin", "re-mix"),
        config.proof_rounds,
    )
    forged = MixStagePayload(1, MixStage(batch_in=stage0.batch_in, batch_out=out, proof=proof))
    mutated = replace_payload(board, entries[1].seq, forged.to_bytes(), True)
    report = _verify(election, config, mutated)
    assert report.failures == [
        f"entry {entries[1].seq}: mix stage 1 input breaks continuity",
        f"entry {entries[2].seq}: mix stage 2 input breaks continuity",
    ]


def test_missing_mix_stage_fails(tallied):
    election, config = tallied
    board = election.board
    seq = board.find(KIND_MIX_STAGE)[-1].seq
    report = _verify(election, config, drop_entry(board, seq, fix_chain=True))
    assert not report.checks["mix_stages"]


def test_corrupted_partial_decryption_fails(tallied):
    election, config = tallied
    board = election.board
    seq = board.find(KIND_PARTIAL_DECRYPTION)[0].seq
    payload = board.entries[seq].payload
    mutated = replace_payload(board, seq, flip_byte(payload, len(payload) - 1), fix_chain=True)
    report = _verify(election, config, mutated)
    assert not report.checks["decryption_proofs"]
    assert report.checks["chain_integrity"]


def test_decryption_response_plus_q_fails(tallied):
    """z and z + q satisfy the same equation; only the range check tells
    the two boards apart."""
    election, config = tallied
    board = election.board
    entry = board.find(KIND_PARTIAL_DECRYPTION)[0]
    pd = PartialDecryptionPayload.from_bytes(entry.payload)
    assert pd.proof.response == 4
    edited = replace(pd, proof=replace(pd.proof, response=4 + election.params.q))
    assert edited.proof.response == 15
    mutated = replace_payload(board, entry.seq, edited.to_bytes(), fix_chain=True)
    report = _verify(election, config, mutated)
    assert report.checks["chain_integrity"]
    assert not report.checks["decryption_proofs"]
    rejected = f"entry {entry.seq}: decryption proof rejected (trustee {pd.trustee_index})"
    assert rejected in report.failures


def test_zero_partial_fails_by_name_and_does_not_raise(tallied):
    """A product of partials that is 0 mod p has no inverse: the slot's
    plaintext is reported as a mismatch, not an exception."""
    election, config = tallied
    board = election.board
    entry = board.find(KIND_PARTIAL_DECRYPTION)[0]
    pd = PartialDecryptionPayload.from_bytes(entry.payload)
    mutated = replace_payload(board, entry.seq, replace(pd, d=0).to_bytes(), fix_chain=True)
    report = _verify(election, config, mutated)
    assert report.failures == [
        "entry 19: decryption proof rejected (trustee 1)",
        "entry 28: item 0 slot 0: claimed plaintext mismatch",
    ]


def test_altered_result_counts_fail(tallied):
    election, config = tallied
    board = election.board
    entry = board.find(KIND_RESULT)[0]
    result = ResultPayload.from_bytes(entry.payload)
    forged = replace(result, counts=(result.counts[0] + 1,) + result.counts[1:]).to_bytes()
    mutated = replace_payload(board, entry.seq, forged, fix_chain=True)
    report = _verify(election, config, mutated)
    assert not report.checks["count_recomputation"]
    assert report.checks["chain_integrity"]


def test_every_one_byte_transfer_edit_is_reported_not_raised(tallied):
    """Edits that break the framing or the UTF-8 of the label, or change the
    digest, each fail the mix check by name; none escapes as an exception."""
    election, config = tallied
    board = election.board
    transfer = board.find(KIND_TRANSFER)[0]
    for offset in range(len(transfer.payload)):
        edited = bytearray(transfer.payload)
        edited[offset] ^= 0x80
        mutated = replace_payload(board, transfer.seq, bytes(edited), fix_chain=True)
        report = _verify(election, config, mutated)
        assert report.checks["chain_integrity"]
        assert not report.checks["mix_stages"], offset
        assert any(
            f"entry {transfer.seq}:" in f or "transferred batch" in f for f in report.failures
        ), (offset, report.failures)


def test_transfer_with_another_label_fails(tallied):
    election, config = tallied
    board = election.board
    transfer = board.find(KIND_TRANSFER)[0]
    handoff = TransferPayload.from_bytes(transfer.payload)
    assert handoff.label == TRANSFER_LABEL
    forged = replace(handoff, label="to-mixnes").to_bytes()
    report = _verify(election, config, replace_payload(board, transfer.seq, forged, True))
    assert not report.checks["mix_stages"]
    assert report.failures == [f"entry {transfer.seq}: transfer label 'to-mixnes'"]


def test_validity_flag_of_two_is_unparseable(tallied):
    election, config = tallied
    board = election.board
    entry = board.find(KIND_DECRYPTED_BALLOT)[0]
    claim = DecryptedBallotPayload.from_bytes(entry.payload)
    assert claim.valid
    forged = encode(claim.item_index, claim.exponents, 2)
    report = _verify(election, config, replace_payload(board, entry.seq, forged, True))
    assert report.checks["chain_integrity"]
    assert not report.checks["decryption_proofs"]
    assert f"entry {entry.seq}: unparseable decrypted ballot" in report.failures


def test_coercion_flag_of_two_is_unparseable(tallied):
    election, config = tallied
    board = election.board
    entry = board.find(KIND_RESULT)[0]
    r = ResultPayload.from_bytes(entry.payload)
    forged = encode(r.counts, r.invalid_count, r.revoked_count, r.kept_count, r.cast_count, 2)
    report = _verify(election, config, replace_payload(board, entry.seq, forged, True))
    assert not report.checks["count_recomputation"]
    assert report.failures == [f"entry {entry.seq}: unparseable result payload"]


def test_missing_or_repeated_transfer_fails(tallied):
    election, config = tallied
    board = election.board
    transfer = board.find(KIND_TRANSFER)[0]
    report = _verify(election, config, drop_entry(board, transfer.seq, fix_chain=True))
    assert not report.checks["mix_stages"]
    assert report.failures == ["expected one transfer entry, found 0"]
    repeated = clone_board(board)
    repeated.entries.append(transfer)
    report = _verify(election, config, rechain(repeated))
    assert report.failures == ["expected one transfer entry, found 2"]


def _edit_receipt_digest(board):
    receipt = board.find(KIND_RECEIPT)[0]
    forged = ReceiptPayload(flip_byte(ReceiptPayload.from_bytes(receipt.payload).ballot_digest))
    return replace_payload(board, receipt.seq, forged.to_bytes(), fix_chain=True)


# Election.cast writes Login, BallotCast, Receipt back to back: entries 0-2
# belong to the first cast ballot.
@pytest.mark.parametrize(
    "mutate, failure",
    [
        (lambda b: drop_entry(b, 0, fix_chain=True), "entry 0: no Login entry beside it"),
        (lambda b: drop_entry(b, 2, fix_chain=True), "entry 1: no Receipt entry beside it"),
        (_edit_receipt_digest, "entry 2: receipt does not repeat the ballot digest"),
        (
            lambda b: rechain(Board(entries=b.entries[:4] + b.entries[3:])),
            "entry 3: Login entry not beside a cast ballot",
        ),
    ],
    ids=["dropped login", "dropped receipt", "edited receipt digest", "stray login"],
)
def test_login_and_receipt_stand_beside_their_cast_ballot(tallied, mutate, failure):
    election, config = tallied
    assert [e.kind for e in election.board.entries[:3]] == [
        KIND_LOGIN,
        KIND_BALLOT_CAST,
        KIND_RECEIPT,
    ]
    report = _verify(election, config, mutate(election.board))
    assert report.failures == [failure]
    assert not report.checks["wellformedness"]
    assert report.checks["chain_integrity"]


def test_failures_about_one_entry_name_it(tallied):
    election, config = tallied
    board = election.board
    stage_entry = board.find(KIND_MIX_STAGE)[-1]
    staged = MixStagePayload.from_bytes(stage_entry.payload)
    rows = staged.stage.batch_out.items
    swapped = replace(staged.stage.batch_out, items=(rows[1], rows[0]) + rows[2:])
    forged_stage = replace(staged, stage=replace(staged.stage, batch_out=swapped))
    mutated = replace_payload(board, stage_entry.seq, forged_stage.to_bytes(), True)
    report = _verify(election, config, mutated)
    assert report.failures[0] == (
        f"entry {stage_entry.seq}: mix stage {staged.index} proof rejected"
    )
    # The swapped rows also fail every decryption proof of the two items.
    assert all(f.startswith("entry ") for f in report.failures), report.failures

    claim_entry = board.find(KIND_DECRYPTED_BALLOT)[0]
    claim = DecryptedBallotPayload.from_bytes(claim_entry.payload)
    forged = replace(claim, exponents=(claim.exponents[0] + 1,) + claim.exponents[1:])
    mutated = replace_payload(board, claim_entry.seq, forged.to_bytes(), True)
    report = _verify(election, config, mutated)
    result_seq = board.find(KIND_RESULT)[0].seq
    assert report.failures[:2] == [
        f"entry {claim_entry.seq}: item {claim.item_index} slot 0: claimed plaintext mismatch",
        f"entry {claim_entry.seq}: item {claim.item_index}: validity flag incorrect",
    ]
    assert report.failures[2].startswith(f"entry {result_seq}: recomputed ResultPayload(")
    assert len(report.failures) == 3


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=max(25, settings().max_examples // 4), deadline=None)
@given(data=st.data())
def test_every_one_byte_edit_is_reported_not_raised(tallied, kind, data):
    """A one-byte edit of any entry kind, rechained, never makes the verifier
    raise; the report keeps every named check."""
    election, config = tallied
    board = election.board
    entry = data.draw(st.sampled_from(board.find(kind)))
    offset = data.draw(st.integers(0, len(entry.payload) - 1))
    edited = bytearray(entry.payload)
    edited[offset] ^= data.draw(st.integers(1, 255))
    report = _verify(election, config, replace_payload(board, entry.seq, bytes(edited), True))
    assert report.checks["chain_integrity"]
    assert len(report.checks) == 5


def _move(board, entries, to):
    """The board with `entries` taken out and put back at index `to` of the
    rest (at the end when None), rechained."""
    rest = [e for e in board.entries if e not in entries]
    to = len(rest) if to is None else to
    return rechain(Board(entries=rest[:to] + list(entries) + rest[to:]))


def _duplicate_first(kind):
    def mutate(board):
        entry = board.find(kind)[0]
        entries = list(board.entries)
        entries.insert(entry.seq + 1, entry)
        return rechain(Board(entries=entries))

    return mutate


def _reverse_mix_stages(board):
    stages = board.find(KIND_MIX_STAGE)
    entries = list(board.entries)
    for stage, replacement in zip(stages, reversed(stages)):
        entries[stage.seq] = replacement
    return rechain(Board(entries=entries))


# The verifier reads the board in the order the tally writes it: the cast
# ballots, the transfer, the mix stages in index order, per item each slot's
# partial decryptions by trustee and then the decrypted ballot, the result.
# Each edit keeps every entry's bytes and only moves or repeats entries.
@pytest.mark.parametrize(
    "mutate, check, failure",
    [
        (
            _duplicate_first(KIND_PARTIAL_DECRYPTION),
            "decryption_proofs",
            "entry 20: PartialDecryption entry where the partial decryption"
            " for item 0 slot 0 trustee 2 is due",
        ),
        (
            _duplicate_first(KIND_DECRYPTED_BALLOT),
            "decryption_proofs",
            "entry 29: DecryptedBallot entry where the partial decryption"
            " for item 1 slot 0 trustee 1 is due",
        ),
        (_reverse_mix_stages, "mix_stages", "expected mix stages 0 to 2, found [2, 1, 0]"),
        (
            lambda b: _move(b, b.find(KIND_TRANSFER), None),
            "mix_stages",
            "entry 59: transfer not between the casts and the mix stages",
        ),
        (
            lambda b: _move(b, b.entries[12:15], None),
            "mix_stages",
            "entry 12: transfer not between the casts and the mix stages",
        ),
        (
            lambda b: _move(b, b.find(KIND_RESULT), 0),
            "count_recomputation",
            "entry 0: result before the last decryption entry",
        ),
        (
            lambda b: _move(b, b.find(KIND_PARTIAL_DECRYPTION)[:1], 16),
            "decryption_proofs",
            "entry 16: decryption entry before the last mix stage",
        ),
        (
            lambda b: rechain(
                Board(entries=b.entries[:-1] + b.find(KIND_DECRYPTED_BALLOT)[-1:] + b.entries[-1:])
            ),
            "decryption_proofs",
            "entry 59: DecryptedBallot entry past the last item",
        ),
    ],
    ids=[
        "repeated partial decryption",
        "repeated decrypted ballot",
        "mix stages reversed",
        "transfer at the end",
        "last cast after the result",
        "result first",
        "decryption before the last mix stage",
        "decrypted ballot past the last item",
    ],
)
def test_entries_out_of_board_order_fail(tallied, mutate, check, failure):
    election, config = tallied
    assert [e.kind for e in election.board.entries[12:16]] == [
        KIND_LOGIN,
        KIND_BALLOT_CAST,
        KIND_RECEIPT,
        KIND_TRANSFER,
    ]
    report = _verify(election, config, mutate(election.board))
    assert report.checks["chain_integrity"]
    assert not report.checks[check]
    assert report.failures[0] == failure


def test_decrypted_ballot_with_an_extra_exponent_fails(tallied):
    election, config = tallied
    board = election.board
    entry = board.find(KIND_DECRYPTED_BALLOT)[0]
    claim = DecryptedBallotPayload.from_bytes(entry.payload)
    forged = replace(claim, exponents=claim.exponents + (0,))
    report = _verify(election, config, replace_payload(board, entry.seq, forged.to_bytes(), True))
    assert report.checks["chain_integrity"]
    assert not report.checks["decryption_proofs"]
    assert report.failures[0] == f"entry {entry.seq}: item {claim.item_index}: wrong slot count"


def test_walk_that_stops_early_leaves_nothing_to_recount(tallied):
    """The recount needs every claim: after the walk stops, the count check
    names that instead of recounting from the claims read so far."""
    election, config = tallied
    report = _verify(election, config, _duplicate_first(KIND_PARTIAL_DECRYPTION)(election.board))
    assert report.failures == [
        "entry 20: PartialDecryption entry where the partial decryption"
        " for item 0 slot 0 trustee 2 is due",
        "no complete decryption to recount from",
    ]


def test_each_entry_is_decoded_once(tallied, monkeypatch):
    election, config = tallied
    read = []

    def counted(decode):
        return lambda data: read.append(data) or decode(data)

    for record, _, _ in RECORDS.values():
        monkeypatch.setattr(record, "from_bytes", counted(record.from_bytes))
    assert _verify(election, config, election.board).overall
    assert sorted(read) == sorted(e.payload for e in election.board.entries)


def test_unparseable_login_fails_wellformedness(tallied):
    election, config = tallied
    assert election.board.entries[0].kind == KIND_LOGIN
    report = _verify(election, config, replace_payload(election.board, 0, b"garbage", True))
    assert report.checks["chain_integrity"]
    assert report.failures == ["entry 0: unparseable login payload"]


def test_unknown_kind_fails_the_chain_check(tallied):
    """Only a hand-built board can hold an entry of a kind with no record;
    the verifier names it instead of raising."""
    election, config = tallied
    entries = list(election.board.entries)
    seq, prev = len(entries), entries[-1].digest
    entries.append(BulletinEntry(seq, "Gossip", b"", prev, entry_digest(prev, seq, "Gossip", b"")))
    report = _verify(election, config, Board(entries=entries))
    assert verify_chain(Board(entries=entries))
    assert report.failures == [f"entry {seq}: unknown kind 'Gossip'"]
    assert not report.checks["chain_integrity"]
