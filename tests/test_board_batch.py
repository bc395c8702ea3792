"""One batch per board in the verifier, and the tally's order.

On prod3072 `universal_verify` runs each check once.  A failure that rests
on a proof (each cast ballot's statements, every opened mix link and every
decryption proof) is held back on its claim, and `groups.settle` decides
every claim in one `groups.batch_verdicts` call, which bisects the batch
when it fails.  So a failure names the same entries with the same text as
when every claim is decided by its exact check (`board_utils.exact_only`).
The tally checks its mix before it decrypts anything, since decrypting an
unchecked mix could open a targeted vote.
"""

from dataclasses import replace

import pytest

from board_utils import exact_only, replace_payload
from evote import bulletin, groups, tally, zkp
from evote.ballot import BallotCastPayload
from evote.bulletin import (
    KIND_BALLOT_CAST,
    KIND_MIX_STAGE,
    KIND_PARTIAL_DECRYPTION,
    MixStagePayload,
    PartialDecryptionPayload,
    universal_verify,
)


def _spy_batches(monkeypatch, events, tag=lambda module: "batch"):
    """Record `tag(module)` in `events` for each `batch_verdicts` call, by
    whichever module's name it is made."""
    verdicts = groups.batch_verdicts
    for module in (groups, zkp):

        def spy(*args, module=module):
            events.append(tag(module))
            return verdicts(*args)

        monkeypatch.setattr(module, "batch_verdicts", spy)


def _verify(election, board):
    return universal_verify(
        election.params, board, election.config, election.election_key.h, election.commitments
    )


def test_prod_honest_board_is_one_batch_with_two_full_length_comb_powers(
    prod_election, monkeypatch
):
    """The ballots', the mix's and the decryptions' systems go to one batch,
    which raises g and the election key each once at full length."""
    election = prod_election
    params = election.params
    cols = params._comb_widths[0][0]
    batches, full_powers = [], []
    comb = groups._comb

    def comb_spy(p, base, width):
        if width == cols:
            full_powers.append(base)
        return comb(p, base, width)

    _spy_batches(monkeypatch, batches)
    monkeypatch.setattr(groups, "_comb", comb_spy)
    assert _verify(election, election.board).overall
    assert len(batches) == 1
    assert sorted(full_powers) == sorted([params.g, election.election_key.h])


def test_prod_tally_checks_its_mix_before_decrypting_then_batches_the_decryptions(
    prod_election, monkeypatch
):
    election = prod_election
    events = []
    _spy_batches(monkeypatch, events, tag=lambda module: f"{module.__name__} batch")
    decrypt = tally.partial_decrypt

    def decrypt_spy(*args):
        events.append("partial_decrypt")
        return decrypt(*args)

    monkeypatch.setattr(tally, "partial_decrypt", decrypt_spy)
    tally.run_tally(
        election.params, election.config, election.collected, election.trustees,
        election.election_key, bulletin.Board(), election.seed,
    )
    slots = sum(len(item) for item in election.result.mixed_batch.items)
    assert events == ["evote.groups batch", *["partial_decrypt"] * slots, "evote.zkp batch"]


def _edited(board, kind, index, edit):
    """The board, rechained, with the index-th `kind` entry's record passed
    through `edit`; and that entry's seq."""
    entry = board.find(kind)[index]
    record = bulletin.RECORDS[kind][0].from_bytes(entry.payload)
    return replace_payload(board, entry.seq, edit(record).to_bytes(), fix_chain=True), entry.seq


def _slot_response_plus_one(q):
    def edit(cast: BallotCastPayload):
        slots = list(cast.wellformed.slots)
        slots[1] = replace(slots[1], z0=(slots[1].z0 + 1) % q)
        return replace(cast, wellformed=replace(cast.wellformed, slots=tuple(slots)))

    return edit


def _link_scalar_plus_one(q):
    def edit(payload: MixStagePayload):
        proof = payload.stage.proof
        link = proof.rounds[0][0]
        bad = replace(link, scalars=((link.scalars[0] + 1) % q, *link.scalars[1:]))
        rounds = ((bad, *proof.rounds[0][1:]), *proof.rounds[1:])
        stage = replace(payload.stage, proof=replace(proof, rounds=rounds))
        return replace(payload, stage=stage)

    return edit


def _response_plus_one(q):
    def edit(pd: PartialDecryptionPayload):
        return replace(pd, proof=replace(pd.proof, response=(pd.proof.response + 1) % q))

    return edit


@pytest.mark.parametrize(
    "kind, edit, failure",
    [
        (KIND_BALLOT_CAST, _slot_response_plus_one, "well-formedness proof rejected"),
        (KIND_MIX_STAGE, _link_scalar_plus_one, "mix stage 0 proof rejected"),
    ],
    ids=["cast ballot", "mix link"],
)
def test_prod_edits_in_two_checks_are_named_as_each_alone_names_them(
    prod_election, monkeypatch, kind, edit, failure
):
    """A cast ballot's slot response, or a mix link's scalar, off by one, and
    a partial decryption's response off by one: the joint batch fails, and
    the report is the one that exact checks give, naming both entries."""
    election = prod_election
    q = election.params.q
    board, seq = _edited(election.board, kind, 0, edit(q))
    board, pd_seq = _edited(board, KIND_PARTIAL_DECRYPTION, 1, _response_plus_one(q))
    batched = _verify(election, board).to_dict()
    with monkeypatch.context() as patch:
        exact_only(patch)
        alone = _verify(election, board).to_dict()
    assert batched == alone
    trustee = PartialDecryptionPayload.from_bytes(board.entries[pd_seq].payload).trustee_index
    assert batched["failures"] == [
        f"entry {seq}: {failure}",
        f"entry {pd_seq}: decryption proof rejected (trustee {trustee})",
    ]


def _spy_checks(monkeypatch):
    """The name of each `bulletin._check_*` call, in order."""
    calls = []
    for name in ("_check_wellformed", "_check_mix", "_check_decryption", "_check_counts"):
        check = getattr(bulletin, name)

        def spy(*args, name=name, check=check):
            calls.append(name)
            return check(*args)

        monkeypatch.setattr(bulletin, name, spy)
    return calls


def test_prod_verify_runs_each_check_once_on_an_honest_and_a_failing_board(
    prod_election, monkeypatch
):
    """One pass: a failing board is not replayed, and its one batch call
    bisects to the bad partial decryption."""
    election = prod_election
    board, seq = _edited(
        election.board, KIND_PARTIAL_DECRYPTION, 1, _response_plus_one(election.params.q)
    )
    checks = ["_check_wellformed", "_check_mix", "_check_decryption", "_check_counts"]
    for edited, overall in ((election.board, True), (board, False)):
        calls, batches = _spy_checks(monkeypatch), []
        _spy_batches(monkeypatch, batches)
        report = _verify(election, edited)
        assert (report.overall, calls, batches) == (overall, checks, ["batch"])
        monkeypatch.undo()
    assert [f for f in report.failures if f.startswith(f"entry {seq}:")] == report.failures
