import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from evote.ballot import coercion_evidence, compose_ballot, encode_choice
from evote import tally
from evote.bulletin import (
    KIND_MIX_STAGE,
    KIND_PARTIAL_DECRYPTION,
    KIND_RESULT,
    KIND_TRANSFER,
    Board,
    PartialDecryptionPayload,
    ResultPayload,
    universal_verify,
)
from evote.canonical import derive_rng
from evote.errors import AlreadyClosed, FairnessViolation, MixRejected
from evote.tally import (
    CoercionVerdict,
    Election,
    ElectionConfig,
    ElectionState,
)


def _make_election(seed=11, voters=("v1", "v2", "v3"), **overrides):
    config = ElectionConfig(candidates=["a", "b", "c"], proof_rounds=4, **overrides)
    return Election.setup(config, list(voters), seed=seed)


def _vote(election, creds, vid, cand, when, nonce=0):
    sb = compose_ballot(
        election.params,
        creds[vid],
        election.election_key.h,
        encode_choice(cand, len(election.config.candidates)),
        timestamp=when,
        rng=derive_rng("tt", vid, when, nonce),
    )
    return election.cast(sb, now=when)


# --- configuration ---

def test_config_validation():
    with pytest.raises(ValueError):
        ElectionConfig(candidates=[])
    with pytest.raises(ValueError):
        ElectionConfig(candidates=["a"], trustee_count=0)
    with pytest.raises(ValueError):
        ElectionConfig(candidates=["a"], coercion_threshold=1.5)
    with pytest.raises(ValueError):
        ElectionConfig(candidates=["a"], group="nonsense")


def test_config_round_trips_through_dict():
    config = ElectionConfig(candidates=["x", "y"], proof_rounds=7)
    assert ElectionConfig.from_dict(config.to_dict()) == config


# --- coercion evidence ---

def test_coercion_flagged_above_threshold():
    verdict = coercion_evidence(6, 94, 0.05)
    assert verdict.flagged
    assert verdict.revoked_fraction == pytest.approx(0.06)


def test_coercion_not_flagged_at_exact_threshold():
    # Strictly greater-than: 5 revoked of 100 at threshold 1/20 stays quiet.
    verdict = coercion_evidence(5, 95, 0.05)
    assert not verdict.flagged
    assert Fraction(5, 100) == Fraction(1, 20)


def test_coercion_no_ballots_is_not_flagged():
    assert not coercion_evidence(0, 0, 0.05).flagged


def test_coercion_boundary_is_exact_not_float():
    # 3/60 == 0.05 exactly; naive float division would drift.
    assert not coercion_evidence(3, 57, 0.05).flagged
    assert coercion_evidence(4, 56, 0.05).flagged


@pytest.mark.parametrize("threshold", [0.05, 0.1, 0.2, 0.3, 0.7])
def test_coercion_threshold_is_compared_as_written(threshold):
    # The doubles nearest 0.3 and 0.7 lie just below 3/10 and 7/10; the
    # written value is the one compared, so a revoked share equal to it
    # never flags and one more re-vote always does.
    written = Fraction(str(threshold))
    revoked, kept = written.numerator, written.denominator - written.numerator
    assert not coercion_evidence(revoked, kept, threshold).flagged
    assert coercion_evidence(revoked + 1, kept, threshold).flagged


# --- state machine ---

def test_happy_path_counts():
    election, creds = _make_election()
    _vote(election, creds, "v1", 1, 1)
    _vote(election, creds, "v2", 2, 2)
    _vote(election, creds, "v3", 1, 3)
    election.close_election()
    result = election.run_tally()
    assert result.counts == [0, 2, 1]
    assert result.invalid_count == 0
    assert result.revoked_count == 0
    assert election.state is ElectionState.TALLIED


def test_revote_filtering_and_flagging():
    election, creds = _make_election(coercion_threshold=0.2)
    _vote(election, creds, "v1", 0, 1)
    _vote(election, creds, "v1", 2, 5, nonce=1)  # re-vote
    _vote(election, creds, "v2", 1, 3)
    election.close_election()
    result = election.run_tally()
    assert result.counts == [0, 1, 1]
    assert result.revoked_count == 1
    # 1 of 2 kept+revoked... fraction 1/3 > 0.2
    assert result.coercion.flagged


def test_published_result_carries_the_coercion_flag():
    election, creds = _make_election(coercion_threshold=0.2)
    _vote(election, creds, "v1", 0, 1)
    _vote(election, creds, "v1", 2, 5, nonce=1)  # re-vote: 1/3 > 0.2
    _vote(election, creds, "v2", 1, 3)
    election.close_election()
    assert election.run_tally().coercion.flagged
    [entry] = election.board.find(KIND_RESULT)
    result = ResultPayload.from_bytes(entry.payload)
    assert result.flagged is True

    def verify(board):
        return universal_verify(
            election.params, board, election.config, election.election_key.h,
            election.commitments,
        )

    assert verify(election.board).overall
    unflagged = Board(entries=list(election.board.entries))
    flipped = replace(result, flagged=False).to_bytes()
    unflagged.entries[entry.seq] = replace(entry, payload=flipped)
    unflagged.rechain()
    report = verify(unflagged)
    assert report.checks["chain_integrity"]
    assert not report.checks["count_recomputation"]


def test_trustees_in_any_order_publish_a_board_that_verifies():
    config = ElectionConfig(candidates=["a", "b"], mix_server_count=1, proof_rounds=2)
    election, creds = Election.setup(config, ["v1", "v2"], seed=1)
    _vote(election, creds, "v1", 0, 1)
    _vote(election, creds, "v2", 1, 2)
    election.close_election()
    trustees = list(reversed(election.trustees))
    result = tally.run_tally(
        election.params, election.config, election.collected, trustees,
        election.election_key, election.board, election.seed,
    )
    assert result.counts == [1, 1]
    report = universal_verify(
        election.params, election.board, election.config, election.election_key.h,
        election.commitments,
    )
    assert report.overall, report.failures
    partials = [
        PartialDecryptionPayload.from_bytes(e.payload).trustee_index
        for e in election.board.find(KIND_PARTIAL_DECRYPTION)
    ]
    assert partials == [1, 2, 3] * 4  # 2 items x 2 slots, in trustee-index order


def test_cheating_mix_stage_is_rejected_before_any_stage_is_published(monkeypatch):
    election, creds = _make_election()
    for i, vid in enumerate(("v1", "v2", "v3")):
        _vote(election, creds, vid, i, i + 1)
    election.close_election()
    mix = tally.run_mixnet

    def cheating_mixnet(*args, **kwargs):
        final, stages = mix(*args, **kwargs)
        stages[1] = replace(stages[1], proof=stages[0].proof)
        return final, stages

    monkeypatch.setattr(tally, "run_mixnet", cheating_mixnet)
    with pytest.raises(MixRejected, match="^mix stage 1 proof rejected$"):
        election.run_tally()
    assert election.board.find(KIND_MIX_STAGE) == []
    assert len(election.board.find(KIND_TRANSFER)) == 1
    assert election.state is ElectionState.CLOSED


def test_tally_before_close_raises():
    election, creds = _make_election()
    _vote(election, creds, "v1", 0, 1)
    with pytest.raises(FairnessViolation):
        election.run_tally()


def test_aggregate_before_close_raises():
    election, creds = _make_election()
    with pytest.raises(FairnessViolation):
        election.aggregate_check()


def test_cast_after_close_raises():
    election, creds = _make_election()
    election.close_election()
    with pytest.raises(AlreadyClosed):
        _vote(election, creds, "v1", 0, 9)


def test_double_close_raises():
    election, _ = _make_election()
    election.close_election()
    with pytest.raises(AlreadyClosed):
        election.close_election()


def test_double_tally_raises():
    election, creds = _make_election()
    _vote(election, creds, "v1", 0, 1)
    election.close_election()
    election.run_tally()
    with pytest.raises(AlreadyClosed):
        election.run_tally()


def test_all_event_interleavings_respect_fairness():
    """cast/close/tally in every order: decryption strictly after close."""
    events = ("cast", "close", "tally")
    for order in itertools.permutations(events):
        election, creds = _make_election(seed=hash(order) % 1000)
        closed = False
        tallied = False
        for ev in order:
            if ev == "cast":
                if closed:
                    with pytest.raises(AlreadyClosed):
                        _vote(election, creds, "v1", 1, 1)
                else:
                    assert _vote(election, creds, "v1", 1, 1) is not None
            elif ev == "close":
                election.close_election()
                closed = True
            elif ev == "tally":
                if not closed:
                    with pytest.raises(FairnessViolation):
                        election.run_tally()
                    assert election.state is ElectionState.OPEN
                else:
                    election.run_tally()
                    tallied = True
        if tallied:
            assert election.state is ElectionState.TALLIED


def test_rejected_ballot_not_stored():
    # A credential for a voter id the registry never enrolled: in the tiny
    # test group key collisions happen, so an unknown id is the reliable
    # rejection path.
    election, creds = _make_election()
    other_election, other_creds = _make_election(
        seed=77, voters=("mallory", "v2", "v3")
    )
    sb = compose_ballot(
        other_election.params,
        other_creds["mallory"],
        election.election_key.h,
        encode_choice(0, 3),
        timestamp=1,
        rng=derive_rng("foreign"),
    )
    assert election.cast(sb, now=1) is None
    assert election.collected == []
    assert election.board.find("BallotCast") == []


# --- aggregate recount ---

def test_aggregate_check_matches_tally():
    election, creds = _make_election()
    _vote(election, creds, "v1", 1, 1)
    _vote(election, creds, "v2", 1, 2)
    _vote(election, creds, "v3", 0, 3)
    election.close_election()
    result = election.run_tally()
    assert election.aggregate_check() == result.counts == [1, 2, 0]


def test_aggregate_check_empty_election():
    election, _ = _make_election()
    election.close_election()
    result = election.run_tally()
    assert result.counts == [0, 0, 0]
    assert election.aggregate_check() == [0, 0, 0]


# --- malformed ballots surfacing as invalid, not crashing ---

def test_dishonest_slot_vector_counted_invalid(grp, monkeypatch):
    """A ballot whose slots decrypt outside {0,1} lands in invalid_count.

    Built by bypassing compose_ballot and casting directly into the
    collected pile (its signature and proof both verify as composed, so we
    inject at the filtered stage instead).  Each slot is decrypted once, so
    each partial proof's statement is made by `decryption_statement` once,
    the slot holding 2 included."""
    from evote.ballot import SignedBallot
    from evote.groups import encrypt, rand_scalar
    from evote.tally import run_tally
    from evote.bulletin import Board
    from evote import zkp

    election, creds = _make_election()
    # Craft slots encrypting (2, 0, 0) with honest per-bit proofs replaced by
    # a proof object of the right shape (never verified by run_tally itself).
    rng = derive_rng("dishonest")
    rs = [rand_scalar(grp, rng) for _ in range(3)]
    slots = tuple(
        encrypt(election.params, election.election_key.h, m, r)
        for m, r in zip((2, 0, 0), rs)
    )
    honest = compose_ballot(
        election.params,
        creds["v1"],
        election.election_key.h,
        encode_choice(0, 3),
        timestamp=1,
        rng=derive_rng("shape"),
    )
    from dataclasses import replace

    forged_encrypted = replace(honest.encrypted, slots=slots)
    forged = replace(honest, encrypted=forged_encrypted)
    verified = []
    statement = zkp.decryption_statement

    def counting_statement(params, *claim):
        verified.append(claim)
        return statement(params, *claim)

    monkeypatch.setattr(zkp, "decryption_statement", counting_statement)
    result = run_tally(
        election.params,
        election.config,
        [forged],
        election.trustees,
        election.election_key,
        Board(),
        seed=5,
    )
    assert result.invalid_count == 1
    assert result.counts == [0, 0, 0]
    assert len(verified) == 3 * len(election.trustees)


def test_invalid_ballot_shifts_aggregate_but_not_counts(grp):
    """The homomorphic aggregate includes a malformed ballot's contribution;
    the validated per-ballot route excludes it.  The two routes diverge by
    exactly that contribution, which is what makes running both worthwhile."""
    from dataclasses import replace

    from evote.bulletin import Board
    from evote.groups import encrypt, rand_scalar
    from evote.tally import aggregate_check, run_tally

    election, creds = _make_election()
    _vote(election, creds, "v2", 0, 1)
    _vote(election, creds, "v3", 1, 2)

    rng = derive_rng("dishonest-aggregate")
    rs = [rand_scalar(grp, rng) for _ in range(3)]
    slots = tuple(
        encrypt(election.params, election.election_key.h, m, r)
        for m, r in zip((0, 2, 0), rs)
    )
    honest = compose_ballot(
        election.params,
        creds["v1"],
        election.election_key.h,
        encode_choice(0, 3),
        timestamp=3,
        rng=derive_rng("shape2"),
    )
    forged = replace(honest, encrypted=replace(honest.encrypted, slots=slots))

    result = run_tally(
        election.params,
        election.config,
        election.collected + [forged],
        election.trustees,
        election.election_key,
        Board(),
        seed=6,
    )
    assert result.counts == [1, 1, 0]
    assert result.invalid_count == 1
    totals = aggregate_check(election.params, result.mixed_batch, election.trustees, 3)
    assert totals == [1, 3, 0]  # off by the forged (0,2,0) exactly
