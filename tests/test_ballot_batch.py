"""One batch per ballot check, at cast and in the verifier.

`ballot.verify_ballot` hands a cast ballot's signature statement and the
statements of its well-formedness proof (both branches of each slot, then
the sum) to `zkp.holds` as one list, and `bulletin._check_wellformed` holds
back the failure of every cast ballot on the board on the claim that its
statements hold.  On prod3072 they are checked in one small-exponent batch,
where a wrapped real-branch challenge crosses its equation as q minus it; a
failed batch is bisected, and a statement the batch does not admit is
checked alone.  The verdicts, and so the casts accepted and the verifier's
failure strings, must be the ones that checking each statement alone gives.
A `c1` replaced by p - c1 leaves the subgroup; the proof re-ground for it
holds exactly when that slot's real-branch challenge is even.
"""

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from board_utils import exact_only, replace_payload
from evote import groups, zkp
from evote.ballot import BallotCastPayload, compose_ballot, encode_choice
from evote.bulletin import KIND_BALLOT_CAST, universal_verify
from evote.canonical import derive_rng, encode
from evote.groups import (
    PROD_GROUP_3072,
    TEST_GROUP,
    Ciphertext,
    encrypt,
    rand_scalar,
    threshold_keygen,
)
from evote.registry import Registry, enroll_voters, sig_statement, sign
from evote.tally import Election
from evote.zkp import prove_wellformed, wellformed_statements

PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@functools.cache
def _holds_alone(params, statement):
    return statement is not None and zkp._holds(params, *statement)


def _alone(params, statements):
    """The reference for one `holds` list: each statement checked alone."""
    return [_holds_alone(params, s) for s in statements]


@functools.cache
def _negated_c1(params, pk, parity):
    """Slots of a ballot for candidate 0 of 2, with slot 0's c1 replaced by
    p - c1, and a proof made for those slots from their randomness.  The
    randomness is redrawn until slot 0's real-branch challenge wrapped and
    has `parity`, and the sum challenge is even, so that only slot 0's real
    branch can fail: the sum's c1 product has left the subgroup too."""
    for k in itertools.count():
        rng = derive_rng("ballot-batch", "negated c1", k)
        randomness = [rand_scalar(params, rng) for _ in range(2)]
        slots = [encrypt(params, pk, bit, r) for bit, r in zip((1, 0), randomness)]
        slots[0] = Ciphertext(params.p - slots[0].c1, slots[0].c2)
        proof = prove_wellformed(params, pk, slots, randomness, 0)
        e = proof.slots[0].e1
        if (
            e in params._wrapped_exponents
            and e % 2 == parity
            and proof.sum_proof.challenge % 2 == 0
        ):
            return tuple(slots), proof


def _slot_edit(index, **change):
    """An edit of slot `index`'s proof: each field named in `change` is
    passed through its function, with the group."""

    def edit(params, pk, record):
        slots = list(record.wellformed.slots)
        sp = slots[index]
        slots[index] = replace(sp, **{f: fn(params, getattr(sp, f)) for f, fn in change.items()})
        return replace(record, wellformed=replace(record.wellformed, slots=tuple(slots)))

    return edit


def _sum_response_plus_one(params, pk, record):
    sp = record.wellformed.sum_proof
    sum_proof = replace(sp, response=(sp.response + 1) % params.q)
    return replace(record, wellformed=replace(record.wellformed, sum_proof=sum_proof))


def _swapped_slot_proofs(params, pk, record):
    slots = record.wellformed.slots[::-1]
    return replace(record, wellformed=replace(record.wellformed, slots=slots))


def _negated(parity):
    def edit(params, pk, record):
        slots, proof = _negated_c1(params, pk, parity)
        return replace(record, slots=slots, wellformed=proof)

    return edit


# Edits of v1's ballot (slots and proof), each with whether it is rejected.
# v1 votes for candidate 0: slot 1's real branch is its 0 branch, whose
# challenge wrapped.  A c1 outside the subgroup with an even challenge is
# accepted: the cast and the verifier test no subgroup membership (F3).
EDITS = {
    "honest": (lambda params, pk, record: record, False),
    "slot response plus one": (_slot_edit(1, z0=lambda params, z: (z + 1) % params.q), True),
    "slot response plus q": (_slot_edit(1, z0=lambda params, z: z + params.q), True),
    "slot commitment times g": (
        _slot_edit(1, commit_g0=lambda params, t: t * params.g % params.p), True
    ),
    "sum response plus one": (_sum_response_plus_one, True),
    "swapped slot proofs": (_swapped_slot_proofs, True),
    "negated c1, odd challenge": (_negated(1), True),
    "negated c1, even challenge": (_negated(0), False),
}


def test_v1_ballot_has_a_wrapped_real_branch_challenge(prod_election):
    params = prod_election.params
    [sb, _] = prod_election.collected
    assert sb.encrypted.wellformed.slots[1].e0 in params._wrapped_exponents


def test_prod_batch_proves_a_non_member_raised_to_a_wrapped_exponent():
    """g^z = t * y^e with y outside the subgroup and e wrapped and even, so
    that it holds, in eight batches of one equation each: every batch
    proves its equation, y keeping its exponent.  Crossed over as q - e, y
    would carry y^q = -1 with it, and a batch would fail whenever its
    weight is odd; the batch must prove it, not the exact check."""
    params = PROD_GROUP_3072
    p, q, g = params.p, params.q, params.g
    y = p - params.exp(g, 12345)
    assert not params.is_element(y)
    for k in range(8):
        e, z = q - 1 - 2 * k, 1000 + k
        assert e in params._wrapped_exponents
        t = pow(g, z, p) * pow(y, -e, p) % p
        system = ((((g, z, True),), ((t, 1, False), (y, e, False))),)
        assert groups.batch_verdicts(params, [system], lambda _, s: s, _unreachable) == [True]


def _unreachable(params, claim):
    raise AssertionError("a claim the batch admits was checked exactly")


def _reports(monkeypatch, election, board):
    """universal_verify's report as dicts: as it is, then with every claim
    decided by its exact check."""

    def verify():
        return universal_verify(
            election.params, board, election.config, election.election_key.h,
            election.commitments,
        ).to_dict()

    with monkeypatch.context() as patch:
        batched = verify()
        exact_only(patch)
        return batched, verify()


@pytest.mark.parametrize("case", EDITS)
def test_prod_batched_and_per_statement_verifier_agree(prod_election, monkeypatch, case):
    """v1's cast entry edited and the board rechained: the report names the
    entry exactly when the per-statement check does, and nothing else."""
    election = prod_election
    params, pk = election.params, election.election_key.h
    edit, rejected = EDITS[case]
    entry = election.board.find(KIND_BALLOT_CAST)[0]
    payload = edit(params, pk, BallotCastPayload.from_bytes(entry.payload))
    board = replace_payload(election.board, entry.seq, payload.to_bytes(), fix_chain=True)
    batched, alone = _reports(monkeypatch, election, board)
    assert batched == alone
    message = f"entry {entry.seq}: well-formedness proof rejected"
    assert batched["failures"] == ([message] if rejected else [])


@pytest.fixture(scope="module")
def open_election(prod_election):
    """prod_election's setup again, open for casting, with the credentials."""
    election, creds = Election.setup(
        prod_election.config, ["v1", "v2"], seed=prod_election.seed
    )
    assert election.election_key == prod_election.election_key
    return election, creds


def _casts(monkeypatch, election, sb):
    """Whether `Election.cast` accepts sb: as it is, then with every
    statement of its check checked alone."""
    with monkeypatch.context() as patch:
        batched = election.cast(sb, now=sb.timestamp) is not None
        exact_only(patch)
        return batched, election.cast(sb, now=sb.timestamp) is not None


def _resigned(params, cred, sb, encrypted):
    signature = sign(params, cred.signing_key, encode(encrypted, sb.timestamp))
    return replace(sb, encrypted=encrypted, signature=signature)


@pytest.mark.parametrize("case", [*EDITS, "signature response plus one"])
def test_prod_cast_batched_and_per_statement_agree(
    prod_election, open_election, monkeypatch, case
):
    """v1's ballot edited and re-signed, or with its signature's response off
    by one, is rejected at cast exactly when the per-statement check rejects
    it."""
    election, creds = open_election
    params, pk = election.params, election.election_key.h
    [sb, _] = prod_election.collected
    if case == "signature response plus one":
        sig = replace(sb.signature, response=(sb.signature.response + 1) % params.q)
        edited, rejected = replace(sb, signature=sig), True
    else:
        edit, rejected = EDITS[case]
        edited = _resigned(params, creds["v1"], sb, edit(params, pk, sb.encrypted))
    assert _casts(monkeypatch, election, edited) == (not rejected, not rejected)


@functools.cache
def _pool(name):
    """The signature statement and the well-formedness statements of a
    2-candidate ballot for each choice, under a 2-trustee key."""
    params = PROFILES[name]
    key, _ = threshold_keygen(params, 2, derive_rng("ballot-batch", name))
    registry = Registry(params)
    [cred] = enroll_voters(registry, [("v", derive_rng("ballot-batch", name, "enroll"))])
    statements = []
    for choice in (0, 1):
        rng = derive_rng("ballot-batch", name, choice)
        sb = compose_ballot(params, cred, key.h, encode_choice(choice, 2), choice, rng)
        encrypted = sb.encrypted
        message = sb.signed_message()
        statements.append(sig_statement(params, cred.verify_key, message, sb.signature))
        statements += wellformed_statements(params, key.h, encrypted.slots, encrypted.wellformed)
    if params.batches:
        assert any(s[3] in params._wrapped_exponents for s in statements)
    return statements


def _tampered(params, statement, how):
    """A statement (bases, values, commits, e, z) edited by `how`."""
    bases, values, commits, e, z = statement
    p, q, g = params.p, params.q, params.g
    if how == "response plus one":
        return bases, values, commits, e, (z + 1) % q
    if how == "response plus q":
        return bases, values, commits, e, z + q
    if how == "challenge plus q":
        return bases, values, commits, e + q, z
    if how == "commitment times g":
        return bases, values, (commits[0] * g % p, *commits[1:]), e, z
    if how == "negated commitment":
        return bases, values, (p - commits[0], *commits[1:]), e, z
    if how == "negated value":
        return bases, (p - values[0], *values[1:]), commits, e, z
    if how == "none":
        return None
    return statement


TAMPERS = [
    "honest", "response plus one", "response plus q", "challenge plus q",
    "commitment times g", "negated commitment", "negated value", "none",
]


@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=max(4, settings().max_examples // 25), deadline=None)
@given(data=st.data())
def test_batched_ballot_check_matches_the_per_statement_check(name, data):
    """Lists of a ballot's statements, each honest or edited: out of range,
    a wrong commitment, or a public value or commitment moved out of the
    subgroup (which holds when its challenge is even); on prod3072 some of
    their challenges wrapped.  A statement may repeat."""
    params = PROFILES[name]
    pool = _pool(name)
    statements = [
        _tampered(params, data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(TAMPERS)))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    assert zkp.holds(params, statements) == _alone(params, statements)
