"""One decryption check for the tally and the verifier.

On prod3072 `zkp.holds` hands the `decryption_statement` of every proof to
`groups.batch_verdicts`, which checks those whose challenge recomputes in
one batch, bisects it when it fails and checks any other alone; the
verifier holds back each proof's failure on the same statement.  The
verdicts, and so the tally's errors and the verifier's failure strings,
must be the ones the per-proof check gives.  A proof re-ground from the trustee's
secret makes the edits the challenge would otherwise catch: a negated d or
commitment, or a negated key share, with a challenge of either parity.
"""

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from board_utils import exact_only, replace_payload
from evote import bulletin, groups, tally, zkp
from evote.bulletin import KIND_PARTIAL_DECRYPTION, PartialDecryptionPayload, universal_verify
from evote.canonical import derive_rng
from evote.errors import InvalidPartialProof
from evote.groups import (
    PROD_GROUP_3072,
    TEST_GROUP,
    encrypt,
    partial_decrypt,
    threshold_decrypt,
    threshold_keygen,
)
from evote.zkp import DOMAIN_CP, DecryptionProof, decryption_statement, holds, nonce

PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


def _reground(params, x, h, ct, d, parity=None, tweak=lambda t: t, salt=0):
    """A proof that ct's c1 raised to the secret x gives d, under the share
    commitment h, made with x: its c1 commitment is passed through `tweak`
    before the challenge, which is re-drawn until it has `parity`."""
    for k in itertools.count():
        w = nonce(params, "test-reground", x, ct.to_bytes(), d, salt, k)
        t_g = params.exp(params.g, w, fixed=True)
        t_c = tweak(params.exp(ct.c1, w))
        e = zkp._challenge(params, DOMAIN_CP, h, ct.to_bytes(), d, t_g, t_c)
        if parity is None or e % 2 == parity:
            return DecryptionProof(t_g, t_c, e, (w + e * x) % params.q)


def _verdicts(params, claims):
    """`holds` of the statement of each claim (h, ct, d, proof)."""
    return holds(params, [decryption_statement(params, *claim) for claim in claims])


@functools.cache
def _per_proof(params, h, ct, d, proof):
    statement = decryption_statement(params, h, ct, d, proof)
    return statement is not None and zkp._holds(params, *statement)


def _per_proof_all(params, claims):
    """The reference for `_verdicts`: each proof alone."""
    return [_per_proof(params, *claim) for claim in claims]


@functools.cache
def _pool(name):
    """Two ciphertexts under a 2-trustee key, with each trustee's partial."""
    params = PROFILES[name]
    key, shares = threshold_keygen(params, 2, derive_rng("decryption-batch", name))
    cts = [encrypt(params, key.h, m, 3 + m) for m in (0, 1)]
    return shares, [
        (share, ct, pd)
        for ct in cts
        for share, pd in zip(shares, partial_decrypt(params, shares, ct))
    ]


def _reports(monkeypatch, election, board, commitments=None):
    """universal_verify's report as dicts: as it is, then with every claim
    decided by its exact check."""
    commitments = commitments or election.commitments
    key, config = election.election_key.h, election.config

    def verify():
        return universal_verify(election.params, board, config, key, commitments).to_dict()

    with monkeypatch.context() as patch:
        batched = verify()
        exact_only(patch)
        return batched, verify()


def _edit_partial(election, index, edit):
    """The board, rechained, with the index-th partial decryption replaced by
    `edit(payload, share)`; and that entry's seq."""
    entry = election.board.find(KIND_PARTIAL_DECRYPTION)[index]
    pd = PartialDecryptionPayload.from_bytes(entry.payload)
    share = election.trustees[pd.trustee_index - 1]
    edited = edit(pd, share).to_bytes()
    return replace_payload(election.board, entry.seq, edited, fix_chain=True), entry.seq


def _negated_d(params, election, parity):
    def edit(pd, share):
        ct = election.result.mixed_batch.items[pd.item_index][pd.slot_index]
        d = params.p - pd.d
        return replace(pd, d=d, proof=_reground(params, share.x, share.h, ct, d, parity))

    return edit


def test_prod_honest_board_verifies_and_builds_no_comb_table(prod_election, monkeypatch):
    """With every table dropped first, the verifier builds tables for g and
    the election key only: no c1 gets one."""
    election = prod_election
    built = []
    build = groups._Comb.__init__
    groups._comb.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(
            groups._Comb, "__init__",
            lambda comb, p, base, cols: built.append(base) or build(comb, p, base, cols),
        )
        report = universal_verify(
            election.params, election.board, election.config, election.election_key.h,
            election.commitments,
        )
    assert report.overall and set(built) <= {election.params.g, election.election_key.h}
    batched, alone = _reports(monkeypatch, election, election.board)
    assert batched == alone == report.to_dict()


@pytest.mark.parametrize(
    "case, rejected",
    [
        ("d times g", True),
        ("negated d, odd challenge", True),
        ("negated d, even challenge", False),
        ("negated commitment", True),
        ("response plus q", True),
        ("response plus one", True),
    ],
)
def test_prod_batched_and_per_proof_verifier_agree(prod_election, monkeypatch, case, rejected):
    params = prod_election.params
    q, p, g = params.q, params.p, params.g

    def negated_commitment(pd, share):
        ct = prod_election.result.mixed_batch.items[pd.item_index][pd.slot_index]
        proof = _reground(params, share.x, share.h, ct, pd.d, tweak=lambda t: p - t)
        return replace(pd, proof=proof)

    edits = {
        "d times g": lambda pd, share: replace(pd, d=pd.d * g % p),
        "negated d, odd challenge": _negated_d(params, prod_election, 1),
        "negated d, even challenge": _negated_d(params, prod_election, 0),
        "negated commitment": negated_commitment,
        "response plus q": lambda pd, _: replace(
            pd, proof=replace(pd.proof, response=pd.proof.response + q)
        ),
        "response plus one": lambda pd, _: replace(
            pd, proof=replace(pd.proof, response=(pd.proof.response + 1) % q)
        ),
    }
    board, seq = _edit_partial(prod_election, 1, edits[case])
    batched, alone = _reports(monkeypatch, prod_election, board)
    assert batched == alone
    assert not batched["checks"]["decryption_proofs"]
    pd = PartialDecryptionPayload.from_bytes(board.entries[seq].payload)
    message = f"entry {seq}: decryption proof rejected (trustee {pd.trustee_index})"
    assert (message in batched["failures"]) == rejected


def test_prod_a_non_member_key_share_agrees(prod_election, monkeypatch):
    """Trustee 1's share commitment h replaced by p - h, once on the honest
    board and once with trustee 1's proofs re-ground against p - h: those
    with an even challenge hold under it, the others do not."""
    params = prod_election.params
    commitments = dict(prod_election.commitments)
    commitments[1] = params.p - commitments[1]
    batched, alone = _reports(monkeypatch, prod_election, prod_election.board, commitments)
    assert batched == alone and not batched["checks"]["decryption_proofs"]

    board = prod_election.board
    items = prod_election.result.mixed_batch.items
    for entry in board.find(KIND_PARTIAL_DECRYPTION):
        pd = PartialDecryptionPayload.from_bytes(entry.payload)
        if pd.trustee_index == 1:
            ct = items[pd.item_index][pd.slot_index]
            proof = _reground(params, prod_election.trustees[0].x, commitments[1], ct, pd.d)
            board = replace_payload(
                board, entry.seq, replace(pd, proof=proof).to_bytes(), fix_chain=True
            )
    batched, alone = _reports(monkeypatch, prod_election, board, commitments)
    assert batched == alone


def test_prod_negated_ds_with_odd_challenges_are_all_rejected(prod_election):
    """d replaced by p - d, each proof re-ground with an odd challenge: the
    equation's two sides then differ by -1, outside the subgroup, where a
    batch would pass it whenever its weight is even.  Sixteen such proofs,
    each with its own weights, are all rejected."""
    params = prod_election.params
    share = prod_election.trustees[0]
    ct = prod_election.result.mixed_batch.items[0][0]
    d = params.p - partial_decrypt(params, [share], ct)[0].d
    claims = [
        (share.h, ct, d, _reground(params, share.x, share.h, ct, d, parity=1, salt=k))
        for k in range(16)
    ]
    assert len({claim[3] for claim in claims}) == 16
    assert [_verdicts(params, [claim]) for claim in claims] == [[False]] * 16


def test_prod_two_errors_that_cancel_under_equal_weights_are_both_rejected():
    """Two re-ground proofs whose c1 commitments are off by g and by 1/g: both
    stay members, so both enter the batch, and their errors cancel unless
    the weights differ."""
    params = PROD_GROUP_3072
    shares, pool = _pool("prod3072")
    g_inv = params.exp(params.g, params.q - 1)
    claims = [
        (share.h, ct, pd.d, _reground(params, share.x, share.h, ct, pd.d, tweak=tweak))
        for (share, ct, pd), tweak in zip(
            pool[:2], (lambda t: t * params.g % params.p, lambda t: t * g_inv % params.p)
        )
    ]
    assert _verdicts(params, claims) == [False, False]


def test_prod_tally_names_the_trustee_of_a_bad_partial(prod_election, monkeypatch):
    """One partial of trustee 2 with its response off by one: its challenge
    still recomputes and every element is a member, so it enters the batch,
    which fails; bisecting it then names trustee 2."""
    election = prod_election
    honest = partial_decrypt
    calls = itertools.count()

    def one_bad(params, shares, ct):
        pds = honest(params, shares, ct)
        # The third ciphertext's partial of trustee 2.
        if next(calls) == 2:
            pd = pds[1]
            assert pd.trustee_index == 2
            proof = replace(pd.proof, response=(pd.proof.response + 1) % params.q)
            pds[1] = replace(pd, proof=proof)
        return pds

    monkeypatch.setattr(tally, "partial_decrypt", one_bad)
    with pytest.raises(InvalidPartialProof, match="trustee 2 proof rejected"):
        tally.run_tally(
            election.params, election.config, election.collected, election.trustees,
            election.election_key, bulletin.Board(), election.seed,
        )


def _tampered(params, share, ct, pd, how, parity):
    """A claim (h, ct, d, proof) from an honest partial, edited by `how`."""
    p, q, h, d, proof = params.p, params.q, share.h, pd.d, pd.proof
    if how == "d times g":
        return h, ct, d * params.g % p, proof
    if how == "negated d":
        return h, ct, p - d, _reground(params, share.x, h, ct, p - d, parity)
    if how == "negated commitment":
        return h, ct, d, _reground(params, share.x, h, ct, d, parity, tweak=lambda t: p - t)
    if how == "negated share":
        return p - h, ct, d, _reground(params, share.x, p - h, ct, d, parity)
    if how == "response plus q":
        return h, ct, d, replace(proof, response=proof.response + q)
    if how == "response plus one":
        return h, ct, d, replace(proof, response=(proof.response + 1) % q)
    return h, ct, d, proof


TAMPERS = [
    "honest", "d times g", "negated d", "negated commitment", "negated share",
    "response plus q", "response plus one",
]


@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=max(4, settings().max_examples // 25), deadline=None)
@given(data=st.data())
def test_batched_decryption_check_matches_the_per_proof_check(name, data):
    """Lists of claims, each an honest partial or one edited so that its
    challenge fails, its elements leave the subgroup (with a proof re-ground
    for an odd or an even challenge) or its response is out of range or
    wrong; a claim may repeat."""
    params = PROFILES[name]
    _, pool = _pool(name)
    claims = [
        _tampered(
            params, *data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(TAMPERS)),
            data.draw(st.sampled_from([0, 1])),
        )
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    assert _verdicts(params, claims) == _per_proof_all(params, claims)


@pytest.mark.parametrize("name", PROFILES)
def test_threshold_decrypt_takes_a_batch(name):
    """Every ciphertext of a batch decrypts; a batch with one bad partial
    raises naming its trustee."""
    params = PROFILES[name]
    shares, pool = _pool(name)
    commitments = {share.index: share.h for share in shares}
    cts = list(dict.fromkeys(ct for _, ct, _ in pool))
    batch = [(ct, [pd for _, c, pd in pool if c == ct]) for ct in cts]
    assert threshold_decrypt(params, batch, commitments, decode_bound=1) == [0, 1]
    ct, (first, second) = batch[1]
    proof = replace(second.proof, response=(second.proof.response + 1) % params.q)
    bad = replace(second, proof=proof)
    with pytest.raises(InvalidPartialProof, match="trustee 2 proof rejected"):
        threshold_decrypt(params, [batch[0], (ct, [first, bad])], commitments, decode_bound=1)
