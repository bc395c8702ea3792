"""Release gates for the whole pipeline, one test per criterion.

Each test pins the tolerance it enforces; run with -v to get a pass/fail
line per criterion.  These intentionally exercise public entry points
only, the way an auditor would.
"""

import hashlib
import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, replace

import pytest

from evote.ballot import (
    BallotCastPayload,
    EncryptedBallot,
    Receipt,
    ReceiptStatus,
    SignedBallot,
    coercion_evidence,
    compose_ballot,
    encode_choice,
    filter_latest,
)
from evote.ballotcoin import (
    Block,
    NodeState,
    SimConfig,
    Wallet,
    estimate_storage,
    forge_block,
    fork_choice,
    genesis,
    make_transaction,
    make_wallets,
    select_forger,
    simulate,
    tally_chain,
    wallet_address,
)
from evote.bulletin import (
    Board,
    CHECK_CHAIN,
    CHECK_COUNTS,
    CHECK_DECRYPTION,
    CHECK_MIX,
    CHECK_WELLFORMED,
    KIND_BALLOT_CAST,
    KIND_DECRYPTED_BALLOT,
    KIND_MIX_STAGE,
    KIND_PARTIAL_DECRYPTION,
    KIND_RESULT,
    DecryptedBallotPayload,
    MixStagePayload,
    PartialDecryptionPayload,
    RECORDS,
    ResultPayload,
    check_receipt,
    universal_verify,
)
from evote.canonical import derive_rng, digest, encode
from evote.cli import main as cli_main
from evote.errors import AlreadyClosed, DecodeRangeError, FairnessViolation, MissingShareError
from evote.groups import (
    PROD_GROUP_3072,
    TEST_GROUP,
    Ciphertext,
    combine,
    decrypt,
    encrypt,
    keygens,
    partial_decrypt,
    rand_scalar,
    threshold_decrypt,
    threshold_keygen,
)
from evote.mixnet import (
    SIDE_IN, SIDE_OUT, MixBatch, MixStage, build_proof, mix_with_state, run_mixnet, verify_mix,
)
from evote import tally
from evote.registry import DOMAIN_SIG, Registry, enroll_voters, sign
from evote.tally import Election, ElectionConfig
from evote.zkp import prove_wellformed

from board_utils import clone_board, drop_entry, flip_byte, rechain, replace_payload

GRP = TEST_GROUP


def _cast_votes(election, credentials, votes, seed):
    n = len(election.config.candidates)
    for k, (voter, candidate, when) in enumerate(votes):
        sb = compose_ballot(
            election.params,
            credentials[voter],
            election.election_key.h,
            encode_choice(candidate, n),
            timestamp=when,
            rng=derive_rng(seed, "ballot", voter, k),
        )
        assert election.cast(sb, now=when) is not None


# criterion 1: combining 010, 001, 010 ballots slotwise decrypts to 0,2,1
def test_c01_worked_homomorphic_example():
    rng = derive_rng("acceptance", "c01")
    [kp] = keygens(GRP, [rng])
    ballots = [(0, 1, 0), (0, 0, 1), (0, 1, 0)]
    encrypted = [
        [encrypt(GRP, kp.pk, m, rand_scalar(GRP, rng)) for m in b]
        for b in ballots
    ]
    counts = []
    for slot in zip(*encrypted):
        acc = Ciphertext(1, 1)
        for ct in slot:
            acc = combine(acc, ct, GRP)
        counts.append(decrypt(GRP, kp.sk, acc, decode_bound=len(ballots)))
    assert counts == [0, 2, 1]  # exact


@pytest.fixture(scope="module")
def hundred_voters():
    seed = "acceptance-c02"
    config = ElectionConfig(
        candidates=["alpha", "beta", "gamma"],
        trustee_count=3,
        mix_server_count=3,
        proof_rounds=6,
        coercion_threshold=0.5,
    )
    voters = [f"v{i:03d}" for i in range(100)]
    rng = derive_rng(seed, "scenario")
    final_choice = {}
    votes = []
    for t, voter in enumerate(voters):
        c = rng.randrange(3)
        votes.append((voter, c, t))
        final_choice[voter] = c
    for i, voter in enumerate(voters[:10]):  # 10 re-votes, later timestamps
        c = rng.randrange(3)
        votes.append((voter, c, 200 + i))
        final_choice[voter] = c

    election, credentials = Election.setup(config, voters, seed)
    _cast_votes(election, credentials, votes, seed)
    election.close_election()
    result = election.run_tally()
    truth = [0, 0, 0]
    for c in final_choice.values():
        truth[c] += 1
    return election, result, truth


# criterion 2: 100 voters, 10 re-votes; tally equals ground truth exactly
def test_c02_end_to_end_hundred_voters(hundred_voters):
    _, result, truth = hundred_voters
    assert result.counts == truth  # exact
    assert result.revoked_count == 10
    assert result.invalid_count == 0
    assert sum(result.counts) + result.invalid_count == 100  # conservation


# criterion 2, aggregate clause: the homomorphic route can only recover the
# counts modulo the subgroup order, and here q = 11 < 100, so equality with
# the per-ballot route is unattainable at this scale.  Kept faithful and
# expected to fail; the small-scale dual-route agreement is enforced in the
# tally unit tests.
@pytest.mark.xfail(
    strict=True,
    reason="per-candidate totals exceed q-1 in the small group; g^37 == g^4",
)
def test_c02_aggregate_route_equals_per_ballot_route(hundred_voters):
    election, result, _ = hundred_voters
    assert election.aggregate_check() == result.counts


@pytest.fixture(scope="module")
def audited():
    """One honest tallied election reused by the mutation corpus."""
    config = ElectionConfig(
        candidates=["a", "b", "c"],
        trustee_count=3,
        mix_server_count=3,
        proof_rounds=20,
        coercion_threshold=0.9,
    )
    voters = [f"w{i}" for i in range(6)]
    election, credentials = Election.setup(config, voters, "acceptance-c03")
    votes = [(f"w{i}", c, i) for i, c in enumerate([0, 1, 1, 2, 0, 1])]
    votes.append(("w0", 2, 9))  # one re-vote
    _cast_votes(election, credentials, votes, "acceptance-c03")
    election.close_election()
    election.run_tally()
    return election


def _verify(election, board):
    return universal_verify(
        election.params,
        board,
        election.config,
        election.election_key.h,
        election.commitments,
    )


def _mutate_ballot_ciphertext(board):
    e = board.find(KIND_BALLOT_CAST)[0]
    # offset 40 lands inside the first ciphertext, past the digest prefix
    return replace_payload(board, e.seq, flip_byte(e.payload, 40), fix_chain=True)


def _mutate_entry_no_rechain(board):
    e = board.find(KIND_BALLOT_CAST)[0]
    return replace_payload(board, e.seq, flip_byte(e.payload, 40), fix_chain=False)


def _mutate_delete_entry(board):
    return drop_entry(board, board.find(KIND_BALLOT_CAST)[0].seq, fix_chain=False)


def _mutate_result_counts(board):
    e = board.find(KIND_RESULT)[0]
    result = ResultPayload.from_bytes(e.payload)
    forged = replace(result, counts=(result.counts[0] + 1,) + result.counts[1:])
    return replace_payload(board, e.seq, forged.to_bytes(), fix_chain=True)


def _mutate_drop_mix_stage(board):
    return drop_entry(board, board.find(KIND_MIX_STAGE)[-1].seq, fix_chain=True)


def _mutate_swap_mix_rows(board):
    e = board.find(KIND_MIX_STAGE)[-1]
    staged = MixStagePayload.from_bytes(e.payload)
    stage = staged.stage
    items = list(stage.batch_out.items)
    items[0], items[1] = items[1], items[0]
    forged = MixStage(
        batch_in=stage.batch_in,
        batch_out=MixBatch(items=tuple(items)),
        proof=stage.proof,
    )
    return replace_payload(board, e.seq, replace(staged, stage=forged).to_bytes(), fix_chain=True)


def _mutate_break_continuity(board):
    entries = board.find(KIND_MIX_STAGE)
    stage0 = MixStagePayload.from_bytes(entries[0].payload).stage
    staged1 = MixStagePayload.from_bytes(entries[1].payload)
    stage1 = staged1.stage
    forged = MixStage(
        batch_in=stage0.batch_in, batch_out=stage1.batch_out, proof=stage1.proof
    )
    return replace_payload(
        board, entries[1].seq, replace(staged1, stage=forged).to_bytes(), fix_chain=True
    )


def _mutate_post_mix_ciphertext(board):
    e = board.find(KIND_MIX_STAGE)[-1]
    staged = MixStagePayload.from_bytes(e.payload)
    stage = staged.stage
    items = [list(item) for item in stage.batch_out.items]
    ct = items[0][0]
    items[0][0] = Ciphertext(ct.c1, (ct.c2 * GRP.g) % GRP.p)
    forged = MixStage(
        batch_in=stage.batch_in,
        batch_out=MixBatch(items=tuple(tuple(i) for i in items)),
        proof=stage.proof,
    )
    return replace_payload(board, e.seq, replace(staged, stage=forged).to_bytes(), fix_chain=True)


def _mutate_forge_share(board):
    e = board.find(KIND_PARTIAL_DECRYPTION)[0]
    pd = PartialDecryptionPayload.from_bytes(e.payload)
    forged = replace(pd, d=(pd.d * GRP.g) % GRP.p)
    return replace_payload(board, e.seq, forged.to_bytes(), fix_chain=True)


def _mutate_drop_share(board):
    return drop_entry(board, board.find(KIND_PARTIAL_DECRYPTION)[0].seq, fix_chain=True)


def _mutate_decrypted_claim(board):
    e = board.find(KIND_DECRYPTED_BALLOT)[0]
    claim = DecryptedBallotPayload.from_bytes(e.payload)
    forged = replace(claim, exponents=(claim.exponents[0] + 1,) + claim.exponents[1:])
    return replace_payload(board, e.seq, forged.to_bytes(), fix_chain=True)


def _mutate_claim_past_q(board):
    """Discard a valid vote: claim 1 + q for its 1 slot, flag it invalid and
    move it to the Result's invalid count.  g^(1+q) = g^1, so only a range
    check on the claim tells it apart."""
    entries = board.find(KIND_DECRYPTED_BALLOT)
    claim, seq = next(
        (claim, e.seq)
        for e in entries
        if (claim := DecryptedBallotPayload.from_bytes(e.payload)).valid
    )
    candidate = claim.exponents.index(1)
    exponents = tuple(m + GRP.q if c == candidate else m for c, m in enumerate(claim.exponents))
    forged = replace(claim, exponents=exponents, valid=False)
    mutated = replace_payload(board, seq, forged.to_bytes(), fix_chain=False)
    e = board.find(KIND_RESULT)[0]
    result = ResultPayload.from_bytes(e.payload)
    counts = list(result.counts)
    counts[candidate] -= 1
    recount = replace(result, counts=tuple(counts), invalid_count=result.invalid_count + 1)
    return replace_payload(mutated, e.seq, recount.to_bytes(), fix_chain=True)


def _mutate_duplicate_result(board):
    mutated = clone_board(board)
    mutated.entries.append(mutated.entries[board.find(KIND_RESULT)[0].seq])
    return rechain(mutated)


# (mutation, check that must go false, chain check must survive the edit)
MUTATION_CORPUS = [
    ("tampered ballot ciphertext", _mutate_ballot_ciphertext, CHECK_WELLFORMED, True),
    ("payload edit without rechain", _mutate_entry_no_rechain, CHECK_CHAIN, False),
    ("deleted board entry", _mutate_delete_entry, CHECK_CHAIN, False),
    ("altered result counts", _mutate_result_counts, CHECK_COUNTS, True),
    ("removed mix stage proof", _mutate_drop_mix_stage, CHECK_MIX, True),
    ("swapped mix output rows", _mutate_swap_mix_rows, CHECK_MIX, True),
    ("broken mix continuity", _mutate_break_continuity, CHECK_MIX, True),
    ("tampered post-mix ciphertext", _mutate_post_mix_ciphertext, CHECK_MIX, True),
    ("forged decryption share", _mutate_forge_share, CHECK_DECRYPTION, True),
    ("removed decryption share", _mutate_drop_share, CHECK_DECRYPTION, True),
    ("false decrypted claim", _mutate_decrypted_claim, CHECK_DECRYPTION, True),
    ("decrypted claim past q", _mutate_claim_past_q, CHECK_DECRYPTION, True),
    ("duplicated result entry", _mutate_duplicate_result, CHECK_COUNTS, True),
]


# criterion 3: honest run verifies; every single mutation trips its named
# check; detection of a proof-rebuilding mixer is empirical at 20 rounds
def test_c03_universal_verification_and_mutation_corpus(audited):
    report = _verify(audited, audited.board)
    assert report.overall, report.failures

    assert len(MUTATION_CORPUS) >= 10
    for name, mutate, broken, chain_survives in MUTATION_CORPUS:
        mutated = mutate(audited.board)
        r = _verify(audited, mutated)
        assert not r.overall, f"{name}: verification should fail"
        assert r.checks[broken] is False, f"{name}: {broken} should be false"
        if chain_survives:
            assert r.checks[CHECK_CHAIN] is True, f"{name}: edit must survive rechain"

    # Cheating mixer: tamper one output slot, rebuild the opening proof over
    # the tampered transcript.  Each of 1000 trials escapes detection with
    # probability 2^-20, so zero misses are expected.
    rng = derive_rng("acceptance", "c03-trials")
    [kp] = keygens(GRP, [rng])
    misses = 0
    for _ in range(1000):
        batch = MixBatch(
            items=tuple(
                tuple(
                    encrypt(GRP, kp.pk, rng.randrange(2), rand_scalar(GRP, rng))
                    for _ in range(2)
                )
                for _ in range(4)
            )
        )
        mid, out, links = mix_with_state(GRP, kp.pk, batch, rng)
        items = [list(item) for item in out.items]
        victim, slot = rng.randrange(4), rng.randrange(2)
        ct = items[victim][slot]
        items[victim][slot] = Ciphertext(ct.c1, (ct.c2 * GRP.g) % GRP.p)
        tampered = MixBatch(items=tuple(tuple(i) for i in items))
        proof = build_proof(links, batch, mid, tampered, rounds=20)
        if verify_mix(GRP, kp.pk, None, [MixStage(batch, tampered, proof)], 20) == []:
            misses += 1
    assert misses == 0


# criterion 4: decryption multisets survive every mix stage, 200 batches
def test_c04_mixnet_multiset_preservation():
    rng = derive_rng("acceptance", "c04")
    [kp] = keygens(GRP, [rng])

    def multiset(batch):
        return Counter(
            tuple(decrypt(GRP, kp.sk, ct, decode_bound=3) for ct in item)
            for item in batch.items
        )

    for batch_no in range(200):
        n = rng.randrange(51)  # sizes 0..50
        batch = MixBatch(
            items=tuple(
                tuple(
                    encrypt(GRP, kp.pk, rng.randrange(4), rand_scalar(GRP, rng))
                    for _ in range(2)
                )
                for _ in range(n)
            )
        )
        before = multiset(batch)
        _, stages = run_mixnet(
            GRP,
            kp.pk,
            batch,
            [derive_rng("acceptance", "c04", batch_no, s) for s in range(2)],
            rounds=1,
        )
        for stage in stages:
            assert multiset(stage.batch_in) == before  # exact
            assert multiset(stage.batch_out) == before


# criterion 5: n-of-n threshold decryption, exhaustive for n <= 5
def test_c05_threshold_n_of_n_exhaustive():
    for n in range(1, 6):
        rng = derive_rng("acceptance", "c05", n)
        key, shares = threshold_keygen(GRP, n, rng)
        commitments = {s.index: s.h for s in shares}
        m = 4
        ct = encrypt(GRP, key.h, m, rand_scalar(GRP, rng))

        partials = partial_decrypt(GRP, shares, ct)
        assert threshold_decrypt(GRP, [(ct, partials)], commitments, decode_bound=10) == [m]
        sk_equivalent = sum(s.x for s in shares) % GRP.q
        assert decrypt(GRP, sk_equivalent, ct, decode_bound=10) == m  # oracle route

        for omit in range(n):  # every (n-1)-subset
            subset = partials[:omit] + partials[omit + 1 :]
            with pytest.raises(MissingShareError):
                threshold_decrypt(GRP, [(ct, subset)], commitments, decode_bound=10)


# criterion 6: re-vote filtering matches a sort-and-deduplicate oracle,
# 10^3 randomized cases
def test_c06_revote_filtering_against_oracle():
    @dataclass
    class Row:
        voter_id: str
        timestamp: int

    rng = derive_rng("acceptance", "c06")
    for _ in range(1000):
        n = rng.randrange(12)
        rows = [
            Row(voter_id=f"v{rng.randrange(4)}", timestamp=rng.randrange(5))
            for _ in range(n)
        ]
        kept, revoked = filter_latest(rows)

        order = sorted(range(n), key=lambda i: (rows[i].timestamp, i))
        last = {rows[i].voter_id: i for i in order}  # later sort rank wins
        expected = [rows[i] for i in sorted(last.values())]

        assert [id(r) for r in kept] == [id(r) for r in expected]
        assert revoked == n - len(kept)
        assert len({r.voter_id for r in kept}) == len(kept)
        for r in kept:
            assert r.timestamp == max(
                x.timestamp for x in rows if x.voter_id == r.voter_id
            )


# criterion 7: the coercion threshold comparison is strictly greater-than
def test_c07_coercion_threshold_strictness():
    flagged = coercion_evidence(6, 94, 0.05)
    assert flagged.flagged is True
    assert flagged.revoked_fraction == pytest.approx(0.06)
    assert coercion_evidence(5, 95, 0.05).flagged is False  # exactly at threshold


# criterion 8: no decryption before close, across all event interleavings
def test_c08_fairness_gate_all_interleavings():
    def fresh():
        config = ElectionConfig(
            candidates=["x", "y"],
            trustee_count=2,
            mix_server_count=2,
            proof_rounds=2,
            coercion_threshold=0.9,
        )
        return Election.setup(config, ["solo"], "acceptance-c08")

    for perm in itertools.permutations(("cast", "close", "tally")):
        election, credentials = fresh()
        closed = False
        tallied = False
        for event in perm:
            if event == "cast":
                sb = compose_ballot(
                    election.params,
                    credentials["solo"],
                    election.election_key.h,
                    encode_choice(0, 2),
                    timestamp=1,
                    rng=derive_rng("acceptance-c08", "ballot", perm),
                )
                if closed:
                    with pytest.raises(AlreadyClosed):
                        election.cast(sb, now=1)
                else:
                    election.cast(sb, now=1)
            elif event == "close":
                election.close_election()
                closed = True
            else:
                if not closed:
                    with pytest.raises(FairnessViolation):
                        election.run_tally()
                    with pytest.raises(FairnessViolation):
                        election.aggregate_check()
                    # the violation left no decryption evidence behind
                    assert not election.board.find(KIND_PARTIAL_DECRYPTION)
                    assert not election.board.find(KIND_RESULT)
                else:
                    election.run_tally()
                    tallied = True
        assert tallied == (perm.index("tally") > perm.index("close"))


# criterion 9: storage model reproduces 176,329 tx * 200 B = 35,265,800 B
def test_c09_storage_estimate():
    est = estimate_storage(176329, 200)
    assert est.total_bytes == 35_265_800  # exact
    assert round(est.mib, 1) == 33.6  # one decimal


# criterion 10: forger selection statistics; stake 1-of-100 lands in
# [0.005, 0.015] over 10^5 draws, uniform 10-node each in [0.08, 0.12]
# over 10^4 draws
def test_c10_forger_selection_statistics():
    stake_nodes = [
        NodeState(
            node_id=f"n{i:03d}",
            wallet=Wallet(address=f"a{i}", verify_key=1),
            signing_key=1,
        )
        for i in range(100)
    ]
    stakes = {f"a{i}": 1 for i in range(100)}
    draws = 100_000
    wins = Counter(
        select_forger(stake_nodes, stakes, "stake_weighted", "acceptance-c10", r)
        for r in range(draws)
    )
    assert 0.005 <= wins["n000"] / draws <= 0.015

    uniform_nodes = stake_nodes[:10]
    draws = 10_000
    wins = Counter(
        select_forger(uniform_nodes, stakes, "uniform", "acceptance-c10u", r)
        for r in range(draws)
    )
    for i in range(10):
        assert 0.08 <= wins[f"n{i:03d}"] / draws <= 0.12


def _coin_net():
    def wallet(sk):
        vk = pow(GRP.g, sk, GRP.p)
        return Wallet(address=wallet_address(vk), verify_key=vk)

    cand = wallet(1)
    keys = [4, 5, 6]
    voters = [wallet(sk) for sk in keys]
    nodes = [
        NodeState(node_id=f"n{i}", wallet=w, signing_key=sk)
        for i, (w, sk) in enumerate(zip(voters, keys))
    ]
    chain = genesis(
        GRP, [cand], voters, forger_keys={n.node_id: n.wallet.verify_key for n in nodes}
    )
    chain = replace(chain, candidate_names={cand.address: "cand"})
    return chain, cand, voters, keys, nodes


# criterion 11: longest valid chain wins; equal-length ties resolve the
# same way on every evaluation
def test_c11_longest_chain_and_deterministic_tie():
    chain, cand, voters, keys, nodes = _coin_net()

    def grow(base, forgers, height):
        out = base
        for i in range(height):
            out = out.extend(forge_block(forgers[i % len(forgers)], [], out))
        return out

    short = grow(chain, nodes, 3)
    long = grow(chain, nodes[1:], 5)
    assert fork_choice([short, long]) is long  # exact
    assert fork_choice([long, short]) is long

    a = grow(chain, nodes, 3)
    b = grow(chain, nodes[1:], 3)
    expected = a if a.tip_digest < b.tip_digest else b
    for _ in range(25):
        assert fork_choice([a, b]) is expected
        assert fork_choice([b, a]) is expected


# criterion 12: the chain variant's two disqualifying defects hold
def test_c12_ballotcoin_defects_demonstrated():
    # Defect 1: partial results are readable mid-election.
    mid_run_totals = []
    simulate(
        SimConfig(rounds=12, n_voters=12, n_candidates=2, vote_prob=0.6, mode="uniform"),
        seed="acceptance-c12",
        observer=lambda s: mid_run_totals.append(sum(tally_chain(s.canonical).values())),
    )
    fairness_broken = any(total > 0 for total in mid_run_totals[:-1])
    assert fairness_broken is True

    # Defect 2: the public record links a voter's address to the candidate.
    chain, cand, voters, keys, nodes = _coin_net()
    tx = make_transaction(GRP, keys[0], voters[0], cand.address, 1)
    block = forge_block(nodes[0], [tx], chain)
    published = chain.extend(block)
    receipt_exists = any(
        t.sender == voters[0].address and t.recipient == cand.address
        for b in published.blocks
        for t in b.txs
    )
    assert receipt_exists is True


# criterion 13: receipt boundaries are exact and a re-vote revokes the
# earlier ballot (checkable by digest membership)
def test_c13_receipt_lifecycle_and_staleness():
    config = ElectionConfig(
        candidates=["x", "y"],
        trustee_count=2,
        mix_server_count=2,
        proof_rounds=2,
        receipt_ttl=30,
        coercion_threshold=0.9,
    )
    election, credentials = Election.setup(config, ["alice", "bob"], "acceptance-c13")
    sb1 = compose_ballot(
        election.params,
        credentials["alice"],
        election.election_key.h,
        encode_choice(0, 2),
        timestamp=10,
        rng=derive_rng("acceptance-c13", "first"),
    )
    receipt = election.cast(sb1, now=10)

    board = election.board
    assert check_receipt(receipt, board, now=10) is ReceiptStatus.CONFIRMED
    assert check_receipt(receipt, board, now=39) is ReceiptStatus.CONFIRMED  # ttl-1
    assert check_receipt(receipt, board, now=40) is ReceiptStatus.EXPIRED  # at ttl
    assert check_receipt(receipt, board, now=500) is ReceiptStatus.EXPIRED
    foreign = Receipt(ballot_digest=digest("never cast"), issued_at=10, ttl=30)
    assert check_receipt(foreign, board, now=10) is ReceiptStatus.NOT_FOUND

    sb2 = compose_ballot(
        election.params,
        credentials["alice"],
        election.election_key.h,
        encode_choice(1, 2),
        timestamp=20,
        rng=derive_rng("acceptance-c13", "second"),
    )
    election.cast(sb2, now=20)
    collected = election.close_election()
    kept, revoked_count = filter_latest(collected)
    revoked_digests = {sb.digest() for sb in collected} - {sb.digest() for sb in kept}
    assert revoked_count == 1
    assert receipt.ballot_digest in revoked_digests  # stale after re-vote
    assert sb2.digest() not in revoked_digests


C14_CONFIG = {
    "candidates": ["alice", "bob", "carol"],
    "trustee_count": 3,
    "mix_server_count": 3,
    "proof_rounds": 6,
    "coercion_threshold": 0.9,
    "receipt_ttl": 30,
    "group": "test",
}
C14_SCENARIO = {
    "voters": ["v01", "v02", "v03"],
    "votes": [
        {"voter": "v01", "candidate": 0, "time": 1},
        {"voter": "v02", "candidate": 1, "time": 2},
        {"voter": "v03", "candidate": 2, "time": 3},
        {"voter": "v01", "candidate": 1, "time": 4},
    ],
}
# sha256 of the c14 board.jsonl, the same on CPython 3.10 to 3.13.
C14_BOARD_SHA256 = "47da1da00b2e92431bad0be340a44c9d13a294370dc49f57849eb254be4bf7b0"


def _c14_run(tmp_path, out):
    (tmp_path / "config.json").write_text(json.dumps(C14_CONFIG))
    (tmp_path / "scenario.json").write_text(json.dumps(C14_SCENARIO))
    rc = cli_main(
        [
            "run",
            "--config", str(tmp_path / "config.json"),
            "--scenario", str(tmp_path / "scenario.json"),
            "--seed", "1234",
            "--out-dir", str(tmp_path / out),
        ]
    )
    assert rc == 0
    return tmp_path / out


# criterion 14: identical (config, scenario, seed) yields byte-identical
# bulletin board files
def test_c14_byte_identical_artifacts(tmp_path):
    for out in ("a", "b"):
        _c14_run(tmp_path, out)
    board_a = (tmp_path / "a" / "board.jsonl").read_bytes()
    board_b = (tmp_path / "b" / "board.jsonl").read_bytes()
    assert board_a == board_b  # exact
    for name in ("result.json", "params.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The c14 board's bytes are pinned, so a change to any encoder shows here.
def test_c14_board_bytes_are_pinned(tmp_path):
    board = (_c14_run(tmp_path, "a") / "board.jsonl").read_bytes()
    assert hashlib.sha256(board).hexdigest() == C14_BOARD_SHA256


# The public record has one encoding: an item index with a leading zero
# byte is unparseable, even on a rechained board.
def test_c14_non_minimal_item_index_is_unparseable(tmp_path):
    out = _c14_run(tmp_path, "a")
    board = Board.load(out / "board.jsonl")
    params = json.loads((out / "params.json").read_text())
    entry = next(
        e for e in board.find(KIND_DECRYPTED_BALLOT)
        if DecryptedBallotPayload.from_bytes(e.payload).item_index == 1
    )
    assert entry.payload.startswith(bytes.fromhex("00000001" "01"))
    forged = bytes.fromhex("00000002" "0001") + entry.payload[5:]
    report = universal_verify(
        GRP,
        replace_payload(board, entry.seq, forged, fix_chain=True),
        ElectionConfig(
            candidates=params["candidates"],
            mix_server_count=params["mix_server_count"],
            proof_rounds=params["proof_rounds"],
            coercion_threshold=params["coercion_threshold"],
        ),
        params["election_pk"],
        {int(i): h for i, h in params["trustee_commitments"].items()},
    )
    assert report.checks[CHECK_CHAIN]
    assert not report.checks[CHECK_DECRYPTION]
    assert f"entry {entry.seq}: unparseable decrypted ballot" in report.failures


# The coercion flag is recomputed from the published threshold: flipping it
# on the c14 board, even rechained, fails the count check and `evote verify`.
def test_c14_flipped_coercion_flag_fails_the_recount(tmp_path, capsys):
    out = _c14_run(tmp_path, "a")
    board = Board.load(out / "board.jsonl")
    [entry] = board.find(KIND_RESULT)
    result = ResultPayload.from_bytes(entry.payload)
    assert result.flagged is False
    flipped = replace(result, flagged=True).to_bytes()
    replace_payload(board, entry.seq, flipped, fix_chain=True).save(out / "board.jsonl")
    capsys.readouterr()  # discard run output
    rc = cli_main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    )
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["checks"] == {
        CHECK_CHAIN: True,
        CHECK_WELLFORMED: True,
        CHECK_MIX: True,
        CHECK_DECRYPTION: True,
        CHECK_COUNTS: False,
    }
    [failure] = report["failures"]
    assert failure.startswith(f"entry {entry.seq}: recomputed ")
    assert "flagged=False) != published " in failure and failure.endswith("flagged=True)")


# A seq that is not exactly an int breaks the chain: with entry 3's seq
# written as 3.0 on the c14 board, `evote verify` reports a failed chain
# check instead of raising.
def test_c14_float_seq_breaks_the_chain(tmp_path, capsys):
    out = _c14_run(tmp_path, "a")
    lines = (out / "board.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    assert row["seq"] == 3
    lines[3] = json.dumps(dict(row, seq=3.0), sort_keys=True)
    (out / "board.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()  # discard run output
    rc = cli_main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    )
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["checks"][CHECK_CHAIN] is False
    assert "hash chain does not recompute" in report["failures"]


# A board row is a JSON object whose kind is a known entry kind, whose
# payload, prev and digest are lowercase hex strings and that has no other key
# but seq, as `save` writes it; any other row on the c14 board is a usage
# error that names its line, so the file has one encoding.
@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row.update(prev=5),
        lambda row: row.update(digest="zz"),
        lambda row: row.pop("payload"),
        lambda row: row.update(kind={"name": row["kind"]}),
        lambda row: row.update(payload=row["payload"].upper()),
        lambda row: row.update(kind="Gossip"),
        lambda row: row.update(note=1),
    ],
    ids=[
        "prev as int", "digest not hex", "no payload", "kind as object", "payload in uppercase",
        "unknown kind", "extra key",
    ],
)
def test_c14_mistyped_row_is_a_usage_error(tmp_path, capsys, edit):
    out = _c14_run(tmp_path, "a")
    lines = (out / "board.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    edit(row)
    lines[3] = json.dumps(row, sort_keys=True)
    (out / "board.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()  # discard run output
    rc = cli_main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    )
    assert rc == 4
    assert "line 4" in capsys.readouterr().err


# A board file that is not UTF-8 is a usage error too.
def test_c14_board_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    out = _c14_run(tmp_path, "a")
    data = (out / "board.jsonl").read_bytes()
    (out / "board.jsonl").write_bytes(data[:300] + b"\xff" + data[300:])
    capsys.readouterr()  # discard run output
    rc = cli_main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    )
    assert rc == 4
    assert "board.jsonl" in capsys.readouterr().err


def _short_ballot_election(seed):
    """Open 3-candidate election plus, for voter "s", a ballot over 2 slots."""
    config = ElectionConfig(
        candidates=["a", "b", "c"],
        trustee_count=2,
        mix_server_count=2,
        proof_rounds=4,
        coercion_threshold=0.9,
    )
    election, credentials = Election.setup(config, ["s", "t", "u"], seed)
    short = compose_ballot(
        election.params,
        credentials["s"],
        election.election_key.h,
        encode_choice(0, 2),
        timestamp=1,
        rng=derive_rng(seed, "short"),
    )
    return election, credentials, short


# No single voter can stop the tally: a ballot whose slot count differs from
# the candidate count is rejected at cast, and flagged if it is on the board.
def test_short_ballot_cannot_stop_the_tally():
    seed = "acceptance-short-ballot"
    election, credentials, short = _short_ballot_election(seed)
    assert election.cast(short, now=1) is None
    assert election.board.entries == []
    _cast_votes(election, credentials, [("t", 1, 2), ("u", 2, 3)], seed)
    election.close_election()
    result = election.run_tally()
    assert result.counts == [0, 1, 1]
    assert _verify(election, election.board).overall

    e = election.board.find(KIND_BALLOT_CAST)[0]
    mutated = replace_payload(election.board, e.seq, short.published().to_bytes(), True)
    r = _verify(election, mutated)
    assert r.checks[CHECK_WELLFORMED] is False
    assert r.checks[CHECK_CHAIN] is True


# The tally and the verifier share one validity rule: a decrypted ballot with
# the wrong slot count is invalid to both, so an honest board verifies.
def test_verifier_and_tally_agree_on_short_ballot_validity():
    seed = "acceptance-short-validity"
    election, _, short = _short_ballot_election(seed)
    board = Board()
    result = tally.run_tally(
        election.params,
        election.config,
        [short],
        election.trustees,
        election.election_key,
        board,
        seed,
    )
    assert result.counts == [0, 0, 0] and result.invalid_count == 1
    r = _verify(election, board)
    assert r.checks[CHECK_DECRYPTION] is True, r.failures


def _negated_c2_ballot(election, credential):
    """A ballot for candidate 0 of 2 with both `c2` times p - 1, and a proof
    made for those slots from their randomness.  The randomness is redrawn
    until both real-branch challenges are even, so that (p - 1)^e = 1 and
    every equation holds; the slot product, and so the sum proof, is
    unchanged."""
    params, pk = election.params, election.election_key.h
    for k in itertools.count():
        rng = derive_rng("f3", k)
        rs = [rand_scalar(params, rng) for _ in range(2)]
        slots = [encrypt(params, pk, bit, r) for bit, r in zip((1, 0), rs)]
        slots = [Ciphertext(ct.c1, ct.c2 * (params.p - 1) % params.p) for ct in slots]
        proof = prove_wellformed(params, pk, slots, rs, 0)
        if proof.slots[0].e1 % 2 == 0 and proof.slots[1].e0 % 2 == 0:
            break
    encrypted = EncryptedBallot(slots=tuple(slots), wellformed=proof)
    signature = sign(params, credential.signing_key, encode(encrypted, 1))
    return SignedBallot(credential.voter_id, encrypted, 1, signature)


# F3: no single voter can stop the tally, even with slots outside the
# subgroup.  Today the cast check and the verifier accept the ballot above,
# and decrypting it to g^m * (p - 1) makes the tally raise.
@pytest.mark.xfail(
    strict=True, raises=DecodeRangeError, reason="F3: slots are not checked for membership"
)
def test_a_ballot_outside_the_subgroup_cannot_stop_the_tally():
    config = ElectionConfig(candidates=["a", "b"], trustee_count=2, mix_server_count=2)
    election, credentials = Election.setup(config, ["v0", "v1", "v2"], 1)
    election.cast(_negated_c2_ballot(election, credentials["v0"]), now=1)
    _cast_votes(election, credentials, [("v1", 0, 2), ("v2", 1, 3)], "acceptance-f3")
    election.close_election()
    assert election.run_tally().counts == [1, 1]
    assert _verify(election, election.board).overall


# Short Fiat-Shamir nonces.  Every prover nonce is sha256 reduced mod q, so
# on prod3072 it has 256 bits where a response z = w + e*s (mod q) needs
# 3071 to hide the secret s.  Each test below asserts the secure property;
# the fix changes proof bytes, so it waits for a versioned board format.
_NONCE_BITS = 256


def _short_nonce_secrets(q, first, second):
    """Every secret s that two responses z = w + e*s (mod q) allow when both
    nonces w have at most 256 bits: a handful, which one power each checks
    against the public key.  Eliminating s leaves e2*w1 - e1*w2 = c
    (mod q).  Both sides are far below q, so the equation holds over the
    integers, and each of its short solutions gives w1, then s."""
    (e1, z1), (e2, z2) = first, second
    c = (e2 * z1 - e1 * z2) % q
    if c > q // 2:
        c -= q
    g = math.gcd(e1, e2)
    if c % g:
        return []
    step = e1 // g
    found = []
    for w1 in range(c // g * pow(e2 // g, -1, step) % step, 1 << _NONCE_BITS, step):
        w2 = (e2 * w1 - c) // e1
        if 0 <= w2 < 1 << _NONCE_BITS:
            found.append((z1 - w1) * pow(e1, -1, q) % q)
    return found


@pytest.fixture(scope="module")
def prod_revotes():
    """One prod3072 voter who votes 0, re-votes 1, 1, then 0, and the
    election's two trustee shares."""
    params = PROD_GROUP_3072
    key, shares = threshold_keygen(params, 2, derive_rng("acceptance-nonce", "trustees"))
    [cred] = enroll_voters(Registry(params), [("v", derive_rng("acceptance-nonce", "enroll"))])
    choices = [0, 1, 1, 0]
    ballots = [
        compose_ballot(
            params, cred, key.h, encode_choice(c, 2), timestamp=t,
            rng=derive_rng("acceptance-nonce", "ballot", t),
        )
        for t, c in enumerate(choices)
    ]
    return params, shares, cred, ballots, choices


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="simulated slot responses have 256 bits, real ones 3071",
)
def test_slot_proof_responses_do_not_reveal_the_vote(prod_revotes):
    _, _, _, ballots, choices = prod_revotes

    def read_vote(payload):
        # The branch with a full-length response is the real one.
        ones = [
            i for i, sp in enumerate(payload.wellformed.slots)
            if sp.z1.bit_length() > _NONCE_BITS
        ]
        return ones[0] if ones else 0

    read = [
        read_vote(BallotCastPayload.from_bytes(sb.published().to_bytes())) for sb in ballots
    ]
    assert read != choices


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="decryption-proof nonces have 256 bits"
)
def test_two_decryption_proofs_do_not_reveal_the_trustee_share(prod_revotes):
    params, shares, _, ballots, _ = prod_revotes
    proofs = [
        partial_decrypt(params, shares[:1], ct)[0].proof for ct in ballots[0].encrypted.slots
    ]
    pairs = [(proof.challenge, proof.response) for proof in proofs]
    assert shares[0].x not in _short_nonce_secrets(params.q, *pairs)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="Schnorr signature nonces have 256 bits"
)
def test_a_revotes_two_signatures_do_not_reveal_the_signing_key(prod_revotes):
    params, _, cred, ballots, _ = prod_revotes
    pairs = []
    for sb in ballots[:2]:
        t, message = sb.signature.commit, sb.signed_message()
        h = digest(DOMAIN_SIG, params.to_bytes(), cred.verify_key, t, message)
        pairs.append((int.from_bytes(h, "big") % params.q, sb.signature.response))
    assert cred.signing_key not in _short_nonce_secrets(params.q, *pairs)


# F14: a forger must hold stake.  Today `Chain._apply` checks only that the
# forger's key is in `forger_keys` and that it signed the block, so a node
# that holds no coin forges a longer chain from genesis, and longest-chain
# fork choice drops the honest chain's vote.  On prod3072, so that no two
# wallets share an address.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="F14: no block's forger is checked for stake"
)
def test_a_node_without_stake_cannot_forge_a_valid_chain():
    params = PROD_GROUP_3072
    rngs = [derive_rng("acceptance-f14", who) for who in ("cand", "v0", "v1", "idle")]
    (cand, _), *keyed = make_wallets(params, rngs)
    nodes = [NodeState(f"n{i}", wallet, sk) for i, (wallet, sk) in enumerate(keyed)]
    voters, idle = nodes[:2], nodes[2]
    chain = genesis(
        params, [cand], [n.wallet for n in voters],
        forger_keys={n.node_id: n.wallet.verify_key for n in nodes},
    )
    assert chain.balances().get(idle.wallet.address, 0) == 0
    vote = make_transaction(params, voters[1].signing_key, voters[1].wallet, cand.address, 1)
    honest = chain.extend(forge_block(voters[0], [vote], chain))
    forged = chain
    for _ in range(2):
        block = Block(forged.height + 1, forged.tip_digest, idle.node_id, (), None)
        signature = sign(params, idle.signing_key, block.signed_message())
        forged = forged.extend(replace(block, forger_signature=signature))
    assert not forged.is_valid()
    assert fork_choice([honest, forged]) is honest


# F17: the stake leaves with the vote.  Under `stake_weighted` a vote moves
# its voter's one coin to a candidate address, which no node forges for,
# so once every voter has voted no node can forge: today this chain stops
# at height 1 and skips the other 5 rounds.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="F17: the lottery's stake is the live balance"
)
def test_the_chain_grows_after_every_voter_has_voted():
    config = SimConfig(group="prod3072", n_voters=6, n_candidates=2, rounds=6, vote_prob=1.0)
    assert simulate(config, 1).chain_height > 1


def _linked_plaintexts(board):
    """The plaintext of each cast position (its index in the first mix
    input) that the board's public records link to a decrypted output.
    Per stage, a mid item whose in-link and out-link some rounds open joins
    its input to its output; the stages compose, and each `DecryptedBallot`
    names its output item's plaintext."""
    def records(kind):
        return [RECORDS[kind][0].from_bytes(e.payload) for e in board.find(kind)]

    stages = [payload.stage for payload in records(KIND_MIX_STAGE)]
    claims = {claim.item_index: claim.exponents for claim in records(KIND_DECRYPTED_BALLOT)}
    path = {i: i for i in range(len(stages[0].batch_in.items))} if stages else {}
    for stage in stages:
        ends = defaultdict(dict)
        for links in stage.proof.rounds:
            for j, link in enumerate(links):
                ends[j][link.side] = link.index
        step = {end[SIDE_IN]: end[SIDE_OUT] for end in ends.values() if len(end) == 2}
        path = {pos: step[at] for pos, at in path.items() if at in step}
    return {pos: claims[at] for pos, at in path.items() if at in claims}


# F1: the mix-net hides nothing.  Every challenge round opens one link of
# the one mid layer per item, so over 20 rounds both links of nearly every
# mid item are open, and the public board links each cast position to its
# decrypted plaintext.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="F1: the rounds open both links of a mid item"
)
def test_the_board_links_no_cast_position_to_its_plaintext():
    voters = [f"v{i:02d}" for i in range(12)]
    rng = derive_rng("acceptance-f1", "choices")
    choices = [rng.randrange(3) for _ in voters]
    election, credentials = Election.setup(ElectionConfig(candidates=["a", "b", "c"]), voters, 1)
    votes = [(voter, c, t) for t, (voter, c) in enumerate(zip(voters, choices))]
    _cast_votes(election, credentials, votes, "acceptance-f1")
    election.close_election()
    election.run_tally()
    assert _verify(election, election.board).overall
    # No re-votes, so the first mix input holds the casts in board order.
    truth = [encode_choice(c, 3).bits for c in choices]
    named = _linked_plaintexts(election.board)
    assert [pos for pos, plaintext in named.items() if plaintext == truth[pos]] == []


# F15: the verifier checks no eligibility.  The board's casts carry no
# credential, so a cast by a voter that the authority enrolled after the
# published setup passes `evote verify`, and the counts include it.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="F15: a cast carries no credential to check"
)
def test_the_verifier_names_a_cast_by_a_voter_enrolled_after_setup(tmp_path, capsys):
    config = {"candidates": ["a", "b"], "trustee_count": 2, "mix_server_count": 2,
              "proof_rounds": 4}
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "scenario.json").write_text(json.dumps({"voters": ["v1", "v2"]}))
    setup = ["setup", "--config", str(tmp_path / "config.json"),
             "--scenario", str(tmp_path / "scenario.json"), "--seed", "5",
             "--out-dir", str(tmp_path / "setup")]
    assert cli_main(setup) == 0

    election, credentials = Election.setup(ElectionConfig(**config), ["v1", "v2"], 5)
    intruder = ("intruder", derive_rng("acceptance-f15", "intruder"))
    [credentials["intruder"]] = enroll_voters(election.registry, [intruder])
    votes = [("v1", 0, 1), ("v2", 1, 2), ("intruder", 0, 3)]
    _cast_votes(election, credentials, votes, "acceptance-f15")
    election.close_election()
    election.run_tally()
    election.board.save(tmp_path / "board.jsonl")
    intruder_seq = election.board.find(KIND_BALLOT_CAST)[2].seq
    capsys.readouterr()

    verify = ["verify", "--board", str(tmp_path / "board.jsonl"),
              "--params", str(tmp_path / "setup" / "params.json")]
    assert cli_main(verify) == 2
    assert f"entry {intruder_seq}" in capsys.readouterr().out
