import functools
import hashlib
from collections import Counter
from dataclasses import replace
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from board_utils import exact_only
from evote import groups, mixnet
from evote.canonical import derive_rng
from evote.groups import (
    PROD_GROUP_3072,
    TEST_GROUP,
    Ciphertext,
    decrypt,
    encrypt,
    keygens,
    rand_scalar,
    reencrypt,
    reencrypts_to,
    settle,
)
from evote.mixnet import (
    SIDE_IN,
    SIDE_OUT,
    MixBatch,
    MixStage,
    ShuffleProof,
    _challenge_sides,
    build_proof,
    mix_once,
    mix_with_state,
    run_mixnet,
    strip_signatures,
    verify_mix,
)


def _batch(grp, pk, rows, seed="batch"):
    rng = derive_rng("mix", seed)
    items = tuple(
        tuple(encrypt(grp, pk, m, rand_scalar(grp, rng)) for m in row)
        for row in rows
    )
    return MixBatch(items=items)


def _decrypt_multiset(grp, sk, batch, bound=5):
    return Counter(
        tuple(decrypt(grp, sk, ct, bound) for ct in row) for row in batch.items
    )


def _faults(params, pk, batch_digest, stages, min_rounds):
    """`verify_mix`'s faults, its held-back ones settled."""
    [faults] = settle(params, verify_mix(params, pk, batch_digest, stages, min_rounds))
    return faults


def _verifies(params, pk, batch, out, proof, min_rounds=1):
    """Whether `verify_mix` accepts the one stage from `batch` to `out`."""
    return _faults(params, pk, None, [MixStage(batch, out, proof)], min_rounds) == []


@pytest.fixture
def keys(grp):
    return keygens(grp, [derive_rng("mix", "key")])[0]


def test_mix_preserves_plaintext_multiset(grp, keys):
    rows = [(0, 1), (1, 0), (1, 1), (0, 0), (2, 1)]
    batch = _batch(grp, keys.pk, rows)
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "server"), rounds=8)
    assert _decrypt_multiset(grp, keys.sk, out) == _decrypt_multiset(grp, keys.sk, batch)


def test_mix_rerandomizes_every_item(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, _ = mix_once(grp, keys.pk, batch, derive_rng("mix", "server2"), rounds=4)
    assert set(out.items).isdisjoint(set(batch.items))


def test_honest_mix_verifies(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1), (0, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "server3"), rounds=20)
    assert _verifies(grp, keys.pk, batch, out, proof, min_rounds=20)


def test_empty_batch_mixes_and_verifies(grp, keys):
    batch = MixBatch(items=())
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "empty"), rounds=3)
    assert out.items == ()
    assert _verifies(grp, keys.pk, batch, out, proof, min_rounds=3)


def test_single_item_batch(grp, keys):
    batch = _batch(grp, keys.pk, [(1, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "one"), rounds=5)
    assert _verifies(grp, keys.pk, batch, out, proof, min_rounds=5)
    assert _decrypt_multiset(grp, keys.sk, out) == _decrypt_multiset(grp, keys.sk, batch)


def test_rounds_below_minimum_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "few"), rounds=3)
    assert not _verifies(grp, keys.pk, batch, out, proof, min_rounds=4)


def test_wrong_size_output_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "size"), rounds=4)
    truncated = MixBatch(items=out.items[:2])
    assert not _verifies(grp, keys.pk, batch, truncated, proof, min_rounds=4)


def test_dropped_then_replaced_item_rejected(grp, keys):
    """A server replacing one ballot with its own encryption gets caught."""
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    rng = derive_rng("mix", "replace")
    mid, out, links = mix_with_state(grp, keys.pk, batch, rng)
    rogue = tuple(
        encrypt(grp, keys.pk, 1, rand_scalar(grp, rng)) for _ in range(2)
    )
    forged_items = (rogue,) + out.items[1:]
    forged = MixBatch(items=forged_items)
    proof = build_proof(links, batch, mid, forged, rounds=20)
    assert not _verifies(grp, keys.pk, batch, forged, proof, min_rounds=20)


def _tampered_run(grp, keys, trial):
    """One cheating-server trial: tamper one output slot post-shuffle, then
    rebuild the opening proof over the tampered transcript."""
    rng = derive_rng("mix", "tamper", trial)
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)], seed=f"t{trial}")
    mid, out, links = mix_with_state(grp, keys.pk, batch, rng)
    victim = trial % len(out.items)
    row = list(out.items[victim])
    # multiply one slot by g: plaintext shifts by +1, re-encryption equations
    # to the mid batch can no longer hold for that link
    row[0] = Ciphertext((row[0].c1), (row[0].c2 * grp.g) % grp.p)
    items = list(out.items)
    items[victim] = tuple(row)
    tampered = MixBatch(items=tuple(items))
    proof = build_proof(links, batch, mid, tampered, rounds=20)
    return not _verifies(grp, keys.pk, batch, tampered, proof, min_rounds=20)


def test_single_tamper_detectivity_sample(grp, keys):
    # 50 quick trials here; the acceptance suite runs the full 1000.
    assert all(_tampered_run(grp, keys, t) for t in range(50))


def test_ground_mid_commit_rejected(grp, keys):
    """A cheater tampers one output item and grinds the commitment it
    publishes for the honest mid layer until that item's mid link is
    challenged on the input side; every opened link then holds, and only
    the commitment check rejects the proof."""
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)], seed="grind")
    mid, out, links = mix_with_state(grp, keys.pk, batch, derive_rng("mix", "grind"))
    victim = 0
    [j] = [j for j, link in enumerate(links[1]) if link.index == victim]
    row = list(out.items[victim])
    row[0] = Ciphertext(row[0].c1, row[0].c2 * grp.g % grp.p)
    tampered = MixBatch(items=(tuple(row),) + out.items[1:])
    n = len(batch.items)
    for counter in count():
        commit = counter.to_bytes(32, "big")
        sides = _challenge_sides(batch.digest(), commit, tampered.digest(), 0, n)
        if sides[j] == SIDE_IN:
            break
    opened = tuple(links[side][k] for k, side in enumerate(sides))
    proof = ShuffleProof(mid=mid, mid_commit=commit, rounds=(opened,))
    assert not _verifies(grp, keys.pk, batch, tampered, proof)


def test_round_with_a_link_missing_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "short-round"), rounds=2)
    short = replace(proof, rounds=(proof.rounds[0][:-1],) + proof.rounds[1:])
    assert not _verifies(grp, keys.pk, batch, out, short, min_rounds=2)


def test_link_with_a_scalar_missing_rejected(grp, keys):
    """Without the length check, zip would stop at the shorter scalar list
    and check only the first slot."""
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "short-link"), rounds=2)
    first, *rest = proof.rounds[0]
    cut = replace(first, scalars=first.scalars[:-1])
    short = replace(proof, rounds=((cut, *rest),) + proof.rounds[1:])
    assert not _verifies(grp, keys.pk, batch, out, short, min_rounds=2)


def test_strip_signatures_preserves_order(grp, keys):
    class FakeEncrypted:
        def __init__(self, slots):
            self.slots = slots

    class FakeBallot:
        def __init__(self, slots):
            self.encrypted = FakeEncrypted(slots)

    rows = [
        tuple(encrypt(grp, keys.pk, m, 3) for m in (0, 1)),
        tuple(encrypt(grp, keys.pk, m, 4) for m in (1, 0)),
    ]
    batch = strip_signatures([FakeBallot(r) for r in rows])
    assert batch.items == tuple(rows)


def test_run_mixnet_chains_stages(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1), (0, 0)])
    rngs = [derive_rng("mix", "srv", i) for i in range(3)]
    final, stages = run_mixnet(grp, keys.pk, batch, rngs, rounds=6)
    assert len(stages) == 3
    assert verify_mix(grp, keys.pk, batch.digest(), stages, 6) == []
    assert stages[-1].batch_out == final
    assert _decrypt_multiset(grp, keys.sk, final) == _decrypt_multiset(grp, keys.sk, batch)


def test_batch_serialization_round_trip(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0)])
    assert MixBatch.from_bytes(batch.to_bytes()) == batch


def test_stage_serialization_round_trip(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "ser"), rounds=4)
    stage = MixStage(batch_in=batch, batch_out=out, proof=proof)
    restored = MixStage.from_bytes(stage.to_bytes())
    assert restored == stage
    assert verify_mix(grp, keys.pk, None, [restored], 4) == []


def test_proof_serialization_round_trip(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (0, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "pser"), rounds=4)
    assert ShuffleProof.from_bytes(proof.to_bytes()) == proof


# sha256 of proof.to_bytes() + out.to_bytes() from one mix_once.  n = 257
# goes past the first 256-item challenge digest, which no pinned board does.
@pytest.mark.parametrize(
    "n, rounds, expected",
    [
        (0, 1, "e09426a17d2b610f81c3f654fc8f046a98695f4f4ef86a3c901ae26c05d8bbad"),
        (1, 3, "4085d2b450c3bf6f98c9482bcc527e6bfd5355eaf4c61c621a5fd897f226c88c"),
        (3, 2, "5d3629060f65197a1d30b9c5fd92a177d062fb5e34de7e85c3614126493b7931"),
        (257, 2, "3e84110fa03274c993072b68c24de12c687dc861b65b1837d95a1fdf7c67d508"),
    ],
)
def test_shuffle_proof_bytes_are_pinned(grp, keys, n, rounds, expected):
    batch = _batch(grp, keys.pk, [(i % 2, (i + 1) % 2) for i in range(n)], seed=f"pin{n}")
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "pin", n), rounds=rounds)
    assert hashlib.sha256(proof.to_bytes() + out.to_bytes()).hexdigest() == expected


# On prod3072 the claim that a stage's opened links re-encrypt is checked in
# a batch; its verdict must be the one the per-slot check gives.
PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


def _per_slot(params, pk, links):
    """The reference for `_links_hold`: each opened slot in turn."""
    return all(
        reencrypts_to(params, pk, ct, r, target)
        for sources, scalars, targets in links
        for ct, r, target in zip(sources, scalars, targets)
    )


def _links_hold(params, pk, links):
    """Whether the claim that each (sources, scalars, targets) of `links`
    re-encrypts holds, as `verify_mix` builds and `settle` decides it."""
    failure = groups.fails_unless(
        params, "rejected", mixnet._link_equations, mixnet._links_hold, [links], pk
    )
    return settle(params, failure) == [[]]


def _verdicts(monkeypatch, params, pk, batch, out, proof):
    """(the stage's verdict, its verdict with the per-slot check)."""
    verdict = _verifies(params, pk, batch, out, proof, min_rounds=len(proof.rounds))
    with monkeypatch.context() as patch:
        exact_only(patch)
        exact = _verifies(params, pk, batch, out, proof, min_rounds=len(proof.rounds))
    return verdict, exact


@functools.cache
def _prod_key(member=True):
    pk = keygens(PROD_GROUP_3072, [derive_rng("mix", "prod-key")])[0].pk
    return pk if member else PROD_GROUP_3072.p - pk


def _key(name):
    if name == "prod3072":
        return _prod_key()
    return keygens(TEST_GROUP, [derive_rng("mix", "key")])[0].pk


@functools.cache
def _prod_state(member=True):
    """A prod3072 batch of n = 2 and one server's mid, output and links."""
    params, pk = PROD_GROUP_3072, _prod_key(member)
    batch = _batch(params, pk, [(0, 1), (1, 0)], seed="prod")
    return (batch, *mix_with_state(params, pk, batch, derive_rng("mix", "prod")))


def _cheat(params, pk, state, tamper):
    """A server that tampers the first output item whose out link its proof
    rebuilt over the tampered output opens, with `tamper(row)` giving the
    new slots, and that proof."""
    batch, mid, out, links = state
    for victim in range(len(out.items)):
        items = list(out.items)
        items[victim] = tamper(list(out.items[victim]))
        tampered = MixBatch(items=tuple(items))
        proof = build_proof(links, batch, mid, tampered, rounds=2)
        opened = [link for links_k in proof.rounds for link in links_k]
        if any(link.side == SIDE_OUT and link.index == victim for link in opened):
            return tampered, proof
    raise AssertionError("no output link opened")


def _set_component(slot, component, f):
    """`tamper` that applies f to one component of one slot."""

    def tamper(row):
        c1, c2 = row[slot].c1, row[slot].c2
        row[slot] = Ciphertext(f(c1), c2) if component == "c1" else Ciphertext(c1, f(c2))
        return tuple(row)

    return tamper


P, G = PROD_GROUP_3072.p, PROD_GROUP_3072.g


def _cancelling(row):
    """c1 times g and c2 times g^-1: under one weight w for both equations
    the targets' product of powers would not change."""
    row[0] = Ciphertext(row[0].c1 * G % P, row[0].c2 * pow(G, -1, P) % P)
    return tuple(row)


def _rogue(row):
    """The server's own encryptions of 1 in place of the item."""
    rng = derive_rng("mix", "prod-rogue")
    return tuple(
        encrypt(PROD_GROUP_3072, _prod_key(), 1, rand_scalar(PROD_GROUP_3072, rng)) for _ in row
    )


def test_prod_honest_mix_verdict_matches_the_per_slot_check(monkeypatch):
    params, pk = PROD_GROUP_3072, _prod_key()
    batch, mid, out, links = _prod_state()
    proof = build_proof(links, batch, mid, out, rounds=2)
    assert _verdicts(monkeypatch, params, pk, batch, out, proof) == (True, True)


@pytest.mark.parametrize(
    "tamper",
    [
        _set_component(1, "c2", lambda x: P - x),  # a non-member
        _set_component(1, "c1", lambda x: x * G % P),
        _set_component(1, "c2", lambda x: 0),
        _set_component(1, "c1", lambda x: P),
        _set_component(1, "c2", lambda x: P + x),  # the right residue, out of range
        _cancelling,
        _rogue,
    ],
    ids=["p-x", "x*g", "0", "p", "p+x", "cancelling", "rogue"],
)
def test_prod_tampered_output_verdict_matches_the_per_slot_check(monkeypatch, tamper):
    """A server that tampers an output item and rebuilds its proof."""
    params, pk, state = PROD_GROUP_3072, _prod_key(), _prod_state()
    tampered, proof = _cheat(params, pk, state, tamper)
    assert _verdicts(monkeypatch, params, pk, state[0], tampered, proof) == (False, False)


def test_prod_verdicts_under_a_non_member_key_match_the_per_slot_check(monkeypatch):
    """Under p - pk every c2 equation is checked exactly."""
    params, pk = PROD_GROUP_3072, _prod_key(member=False)
    state = _prod_state(member=False)
    batch, mid, out, links = state
    honest = build_proof(links, batch, mid, out, rounds=2)
    assert _verdicts(monkeypatch, params, pk, batch, out, honest) == (True, True)
    times_four = _set_component(0, "c2", lambda x: x * 4 % params.p)
    tampered, proof = _cheat(params, pk, state, times_four)
    assert _verdicts(monkeypatch, params, pk, batch, tampered, proof) == (False, False)


def test_prod_a_negated_target_is_rejected_whatever_its_weight():
    """y = p - x with r = 0: y / x = -1 lies outside the subgroup, where a
    batch would let it pass whenever its weight is even.  Sixteen such
    links, each with its own weights, are all rejected."""
    params, pk = PROD_GROUP_3072, _prod_key()
    for k in range(1, 17):
        x = params.exp(params.g, k)
        link = ((Ciphertext(x, x),), (0,), (Ciphertext(params.p - x, x),))
        assert not _links_hold(params, pk, [link])


def test_prod_honest_links_under_a_non_member_key_hold_whatever_the_weights():
    """Under a key of order 2q, pk^(sum w*r mod q) differs from the product
    of the pk^(w*r) by -1 about half the time, so its equations stay exact:
    eight honest links, each with its own weights, all hold."""
    params, pk = PROD_GROUP_3072, _prod_key(member=False)
    shift = reencrypt(params, pk, Ciphertext(1, 1), params.q - 1)
    for k in range(1, 9):
        x = params.exp(params.g, k)
        target = Ciphertext(x * shift.c1 % params.p, x * shift.c2 % params.p)
        assert _links_hold(params, pk, [((Ciphertext(x, x),), (params.q - 1,), (target,))])


@pytest.mark.parametrize("name", PROFILES)
def test_two_links_opened_for_one_side_of_a_mid_item_are_both_checked(name):
    """A proof that opens two different links for the same (side, j) in two
    rounds: corrupting the scalars of either copy must fail, so checking
    each distinct equation once may not merge them."""
    params = PROFILES[name]
    pk = _key(name)
    batch = _batch(params, pk, [(0, 1), (1, 0)], seed="two-links")
    out, proof = mix_once(params, pk, batch, derive_rng("mix", "two-links"), rounds=3)
    assert _verifies(params, pk, batch, out, proof, min_rounds=3)
    # Three rounds and two sides: some mid item has the same side twice.
    j, k1, k2 = next(
        (j, k1, k2)
        for j in range(2)
        for k1 in range(3)
        for k2 in range(k1 + 1, 3)
        if proof.rounds[k1][j].side == proof.rounds[k2][j].side
    )
    for k in (k1, k2):
        link = proof.rounds[k][j]
        bad = replace(link, scalars=((link.scalars[0] + 1) % params.q, *link.scalars[1:]))
        opened = list(proof.rounds[k])
        opened[j] = bad
        rounds = proof.rounds[:k] + (tuple(opened),) + proof.rounds[k + 1 :]
        assert not _verifies(params, pk, batch, out, replace(proof, rounds=rounds))


@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=max(5, settings().max_examples // 20), deadline=None)
@given(data=st.data())
def test_link_claim_matches_the_per_slot_check(name, data):
    """Links of random ciphertexts, some components outside the subgroup or
    outside [1, p), with targets re-encrypted honestly or tampered, under a
    member key and a non-member one; a link may be opened twice."""
    params = PROFILES[name]
    p, q, g = params.p, params.q, params.g
    key = _key(name)
    pk = data.draw(st.sampled_from([key, p - key]))
    values = st.one_of(st.sampled_from([0, 1, p - 1, p]), st.integers(1, p - 1))
    scalars = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    changes = st.sampled_from(
        [lambda y: y, lambda y: y * g % p, lambda y: p - y, lambda y: 0, lambda y: p]
    )
    links = []
    for _ in range(data.draw(st.integers(0, 2))):
        width = data.draw(st.integers(1, 2))
        sources = tuple(Ciphertext(data.draw(values), data.draw(values)) for _ in range(width))
        rs = tuple(data.draw(scalars) for _ in range(width))
        targets = tuple(
            Ciphertext(data.draw(changes)(t.c1), data.draw(changes)(t.c2))
            for t in (reencrypt(params, pk, ct, r) for ct, r in zip(sources, rs))
        )
        links.append((sources, rs, targets))
        if data.draw(st.booleans()):
            links.append(links[-1])
    assert _links_hold(params, pk, links) == _per_slot(params, pk, links)


# `verify_mix` checks a chain of stages: each stage's opened links are one
# claim, and `settle` decides every stage's in one batch, bisected if it fails.
@functools.cache
def _chain(name):
    """A two-stage chain over a batch of n = 2: (batch, stages, each stage's
    (input, mid, output, links))."""
    params, pk = PROFILES[name], _key(name)
    batch = _batch(params, pk, [(0, 1), (1, 0)], seed="chain")
    stages, states, current = [], [], batch
    for i in range(2):
        state = (current, *mix_with_state(params, pk, current, derive_rng("mix", "chain", i)))
        _, mid, out, links = state
        stages.append(MixStage(current, out, build_proof(links, current, mid, out, rounds=2)))
        states.append(state)
        current = out
    return batch, stages, states


def _failures(monkeypatch, params, pk, batch, stages):
    """(verify_mix's faults, its faults with the per-slot check)."""
    failures = _faults(params, pk, batch.digest(), stages, 2)
    with monkeypatch.context() as patch:
        exact_only(patch)
        exact = _faults(params, pk, batch.digest(), stages, 2)
    return failures, exact


def test_prod_honest_chain_is_one_batch_with_one_comb_power_per_fixed_base(monkeypatch):
    params, pk = PROD_GROUP_3072, _prod_key()
    batch, stages, _ = _chain("prod3072")
    full = params._comb_widths[0][1]
    batches, full_powers = [], []
    batch_verdicts, power = groups.batch_verdicts, groups._Comb.power

    def verdicts_spy(*args):
        batches.append(args)
        return batch_verdicts(*args)

    def power_spy(comb, e):
        if e in full:
            full_powers.append(e)
        return power(comb, e)

    monkeypatch.setattr(groups, "batch_verdicts", verdicts_spy)
    monkeypatch.setattr(groups._Comb, "power", power_spy)
    assert _faults(params, pk, batch.digest(), stages, 2) == []
    assert len(batches) == 1
    assert len(full_powers) == 2


@pytest.mark.parametrize("tampered", [0, 1])
@pytest.mark.parametrize("name", PROFILES)
def test_tampered_stage_is_the_only_one_named(monkeypatch, name, tampered):
    """A server that tampers an output item of its stage and rebuilds its
    proof; a later server mixes the tampered output honestly."""
    params, pk = PROFILES[name], _key(name)
    batch, stages, states = _chain(name)
    times_g = _set_component(1, "c1", lambda x: x * params.g % params.p)
    out, proof = _cheat(params, pk, states[tampered], times_g)
    cheated = MixStage(stages[tampered].batch_in, out, proof)
    if tampered == 0:
        later, later_proof = mix_once(params, pk, out, derive_rng("mix", "chain-later"), rounds=2)
        chain = [cheated, MixStage(out, later, later_proof)]
    else:
        chain = [stages[0], cheated]
    failures, exact = _failures(monkeypatch, params, pk, batch, chain)
    assert failures == exact == [(tampered, "proof rejected")]


def _reshaped_stage(params, pk, widen):
    """A 4-item stage whose mid and output gain a third slot encrypting 1
    (`widen`) or drop the input's third slot, its links and proof rebuilt
    to match, so that every opened re-encryption holds."""
    width = 2 if widen else 3
    batch = _batch(params, pk, [(i % 2,) * width for i in range(4)], seed="reshape")
    rng = derive_rng("mix", "reshape")
    mid, out, (links_in, links_out) = mix_with_state(params, pk, batch, rng)
    out_items = list(out.items)
    if widen:
        extra = [encrypt(params, pk, 1, rand_scalar(params, rng)) for _ in mid.items]
        rs = [rand_scalar(params, rng) for _ in mid.items]
        mid = MixBatch(tuple(item + (ct,) for item, ct in zip(mid.items, extra)))
        for link, ct, r in zip(links_out, extra, rs):
            out_items[link.index] += (reencrypt(params, pk, ct, r),)
        links_out = tuple(
            replace(link, scalars=link.scalars + (r,)) for link, r in zip(links_out, rs)
        )
    else:
        mid = MixBatch(tuple(item[:-1] for item in mid.items))
        out_items = [item[:-1] for item in out_items]
        links_out = tuple(replace(link, scalars=link.scalars[:-1]) for link in links_out)
    out = MixBatch(tuple(out_items))
    return MixStage(batch, out, build_proof((links_in, links_out), batch, mid, out, rounds=20))


@pytest.mark.parametrize("widen", [True, False], ids=["widen", "narrow"])
@pytest.mark.parametrize("name", PROFILES)
def test_a_stage_that_changes_the_slot_count_is_rejected(name, widen):
    """Without one slot count for a stage's input, mid and output, zip would
    check each opened link up to its shorter side, and every ballot after
    the stage would decrypt to the wrong slot count."""
    params, pk = PROFILES[name], _key(name)
    stage = _reshaped_stage(params, pk, widen)
    assert len(stage.batch_out.items[0]) - len(stage.batch_in.items[0]) == (1 if widen else -1)
    assert verify_mix(params, pk, None, [stage], 20) == [(0, "proof rejected")]


@pytest.mark.parametrize("name", PROFILES)
def test_chain_failures_keep_their_order(monkeypatch, name):
    """A bad link in stage 0, a stage 1 that mixes another input and, with
    a transferred batch that is neither, stage 0's input: per stage, input
    or continuity first, then the proof."""
    params, pk = PROFILES[name], _key(name)
    batch, stages, _ = _chain(name)
    first = stages[0].proof
    link = first.rounds[0][0]
    bad = replace(link, scalars=((link.scalars[0] + 1) % params.q, *link.scalars[1:]))
    rounds = ((bad, *first.rounds[0][1:]), *first.rounds[1:])
    broken = replace(stages[0], proof=replace(first, rounds=rounds))
    chain = [broken, replace(stages[1], batch_in=batch)]
    expected = [(0, "proof rejected"), (1, "input breaks continuity"), (1, "proof rejected")]
    assert _failures(monkeypatch, params, pk, batch, chain) == (expected, expected)
    other = _batch(params, pk, [(1, 1), (0, 0)], seed="chain-other")
    mismatch = [(0, "input does not match the transferred batch")] + expected
    assert _faults(params, pk, other.digest(), chain, 2) == mismatch
