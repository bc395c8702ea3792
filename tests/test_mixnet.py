import hashlib
from collections import Counter
from dataclasses import replace
from itertools import count

import pytest

from evote.canonical import derive_rng
from evote.groups import Ciphertext, TEST_GROUP, decrypt, encrypt, keygen, rand_scalar
from evote.mixnet import (
    SIDE_IN,
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


@pytest.fixture
def keys(grp):
    return keygen(grp, derive_rng("mix", "key"))


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
    assert verify_mix(grp, keys.pk, batch, out, proof, min_rounds=20)


def test_empty_batch_mixes_and_verifies(grp, keys):
    batch = MixBatch(items=())
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "empty"), rounds=3)
    assert out.items == ()
    assert verify_mix(grp, keys.pk, batch, out, proof, min_rounds=3)


def test_single_item_batch(grp, keys):
    batch = _batch(grp, keys.pk, [(1, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "one"), rounds=5)
    assert verify_mix(grp, keys.pk, batch, out, proof, min_rounds=5)
    assert _decrypt_multiset(grp, keys.sk, out) == _decrypt_multiset(grp, keys.sk, batch)


def test_rounds_below_minimum_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "few"), rounds=3)
    assert not verify_mix(grp, keys.pk, batch, out, proof, min_rounds=4)


def test_wrong_size_output_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "size"), rounds=4)
    truncated = MixBatch(items=out.items[:2])
    assert not verify_mix(grp, keys.pk, batch, truncated, proof, min_rounds=4)


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
    assert not verify_mix(grp, keys.pk, batch, forged, proof, min_rounds=20)


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
    return not verify_mix(grp, keys.pk, batch, tampered, proof, min_rounds=20)


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
    assert not verify_mix(grp, keys.pk, batch, tampered, proof)


def test_round_with_a_link_missing_rejected(grp, keys):
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "short-round"), rounds=2)
    short = replace(proof, rounds=(proof.rounds[0][:-1],) + proof.rounds[1:])
    assert not verify_mix(grp, keys.pk, batch, out, short, min_rounds=2)


def test_link_with_a_scalar_missing_rejected(grp, keys):
    """Without the length check, zip would stop at the shorter scalar list
    and check only the first slot."""
    batch = _batch(grp, keys.pk, [(0, 1), (1, 0), (1, 1)])
    out, proof = mix_once(grp, keys.pk, batch, derive_rng("mix", "short-link"), rounds=2)
    first, *rest = proof.rounds[0]
    cut = replace(first, scalars=first.scalars[:-1])
    short = replace(proof, rounds=((cut, *rest),) + proof.rounds[1:])
    assert not verify_mix(grp, keys.pk, batch, out, short, min_rounds=2)


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
    assert stages[0].batch_in == batch
    for i, stage in enumerate(stages):
        if i:
            assert stage.batch_in == stages[i - 1].batch_out
        assert verify_mix(
            grp, keys.pk, stage.batch_in, stage.batch_out, stage.proof, min_rounds=6
        )
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
    assert verify_mix(
        grp, keys.pk, restored.batch_in, restored.batch_out, restored.proof, min_rounds=4
    )


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
