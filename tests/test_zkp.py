import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evote.canonical import derive_rng, digest
from evote import zkp
from evote.groups import PROD_GROUP_3072, TEST_GROUP, encrypt, keygen, rand_scalar
from evote.mixnet import MixBatch, MixStage, mix_once, verify_mix
from evote.registry import sig_statement, sign
from evote.zkp import (
    DecryptionProof,
    WellformedProof,
    decryption_statement,
    holds,
    prove_correct_decryption,
    prove_wellformed,
    wellformed_statements,
)


def _decryption_setup(seed="cp"):
    grp = TEST_GROUP
    kp = keygen(grp, derive_rng(seed))
    ct = encrypt(grp, kp.pk, 1, 4)
    d = pow(ct.c1, kp.sk, grp.p)
    proof = prove_correct_decryption(grp, kp.sk, ct, d)
    return grp, kp, ct, d, proof


def test_decryption_proof_accepts_honest_prover():
    grp, kp, ct, d, proof = _decryption_setup()
    assert holds(grp, [decryption_statement(grp, kp.pk, ct, d, proof)]) == [True]


def test_decryption_proof_rejects_wrong_share_value():
    grp, kp, ct, d, proof = _decryption_setup()
    claim = (kp.pk, ct, (d * grp.g) % grp.p, proof)
    assert holds(grp, [decryption_statement(grp, *claim)]) == [False]


def test_decryption_proof_rejects_wrong_key_commitment():
    grp, kp, ct, d, proof = _decryption_setup()
    claim = ((kp.pk * grp.g) % grp.p, ct, d, proof)
    assert holds(grp, [decryption_statement(grp, *claim)]) == [False]


@pytest.mark.parametrize("field", ["commit_g", "commit_c1", "challenge", "response"])
def test_decryption_proof_rejects_any_tampered_field(field):
    grp, kp, ct, d, proof = _decryption_setup()
    bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % grp.p})
    assert holds(grp, [decryption_statement(grp, kp.pk, ct, d, bad)]) == [False]


def test_decryption_proof_is_deterministic():
    _, _, _, _, a = _decryption_setup()
    _, _, _, _, b = _decryption_setup()
    assert a == b


def test_decryption_proof_serialization_round_trip():
    grp, kp, ct, d, proof = _decryption_setup()
    assert DecryptionProof.from_bytes(proof.to_bytes()) == proof


def _ballot_setup(bits, seed="wf"):
    grp = TEST_GROUP
    kp = keygen(grp, derive_rng(seed, "key"))
    rng = derive_rng(seed, "r")
    rs = [rand_scalar(grp, rng) for _ in bits]
    slots = [encrypt(grp, kp.pk, b, r) for b, r in zip(bits, rs)]
    return grp, kp, slots, rs


def _wellformed_holds(grp, pk, slots, proof):
    """The ballot-proof check the cast check and the verifier make."""
    return all(zkp.holds(grp, wellformed_statements(grp, pk, slots, proof)))


@pytest.mark.parametrize("bits", [(1,), (1, 0), (0, 1, 0), (0, 0, 0, 1)])
def test_wellformed_accepts_unit_vectors(bits):
    grp, kp, slots, rs = _ballot_setup(bits)
    proof = prove_wellformed(grp, kp.pk, slots, rs, bits.index(1))
    assert _wellformed_holds(grp, kp.pk, slots, proof)


def _prove_with_true_bits(grp, pk, slots, rs, bits):
    """Honest slot proofs for the actual bit values plus the (necessarily
    failing) sum argument, isolating the sum check from the slot checks."""
    from evote import zkp

    sd = digest(slots)
    slot_proofs = tuple(
        zkp._prove_slot(grp, pk, ct, i, sd, rs[i], bits[i])
        for i, ct in enumerate(slots)
    )
    prod_a, prod_b, _ = zkp._sum_statement(grp, pk, slots)
    total_r = sum(rs) % grp.q
    w = zkp.nonce(grp, "sum-w", total_r, sd)
    cg, ch = pow(grp.g, w, grp.p), pow(pk, w, grp.p)
    e = zkp._challenge(grp, zkp.DOMAIN_SUM, pk, prod_a, prod_b, cg, ch, sd)
    z = (w + e * total_r) % grp.q
    return WellformedProof(slots=slot_proofs, sum_proof=DecryptionProof(cg, ch, e, z))


def test_wellformed_sum_check_rejects_two_ones():
    # Each slot is honestly 0/1 so every slot proof passes; only the sum
    # argument can (and must) catch the overvote.
    from evote import zkp

    grp, kp, slots, rs = _ballot_setup((1, 1, 0))
    forged = _prove_with_true_bits(grp, kp.pk, slots, rs, (1, 1, 0))
    # Both branches of every slot hold; only the sum statement, last, fails.
    statements = zkp.wellformed_statements(grp, kp.pk, slots, forged)
    assert zkp.holds(grp, statements) == [True] * 6 + [False]
    assert not _wellformed_holds(grp, kp.pk, slots, forged)


def test_wellformed_sum_check_rejects_all_zeros():
    from evote import zkp

    grp, kp, slots, rs = _ballot_setup((0, 0, 0))
    forged = _prove_with_true_bits(grp, kp.pk, slots, rs, (0, 0, 0))
    # Both branches of every slot hold; only the sum statement, last, fails.
    statements = zkp.wellformed_statements(grp, kp.pk, slots, forged)
    assert zkp.holds(grp, statements) == [True] * 6 + [False]
    assert not _wellformed_holds(grp, kp.pk, slots, forged)


def test_wellformed_slot_check_rejects_value_two():
    grp = TEST_GROUP
    kp = keygen(grp, derive_rng("two", "key"))
    rng = derive_rng("two", "r")
    bits = (2, 0, 0)  # not a 0/1 slot; prover lies and claims index 0
    rs = [rand_scalar(grp, rng) for _ in bits]
    slots = [encrypt(grp, kp.pk, b, r) for b, r in zip(bits, rs)]
    forged = prove_wellformed(grp, kp.pk, slots, rs, 0)
    assert not _wellformed_holds(grp, kp.pk, slots, forged)


def test_wellformed_rejects_swapped_slot_proofs():
    grp, kp, slots, rs = _ballot_setup((0, 1, 0))
    proof = prove_wellformed(grp, kp.pk, slots, rs, 1)
    swapped = WellformedProof(
        slots=(proof.slots[1], proof.slots[0], proof.slots[2]),
        sum_proof=proof.sum_proof,
    )
    # Slot 0's challenge no longer recomputes.
    assert wellformed_statements(grp, kp.pk, slots, swapped) == [None]
    assert not _wellformed_holds(grp, kp.pk, slots, swapped)


def test_wellformed_rejects_proof_for_other_ballot():
    grp, kp, slots, rs = _ballot_setup((0, 1, 0), seed="a")
    _, _, other_slots, other_rs = _ballot_setup((0, 1, 0), seed="b")
    proof = prove_wellformed(grp, kp.pk, other_slots, other_rs, 1)
    assert not _wellformed_holds(grp, kp.pk, slots, proof)


def test_wellformed_rejects_wrong_slot_count():
    grp, kp, slots, rs = _ballot_setup((0, 1, 0))
    proof = prove_wellformed(grp, kp.pk, slots, rs, 1)
    empty = WellformedProof(slots=(), sum_proof=proof.sum_proof)
    assert wellformed_statements(grp, kp.pk, slots[:2], proof) == [None]
    assert wellformed_statements(grp, kp.pk, [], empty) == [None]
    assert not _wellformed_holds(grp, kp.pk, slots[:2], proof)
    assert not _wellformed_holds(grp, kp.pk, [], empty)


def test_wellformed_serialization_round_trip():
    grp, kp, slots, rs = _ballot_setup((0, 0, 1))
    proof = prove_wellformed(grp, kp.pk, slots, rs, 2)
    restored = WellformedProof.from_bytes(proof.to_bytes())
    assert restored == proof
    assert _wellformed_holds(grp, kp.pk, slots, restored)


@given(st.integers(0, 4), st.integers(1, 1000))
def test_wellformed_accepts_any_choice_position(idx, seed):
    n = 5
    bits = tuple(1 if i == idx else 0 for i in range(n))
    grp, kp, slots, rs = _ballot_setup(bits, seed=f"pos{seed}")
    proof = prove_wellformed(grp, kp.pk, slots, rs, idx)
    assert _wellformed_holds(grp, kp.pk, slots, proof)


# --- every scalar of every proof lies in [0, q) ---
#
# Each case builds an honest transcript, adds `shift` to one of its scalars
# and returns the verifier's verdict.  Adding q leaves every verification
# equation true (each base has order q), so only a range check can reject it.


def _signature_response(shift):
    grp = TEST_GROUP
    kp = keygen(grp, derive_rng("range", "sig"))
    sig = sign(grp, kp.sk, b"message")
    edited = dataclasses.replace(sig, response=sig.response + shift)
    return zkp.holds(grp, [sig_statement(grp, kp.pk, b"message", edited)]) == [True]


def _decryption_response(shift):
    grp, kp, ct, d, proof = _decryption_setup("range")
    claim = (kp.pk, ct, d, dataclasses.replace(proof, response=proof.response + shift))
    return holds(grp, [decryption_statement(grp, *claim)]) == [True]


def _wellformed(edit):
    def case(shift):
        grp, kp, slots, rs = _ballot_setup((0, 1, 0), seed="range")
        proof = prove_wellformed(grp, kp.pk, slots, rs, 1)
        return _wellformed_holds(grp, kp.pk, slots, edit(proof, shift))

    return case


def _slot_field(field):
    def edit(proof, shift):
        first = proof.slots[0]
        first = dataclasses.replace(first, **{field: getattr(first, field) + shift})
        return dataclasses.replace(proof, slots=(first, *proof.slots[1:]))

    return _wellformed(edit)


def _sum_response(proof, shift):
    sum_proof = proof.sum_proof
    edited = dataclasses.replace(sum_proof, response=sum_proof.response + shift)
    return dataclasses.replace(proof, sum_proof=edited)


def _mix_scalar(shift):
    grp = TEST_GROUP
    kp = keygen(grp, derive_rng("range", "mix-key"))
    rng = derive_rng("range", "mix-batch")
    batch = MixBatch(
        items=tuple(
            (encrypt(grp, kp.pk, m, rand_scalar(grp, rng)),) for m in (0, 1, 1)
        )
    )
    out, proof = mix_once(grp, kp.pk, batch, derive_rng("range", "mix"), rounds=2)
    first_round = proof.rounds[0]
    link = first_round[0]
    link = dataclasses.replace(link, scalars=(link.scalars[0] + shift, *link.scalars[1:]))
    rounds = ((link, *first_round[1:]), *proof.rounds[1:])
    stage = MixStage(batch, out, dataclasses.replace(proof, rounds=rounds))
    return verify_mix(grp, kp.pk, None, [stage], 1) == []


@pytest.mark.parametrize(
    "case",
    [
        _signature_response,
        _decryption_response,
        _slot_field("z0"),
        _slot_field("e0"),
        _wellformed(_sum_response),
        _mix_scalar,
    ],
    ids=[
        "signature response", "decryption response", "slot z0", "slot e0",
        "sum-proof response", "opened re-encryption scalar",
    ],
)
def test_scalar_plus_q_is_rejected(case):
    assert case(0)
    assert not case(TEST_GROUP.q)


# Fixed inputs of the Fiat-Shamir hashes and their outputs, pinned on both
# groups.  On prod3072 every output is the full sha256 (it lies below q), so
# a drift in the encoding of one statement names the hash that moved.
_BIG = 3**2000
_CHALLENGES = [
    (zkp.DOMAIN_CP, (5, b"\x01\x02", 0, 7, 9)),
    (zkp.DOMAIN_SLOT, (3, b"", 1, b"\xff" * 32, 4, 2, 8, 1)),
    (zkp.DOMAIN_SUM, (_BIG, 2**256, 1, 6, b"sd")),
    (zkp.DOMAIN_SUM, ()),
]
_NONCES = [
    (("fake-e", 3, 1, b"stmt"), {}),
    ((_BIG, b"", 0), {}),
    ((7, b"msg"), {"domain": "evote/registry/schnorr-nonce"}),
    (("real-w", "\u00fc", [1, (2, b"x")], None), {}),
]
_PINNED = {
    "test": {"challenge": [2, 10, 2, 2], "nonce": [0, 1, 10, 6]},
    "prod3072": {
        "challenge": [
            73793088724640771486340501434534250552357237176240717351098648469559960972956,
            9874190224597621502870724674352832552632418228143632329126836247178561631857,
            100358780077647471572296827081266939512113327704870164448584242497742740797363,
            25082543857213761949591145232426966844482352962429328576017799206271759129799,
        ],
        "nonce": [
            113529358053597620616052001517098072213451636593062771342351753633104789546449,
            5247868639192868051677591992917952031130634480106004731190281055869130395869,
            39686947028024577655776267570845761508923485409748050777360075024270463568448,
            91560180056368455604867456092214095684878515782965741640465213418827627261417,
        ],
    },
}
_GROUPS = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_challenge_outputs_are_pinned(group):
    params = _GROUPS[group]
    values = [zkp._challenge(params, domain, *fields) for domain, fields in _CHALLENGES]
    assert values == _PINNED[group]["challenge"]


@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_nonce_outputs_are_pinned(group):
    params = _GROUPS[group]
    values = [zkp.nonce(params, *fields, **kw) for fields, kw in _NONCES]
    assert values == _PINNED[group]["nonce"]
