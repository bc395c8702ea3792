"""Golden bytes on the production group.

A ballot, a one-item mix stage and a partial decryption are built on
prod3072 from fixed seeds, and their published payloads are pinned by
sha256.  The digests were computed with builtin `pow` for every
exponentiation, so any change in how `groups` computes a power that alters
one result fails here.  The verifiers must accept the same artifacts.
"""

import hashlib

import pytest

from evote import bulletin
from evote.ballot import compose_ballot, encode_choice
from evote.canonical import derive_rng
from evote.groups import PROD_GROUP_3072, partial_decrypt, settle, threshold_keygen
from evote.mixnet import MixStage, mix_once, strip_signatures, verify_mix
from evote.registry import Registry, enroll_voters
from evote.zkp import decryption_statement, holds, wellformed_statements

GOLDEN = {
    "ballot": "13c320bc81ffe2346e4100c8a85636f5e070220f121fe7d9dd76df2875f9387a",
    "mix_stage": "9da230d32c6be7c6574cd042025d5f869b4ef3cb785a3bb17362d76a0c642122",
    "partial_decryption": "bc689d35bd09ca41e852bd84454f660ad196ebacc070687467f991928ee3ea24",
}


@pytest.fixture(scope="module")
def artifacts():
    params = PROD_GROUP_3072
    key, shares = threshold_keygen(params, 2, derive_rng("golden", "trustees"))
    registry = Registry(params)
    [cred] = enroll_voters(registry, [("voter0", derive_rng("golden", "enroll"))])
    sb = compose_ballot(
        params, cred, key.h, encode_choice(1, 2), timestamp=1, rng=derive_rng("golden", "ballot")
    )
    batch = strip_signatures([sb])
    out, proof = mix_once(params, key.h, batch, derive_rng("golden", "mix"), rounds=1)
    stage = MixStage(batch_in=batch, batch_out=out, proof=proof)
    ct = out.items[0][0]
    [pd] = partial_decrypt(params, shares[:1], ct)
    payloads = {
        "ballot": sb.published().to_bytes(),
        "mix_stage": bulletin.MixStagePayload(0, stage).to_bytes(),
        "partial_decryption": bulletin.PartialDecryptionPayload(
            0, 0, pd.trustee_index, pd.d, pd.proof
        ).to_bytes(),
    }
    return params, key, shares, sb, stage, ct, pd, payloads


def test_prod_payload_digests_are_pinned(artifacts):
    payloads = artifacts[-1]
    assert {k: hashlib.sha256(v).hexdigest() for k, v in payloads.items()} == GOLDEN


def test_prod_verifiers_accept_the_pinned_artifacts(artifacts):
    params, key, shares, sb, stage, ct, pd, _ = artifacts
    slots, proof = list(sb.encrypted.slots), sb.encrypted.wellformed
    assert all(holds(params, wellformed_statements(params, key.h, slots, proof)))
    assert settle(params, verify_mix(params, key.h, None, [stage], 1)) == [[]]
    assert holds(params, [decryption_statement(params, shares[0].h, ct, pd.d, pd.proof)]) == [True]
