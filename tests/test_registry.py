import pytest

from evote.canonical import derive_rng
from evote.errors import DuplicateVoter
from evote.groups import PROD_GROUP_3072, TEST_GROUP
from evote.registry import (
    Registry,
    Signature,
    _sig_challenge,
    enroll_voter,
    enroll_voters,
    is_eligible,
    revoke_eligibility,
    sig_statement,
    sign,
    verify_key_of,
)
from evote.zkp import holds


@pytest.fixture
def registry(grp):
    return Registry(grp)


def _verifies(grp, verify_key, message, sig) -> bool:
    return holds(grp, [sig_statement(grp, verify_key, message, sig)]) == [True]


def test_enroll_returns_credential_with_matching_keys(grp, registry):
    cred = enroll_voter(registry, "alice", derive_rng("reg", "alice"))
    assert cred.voter_id == "alice"
    assert pow(grp.g, cred.signing_key, grp.p) == cred.verify_key
    assert verify_key_of(registry, "alice") == cred.verify_key


def test_duplicate_enrollment_rejected(registry):
    enroll_voter(registry, "alice", derive_rng("reg", 1))
    with pytest.raises(DuplicateVoter):
        enroll_voter(registry, "alice", derive_rng("reg", 2))


@pytest.mark.parametrize("params", [TEST_GROUP, PROD_GROUP_3072], ids=["test", "prod3072"])
def test_enroll_voters_matches_enroll_voter(params):
    """One batch gives each voter the credential `enroll_voter` gives, in
    order; a voter enrolled already, or twice in the batch, raises
    DuplicateVoter before any record is added."""
    ids = ["alice", "bob", "carol"]
    one = Registry(params)
    expected = [enroll_voter(one, vid, derive_rng("reg", vid)) for vid in ids]
    batch = Registry(params)
    assert enroll_voters(batch, [(vid, derive_rng("reg", vid)) for vid in ids]) == expected
    assert batch.records == one.records
    for voters in (["dave", "alice"], ["dave", "dave"]):
        with pytest.raises(DuplicateVoter):
            enroll_voters(batch, [(vid, derive_rng("reg", vid)) for vid in voters])
        assert batch.records == one.records


def test_eligibility_lifecycle(registry):
    enroll_voter(registry, "bob", derive_rng("reg", "bob"))
    assert is_eligible(registry, "bob")
    assert not is_eligible(registry, "never-enrolled")
    revoke_eligibility(registry, "bob")
    assert not is_eligible(registry, "bob")


def test_sign_verify_round_trip(grp, registry):
    cred = enroll_voter(registry, "carol", derive_rng("reg", "carol"))
    sig = sign(grp, cred.signing_key, b"message")
    assert _verifies(grp, cred.verify_key, b"message", sig)


def test_signature_bound_to_message(grp, registry):
    cred = enroll_voter(registry, "dave", derive_rng("reg", "dave"))
    sig = sign(grp, cred.signing_key, b"message")
    assert not _verifies(grp, cred.verify_key, b"other", sig)


def test_signature_bound_to_key(grp, registry):
    a = enroll_voter(registry, "a", derive_rng("reg", "a"))
    b = enroll_voter(registry, "b", derive_rng("reg", "b"))
    sig = sign(grp, a.signing_key, b"message")
    assert not _verifies(grp, b.verify_key, b"message", sig)


def test_tampered_signature_rejected(grp, registry):
    cred = enroll_voter(registry, "eve", derive_rng("reg", "eve"))
    sig = sign(grp, cred.signing_key, b"message")
    bad = Signature(commit=sig.commit, response=(sig.response + 1) % grp.q)
    assert not _verifies(grp, cred.verify_key, b"message", bad)


def test_signing_is_deterministic(grp, registry):
    cred = enroll_voter(registry, "frank", derive_rng("reg", "frank"))
    assert sign(grp, cred.signing_key, b"m") == sign(grp, cred.signing_key, b"m")
    assert sign(grp, cred.signing_key, b"m") != sign(grp, cred.signing_key, b"n")


def test_registry_save_load_round_trip(grp, registry, tmp_path):
    enroll_voter(registry, "alice", derive_rng("reg", 10))
    enroll_voter(registry, "bob", derive_rng("reg", 11))
    revoke_eligibility(registry, "bob")
    path = tmp_path / "registry.jsonl"
    registry.save(path)
    loaded = Registry.load(grp, path)
    assert verify_key_of(loaded, "alice") == verify_key_of(registry, "alice")
    assert is_eligible(loaded, "alice")
    assert not is_eligible(loaded, "bob")


# Fixed (verify key, commitment, message) inputs of the signature challenge
# and its outputs on both groups; on prod3072 each is the full sha256.
_SIG_INPUTS = [(1, 2, b""), (3**2000, 2**255, b"ballot bytes"), (0, 0, b"\x00" * 40)]
_PINNED_SIG = {
    "test": (TEST_GROUP, [9, 4, 8]),
    "prod3072": (PROD_GROUP_3072, [
        22357837512271898139394702712259101542349761715439365924765474089563588749692,
        34801967149183648546261666296719967213042996726369449698864842632969755064822,
        36019753961579590493396469263593759136159534504111034585905938079089873968970,
    ]),
}


@pytest.mark.parametrize("group", sorted(_PINNED_SIG))
def test_signature_challenge_outputs_are_pinned(group):
    params, expected = _PINNED_SIG[group]
    assert [_sig_challenge(params, *inputs) for inputs in _SIG_INPUTS] == expected
