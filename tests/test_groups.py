import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubRng
from evote.canonical import derive_rng
from evote.errors import (
    DecodeRangeError,
    DuplicateShareError,
    InvalidPartialProof,
    MissingShareError,
)
from evote.groups import (
    Ciphertext,
    GroupParams,
    PROD_GROUP_3072,
    TEST_GROUP,
    combine,
    decrypt,
    encrypt,
    keygen,
    partial_decrypt,
    reencrypt,
    reencrypts_to,
    threshold_decrypt,
    threshold_keygen,
)


# --- frozen worked example: p=23, q=11, g=2, sk=3 ---

def test_keygen_from_known_secret(grp):
    kp = keygen(grp, StubRng([3]))
    assert kp.sk == 3
    assert kp.pk == 8


def test_encrypt_known_vector(grp):
    ct = encrypt(grp, 8, 1, 4)
    assert (ct.c1, ct.c2) == (16, 4)


def test_decrypt_known_vector(grp):
    assert decrypt(grp, 3, Ciphertext(16, 4), 5) == 1


def test_reencrypt_known_vector(grp):
    ct = reencrypt(grp, 8, Ciphertext(16, 4), 1)
    assert (ct.c1, ct.c2) == (9, 9)
    assert decrypt(grp, 3, ct, 5) == 1


def test_zero_randomness_rejected(grp):
    with pytest.raises(ValueError):
        encrypt(grp, 8, 1, 0)


def test_negative_plaintext_rejected(grp):
    with pytest.raises(ValueError):
        encrypt(grp, 8, -1, 4)


def test_decode_bound_enforced(grp):
    ct = encrypt(grp, 8, 5, 4)
    with pytest.raises(DecodeRangeError):
        decrypt(grp, 3, ct, 4)
    assert decrypt(grp, 3, ct, 5) == 5


# --- group parameter validation ---

def test_bad_generator_rejected():
    # 5 generates the full group of order 22, not the order-11 subgroup.
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=5)


def test_bad_subgroup_order_rejected():
    with pytest.raises(ValueError):
        GroupParams(p=23, q=7, g=2)


_MEMBERSHIP_GROUPS = [TEST_GROUP, GroupParams(p=47, q=23, g=2), PROD_GROUP_3072]


@pytest.mark.parametrize("grp", _MEMBERSHIP_GROUPS, ids=lambda grp: f"p{grp.p.bit_length()}")
def test_membership_matches_the_order_q_power(grp):
    for x in (0, 1, grp.g, grp.p - grp.g, grp.p - 1, grp.p):
        assert grp.is_element(x) == (1 <= x < grp.p and pow(x, grp.q, grp.p) == 1), x


@pytest.mark.parametrize("grp", _MEMBERSHIP_GROUPS, ids=lambda grp: f"p{grp.p.bit_length()}")
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_membership_matches_the_order_q_power_on_draws(grp, data):
    x = data.draw(st.integers(min_value=-1, max_value=grp.p))
    assert grp.is_element(x) == (1 <= x < grp.p and pow(x, grp.q, grp.p) == 1)


def test_production_group_is_well_formed():
    g = PROD_GROUP_3072
    assert g.p.bit_length() == 3072
    assert (g.p - 1) % g.q == 0
    assert pow(g.g, g.q, g.p) == 1


# --- algebraic properties over the test group ---

@given(st.integers(0, 5), st.integers(1, 10), st.integers(1, 10))
def test_encrypt_decrypt_round_trip(m, r, sk):
    grp = TEST_GROUP
    pk = pow(grp.g, sk, grp.p)
    assert decrypt(grp, sk, encrypt(grp, pk, m, r), 5) == m


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
def test_homomorphic_addition(m1, m2, r1, r2, sk):
    grp = TEST_GROUP
    pk = pow(grp.g, sk, grp.p)
    total = combine(encrypt(grp, pk, m1, r1), encrypt(grp, pk, m2, r2), grp)
    assert decrypt(grp, sk, total, 6) == m1 + m2


@given(st.integers(0, 5), st.integers(1, 10), st.integers(0, 10), st.integers(1, 10))
def test_reencrypt_preserves_plaintext(m, r, r_prime, sk):
    grp = TEST_GROUP
    pk = pow(grp.g, sk, grp.p)
    ct = reencrypt(grp, pk, encrypt(grp, pk, m, r), r_prime)
    assert decrypt(grp, sk, ct, 5) == m


def test_reencrypt_changes_ciphertext(grp):
    ct = encrypt(grp, 8, 1, 4)
    assert reencrypt(grp, 8, ct, 3) != ct


@pytest.mark.parametrize("grp", [TEST_GROUP, PROD_GROUP_3072], ids=["test", "prod3072"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reencrypts_to_agrees_with_reencrypt(grp, data):
    pk = grp.exp(grp.g, 987654321)
    scalars = st.integers(1, grp.q - 1)
    ct = encrypt(grp, pk, data.draw(st.integers(0, 5)), data.draw(scalars))
    r = data.draw(st.integers(0, grp.q - 1))
    target = reencrypt(grp, pk, ct, r)
    # Unchanged, or one component moved to another subgroup member.
    changed = data.draw(st.sampled_from([None, "c1", "c2"]))
    if changed:
        moved = getattr(target, changed) * grp.g % grp.p
        target = replace(target, **{changed: moved})
    assert reencrypts_to(grp, pk, ct, r, target) == (reencrypt(grp, pk, ct, r) == target)
    assert reencrypts_to(grp, pk, ct, r, target) == (changed is None)


def test_ciphertext_serialization_round_trip(grp):
    ct = encrypt(grp, 8, 1, 4)
    assert Ciphertext.from_bytes(ct.to_bytes()) == ct


# --- n-of-n threshold decryption ---

def test_threshold_key_combines_commitments(grp):
    ek, shares = threshold_keygen(grp, 3, StubRng([2, 3, 4]))
    assert [s.x for s in shares] == [2, 3, 4]
    # g^(2+3+4) = g^9
    assert ek.h == pow(grp.g, 9, grp.p)
    prod = 1
    for s in shares:
        prod = (prod * s.h) % grp.p
    assert ek.h == prod


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_share_set_matches_single_key_oracle(grp, n):
    ek, shares = threshold_keygen(grp, n, derive_rng("thresh", n))
    sk_equivalent = sum(s.x for s in shares) % grp.q
    commitments = {s.index: s.h for s in shares}
    for m in range(3):
        ct = encrypt(grp, ek.h, m, 4)
        partials = partial_decrypt(grp, shares, ct)
        assert threshold_decrypt(grp, [(ct, partials)], commitments, 3) == [m]
        assert decrypt(grp, sk_equivalent, ct, 3) == m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_proper_subset_fails(grp, n):
    ek, shares = threshold_keygen(grp, n, derive_rng("subset", n))
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 1, 5)
    partials = partial_decrypt(grp, shares, ct)
    for drop in range(n):
        subset = partials[:drop] + partials[drop + 1 :]
        with pytest.raises(MissingShareError):
            threshold_decrypt(grp, [(ct, subset)], commitments, 2)


def test_duplicate_share_rejected(grp):
    ek, shares = threshold_keygen(grp, 2, derive_rng("dup"))
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 1, 5)
    partials = partial_decrypt(grp, shares, ct)
    with pytest.raises(DuplicateShareError):
        threshold_decrypt(grp, [(ct, partials + [partials[0]])], commitments, 2)


def test_forged_partial_rejected(grp):
    ek, shares = threshold_keygen(grp, 2, derive_rng("forge"))
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 1, 5)
    partials = partial_decrypt(grp, shares, ct)
    bad = type(partials[0])(
        trustee_index=partials[0].trustee_index,
        d=(partials[0].d * grp.g) % grp.p,
        proof=partials[0].proof,
    )
    with pytest.raises(InvalidPartialProof):
        threshold_decrypt(grp, [(ct, [bad, partials[1]])], commitments, 2)


def test_partial_without_a_commitment_rejected(grp):
    # Its proof could never be checked, so it is refused, not dropped.
    ek, shares = threshold_keygen(grp, 3, derive_rng("stray"))
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 1, 5)
    partials = partial_decrypt(grp, shares + [replace(shares[0], index=4)], ct)
    with pytest.raises(InvalidPartialProof, match="trustee 4"):
        threshold_decrypt(grp, [(ct, partials)], commitments, 2)


def test_trustees_are_the_commitment_keys(grp):
    ek, shares = threshold_keygen(grp, 3, derive_rng("keys"))
    shares = [replace(s, index=i) for s, i in zip(shares, (1, 2, 5))]
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 1, 5)
    partials = partial_decrypt(grp, shares, ct)
    assert threshold_decrypt(grp, [(ct, partials)], commitments, 2) == [1]
    with pytest.raises(MissingShareError, match="trustee 5"):
        threshold_decrypt(grp, [(ct, partials[:2])], commitments, 2)


def test_zero_c1_is_a_decode_error(grp):
    # c1 = 0 makes every partial 0, each with a proof that verifies, and
    # leaves no product of partials to divide c2 by.
    ek, shares = threshold_keygen(grp, 3, derive_rng("zero c1"))
    commitments = {s.index: s.h for s in shares}
    ct = Ciphertext(0, 5)
    partials = partial_decrypt(grp, shares, ct)
    with pytest.raises(DecodeRangeError):
        threshold_decrypt(grp, [(ct, partials)], commitments, 5)
    with pytest.raises(DecodeRangeError):
        decrypt(grp, 3, ct, 5)


def test_threshold_decrypt_respects_decode_bound(grp):
    ek, shares = threshold_keygen(grp, 3, derive_rng("bound"))
    commitments = {s.index: s.h for s in shares}
    ct = encrypt(grp, ek.h, 4, 5)
    partials = partial_decrypt(grp, shares, ct)
    with pytest.raises(DecodeRangeError):
        threshold_decrypt(grp, [(ct, partials)], commitments, 3)
