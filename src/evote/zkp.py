"""Non-interactive zero-knowledge proofs.

Three obligations are covered: deterministic challenge derivation from a
transcript, equal-discrete-log proofs used for correct decryption and for
the ballot sum argument, and disjunctive 0-or-1 proofs for each encrypted
ballot slot.  All challenges are sha256 over the canonical encoding of the
statement, reduced mod q; verification never touches a secret key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import Record, digest, encode
from .groups import Ciphertext, GroupParams

DOMAIN_CP = "evote/zkp/chaum-pedersen"
DOMAIN_SLOT = "evote/zkp/slot01"
DOMAIN_SUM = "evote/zkp/ballot-sum"
_DOMAIN_NONCE = "evote/zkp/nonce"


def _challenge(params: GroupParams, domain: str, *fields) -> int:
    """Fiat-Shamir challenge in [0, q-1]: sha256 over the domain tag and the
    canonically encoded group and statement fields."""
    items = [params.to_bytes()] + [f if isinstance(f, bytes) else encode(f) for f in fields]
    return int.from_bytes(digest(domain, items), "big") % params.q


def _nonce(params: GroupParams, *secret_and_statement) -> int:
    # Derandomized prover nonce: hashing the secret with the statement keeps
    # proofs deterministic without reusing a nonce across statements.
    return int.from_bytes(digest(_DOMAIN_NONCE, *secret_and_statement), "big") % params.q


@dataclass(frozen=True)
class DecryptionProof(Record):
    """Equal-dlog proof: the same exponent links both commitment bases."""

    commit_g: int
    commit_c1: int
    challenge: int
    response: int


def prove_correct_decryption(
    params: GroupParams, x: int, ct: Ciphertext, d: int
) -> DecryptionProof:
    """Prove d = c1^x for the committed share g^x, without revealing x."""
    q, g = params.q, params.g
    pk_component = params.exp(g, x, fixed=True)
    w = _nonce(params, x, ct.to_bytes(), d)
    commit_g = params.exp(g, w, fixed=True)
    commit_c1 = params.exp(ct.c1, w)
    e = _challenge(
        params, DOMAIN_CP, pk_component, ct.to_bytes(), d, commit_g, commit_c1
    )
    z = (w + e * x) % q
    return DecryptionProof(commit_g, commit_c1, e, z)


def verify_correct_decryption(
    params: GroupParams,
    pk_component: int,
    ct: Ciphertext,
    d: int,
    proof: DecryptionProof,
) -> bool:
    """True iff the challenge recomputes and both verification equations hold."""
    p = params.p
    e = _challenge(
        params,
        DOMAIN_CP,
        pk_component,
        ct.to_bytes(),
        d,
        proof.commit_g,
        proof.commit_c1,
    )
    if e != proof.challenge:
        return False
    z = proof.response
    exp = params.exp
    if exp(params.g, z, fixed=True) != (proof.commit_g * exp(pk_component, e)) % p:
        return False
    if exp(ct.c1, z) != (proof.commit_c1 * exp(d, e)) % p:
        return False
    return True


@dataclass(frozen=True)
class SlotProof(Record):
    """Disjunctive proof that one ciphertext encrypts 0 or 1.

    One branch is real, the other simulated; e0 + e1 must equal the
    recomputed statement challenge, which hides which is which.
    """

    commit_g0: int
    commit_h0: int
    commit_g1: int
    commit_h1: int
    e0: int
    e1: int
    z0: int
    z1: int


@dataclass(frozen=True)
class WellformedProof(Record):
    """Per-slot 0/1 proofs plus a sum argument that the slots encrypt
    exactly one 1 in total."""

    slots: tuple[SlotProof, ...]
    sum_proof: DecryptionProof


def _slot_challenge(
    params: GroupParams,
    pk: int,
    ct: Ciphertext,
    index: int,
    slots_digest: bytes,
    commits: tuple[int, int, int, int],
) -> int:
    return _challenge(
        params, DOMAIN_SLOT, pk, ct.to_bytes(), index, slots_digest, *commits
    )


def _prove_slot(
    params: GroupParams,
    pk: int,
    ct: Ciphertext,
    index: int,
    slots_digest: bytes,
    r: int,
    value: int,
) -> SlotProof:
    """Real branch for `value`, simulated branch for its complement."""
    p, q, g, exp = params.p, params.q, params.g, params.exp
    a, b = ct.c1, ct.c2
    fake = 1 - value
    statement = encode(pk, ct.to_bytes(), index, slots_digest)

    e_fake = _nonce(params, "fake-e", r, value, statement)
    z_fake = _nonce(params, "fake-z", r, value, statement)
    # Simulated branch commitments satisfy the verification equations by
    # construction for the pre-chosen (e_fake, z_fake).
    b_over_gm = (b * exp(exp(g, fake, fixed=True), -1)) % p
    commit_g_fake = (exp(g, z_fake, fixed=True) * exp(exp(a, e_fake), -1)) % p
    commit_h_fake = (exp(pk, z_fake, fixed=True) * exp(exp(b_over_gm, e_fake), -1)) % p

    w = _nonce(params, "real-w", r, value, statement)
    commit_g_real = exp(g, w, fixed=True)
    commit_h_real = exp(pk, w, fixed=True)

    if value == 0:
        commits = (commit_g_real, commit_h_real, commit_g_fake, commit_h_fake)
    else:
        commits = (commit_g_fake, commit_h_fake, commit_g_real, commit_h_real)
    e = _slot_challenge(params, pk, ct, index, slots_digest, commits)
    e_real = (e - e_fake) % q
    z_real = (w + e_real * r) % q

    if value == 0:
        return SlotProof(*commits, e_real, e_fake, z_real, z_fake)
    return SlotProof(*commits, e_fake, e_real, z_fake, z_real)


def _verify_slot(
    params: GroupParams,
    pk: int,
    ct: Ciphertext,
    index: int,
    slots_digest: bytes,
    sp: SlotProof,
) -> bool:
    p, q, g, exp = params.p, params.q, params.g, params.exp
    a, b = ct.c1, ct.c2
    commits = (sp.commit_g0, sp.commit_h0, sp.commit_g1, sp.commit_h1)
    e = _slot_challenge(params, pk, ct, index, slots_digest, commits)
    if (sp.e0 + sp.e1) % q != e:
        return False
    for m, e_m, z_m, cg, ch in (
        (0, sp.e0, sp.z0, sp.commit_g0, sp.commit_h0),
        (1, sp.e1, sp.z1, sp.commit_g1, sp.commit_h1),
    ):
        b_over_gm = (b * exp(exp(g, m, fixed=True), -1)) % p
        if exp(g, z_m, fixed=True) != (cg * exp(a, e_m)) % p:
            return False
        if exp(pk, z_m, fixed=True) != (ch * exp(b_over_gm, e_m)) % p:
            return False
    return True


def _sum_statement(params: GroupParams, pk: int, slots: list[Ciphertext]):
    p = params.p
    prod_a = 1
    prod_b = 1
    for ct in slots:
        prod_a = (prod_a * ct.c1) % p
        prod_b = (prod_b * ct.c2) % p
    # Claimed plaintext sum is exactly 1, so the second public value is
    # prod_b / g under the base pk.
    y = (prod_b * params.exp(params.g, -1)) % p
    return prod_a, prod_b, y


def prove_wellformed(
    params: GroupParams,
    pk: int,
    slots: list[Ciphertext],
    randomness: list[int],
    choice_index: int,
) -> WellformedProof:
    """Prove each slot encrypts 0 or 1 and the slot product encrypts 1.

    Assumes slots encrypt the unit vector for choice_index with the given
    per-slot randomness; a dishonest input yields an unverifiable proof.
    """
    q = params.q
    sd = digest(slots)
    slot_proofs = [
        _prove_slot(
            params, pk, ct, i, sd, randomness[i], 1 if i == choice_index else 0
        )
        for i, ct in enumerate(slots)
    ]

    prod_a, prod_b, y = _sum_statement(params, pk, slots)
    total_r = sum(randomness) % q
    w = _nonce(params, "sum-w", total_r, sd)
    commit_g = params.exp(params.g, w, fixed=True)
    commit_h = params.exp(pk, w, fixed=True)
    e = _challenge(
        params, DOMAIN_SUM, pk, prod_a, prod_b, commit_g, commit_h, sd
    )
    z = (w + e * total_r) % q
    sum_proof = DecryptionProof(commit_g, commit_h, e, z)
    return WellformedProof(slots=tuple(slot_proofs), sum_proof=sum_proof)


def verify_wellformed(
    params: GroupParams, pk: int, slots: list[Ciphertext], proof: WellformedProof
) -> bool:
    p = params.p
    if len(proof.slots) != len(slots) or not slots:
        return False
    sd = digest(slots)
    for i, (ct, sp) in enumerate(zip(slots, proof.slots)):
        if not _verify_slot(params, pk, ct, i, sd, sp):
            return False

    prod_a, prod_b, y = _sum_statement(params, pk, slots)
    sp = proof.sum_proof
    e = _challenge(
        params, DOMAIN_SUM, pk, prod_a, prod_b, sp.commit_g, sp.commit_c1, sd
    )
    if e != sp.challenge:
        return False
    z = sp.response
    exp = params.exp
    if exp(params.g, z, fixed=True) != (sp.commit_g * exp(prod_a, e)) % p:
        return False
    if exp(pk, z, fixed=True) != (sp.commit_c1 * exp(y, e)) % p:
        return False
    return True
