"""Non-interactive zero-knowledge proofs.

Three obligations are covered: deterministic challenge derivation from a
transcript, equal-discrete-log proofs used for correct decryption and for
the ballot sum argument, and disjunctive 0-or-1 proofs for each encrypted
ballot slot.  All challenges are sha256 over the canonical encoding of the
statement, reduced mod q; verification never touches a secret key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import Reader, digest, encode
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
class DecryptionProof:
    """Equal-dlog proof: the same exponent links both commitment bases."""

    commit_g: int
    commit_c1: int
    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return encode(self.commit_g, self.commit_c1, self.challenge, self.response)

    @classmethod
    def read_from(cls, r: Reader) -> "DecryptionProof":
        return cls(r.read_int(), r.read_int(), r.read_int(), r.read_int())

    @classmethod
    def from_bytes(cls, data: bytes) -> "DecryptionProof":
        r = Reader(data)
        proof = cls.read_from(r)
        r.expect_end()
        return proof


def prove_correct_decryption(
    params: GroupParams, x: int, ct: Ciphertext, d: int
) -> DecryptionProof:
    """Prove d = c1^x for the committed share g^x, without revealing x."""
    p, q, g = params.p, params.q, params.g
    pk_component = pow(g, x, p)
    w = _nonce(params, x, ct.to_bytes(), d)
    commit_g = pow(g, w, p)
    commit_c1 = pow(ct.c1, w, p)
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
    if pow(params.g, z, p) != (proof.commit_g * pow(pk_component, e, p)) % p:
        return False
    if pow(ct.c1, z, p) != (proof.commit_c1 * pow(d, e, p)) % p:
        return False
    return True


@dataclass(frozen=True)
class SlotProof:
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

    def to_bytes(self) -> bytes:
        return encode(
            self.commit_g0,
            self.commit_h0,
            self.commit_g1,
            self.commit_h1,
            self.e0,
            self.e1,
            self.z0,
            self.z1,
        )

    @classmethod
    def read_from(cls, r: Reader) -> "SlotProof":
        return cls(*(r.read_int() for _ in range(8)))


@dataclass(frozen=True)
class WellformedProof:
    """Per-slot 0/1 proofs plus a sum argument that the slots encrypt
    exactly one 1 in total."""

    slots: tuple[SlotProof, ...]
    sum_proof: DecryptionProof

    def to_bytes(self) -> bytes:
        return encode([sp.to_bytes() for sp in self.slots], self.sum_proof.to_bytes())

    @classmethod
    def read_from(cls, r: Reader) -> "WellformedProof":
        n = r.read_int()
        slots = []
        for _ in range(n):
            sr = Reader(r.read_bytes())
            slots.append(SlotProof.read_from(sr))
            sr.expect_end()
        sr = Reader(r.read_bytes())
        sum_proof = DecryptionProof.read_from(sr)
        sr.expect_end()
        return cls(slots=tuple(slots), sum_proof=sum_proof)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WellformedProof":
        r = Reader(data)
        proof = cls.read_from(r)
        r.expect_end()
        return proof


def _slots_digest(slots: list[Ciphertext]) -> bytes:
    return digest([ct.to_bytes() for ct in slots])


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
    p, q, g = params.p, params.q, params.g
    a, b = ct.c1, ct.c2
    fake = 1 - value
    statement = encode(pk, ct.to_bytes(), index, slots_digest)

    e_fake = _nonce(params, "fake-e", r, value, statement)
    z_fake = _nonce(params, "fake-z", r, value, statement)
    # Simulated branch commitments satisfy the verification equations by
    # construction for the pre-chosen (e_fake, z_fake).
    b_over_gm = (b * pow(pow(g, fake, p), -1, p)) % p
    commit_g_fake = (pow(g, z_fake, p) * pow(pow(a, e_fake, p), -1, p)) % p
    commit_h_fake = (pow(pk, z_fake, p) * pow(pow(b_over_gm, e_fake, p), -1, p)) % p

    w = _nonce(params, "real-w", r, value, statement)
    commit_g_real = pow(g, w, p)
    commit_h_real = pow(pk, w, p)

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
    p, q, g = params.p, params.q, params.g
    a, b = ct.c1, ct.c2
    commits = (sp.commit_g0, sp.commit_h0, sp.commit_g1, sp.commit_h1)
    e = _slot_challenge(params, pk, ct, index, slots_digest, commits)
    if (sp.e0 + sp.e1) % q != e:
        return False
    for m, e_m, z_m, cg, ch in (
        (0, sp.e0, sp.z0, sp.commit_g0, sp.commit_h0),
        (1, sp.e1, sp.z1, sp.commit_g1, sp.commit_h1),
    ):
        b_over_gm = (b * pow(pow(g, m, p), -1, p)) % p
        if pow(g, z_m, p) != (cg * pow(a, e_m, p)) % p:
            return False
        if pow(pk, z_m, p) != (ch * pow(b_over_gm, e_m, p)) % p:
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
    y = (prod_b * pow(params.g, -1, p)) % p
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
    sd = _slots_digest(slots)
    slot_proofs = [
        _prove_slot(
            params, pk, ct, i, sd, randomness[i], 1 if i == choice_index else 0
        )
        for i, ct in enumerate(slots)
    ]

    prod_a, prod_b, y = _sum_statement(params, pk, slots)
    total_r = sum(randomness) % q
    w = _nonce(params, "sum-w", total_r, sd)
    commit_g = pow(params.g, w, params.p)
    commit_h = pow(pk, w, params.p)
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
    sd = _slots_digest(slots)
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
    if pow(params.g, z, p) != (sp.commit_g * pow(prod_a, e, p)) % p:
        return False
    if pow(pk, z, p) != (sp.commit_c1 * pow(y, e, p)) % p:
        return False
    return True
