"""Cyclic-group arithmetic and exponential ElGamal.

Messages live in the exponent (g^m), so multiplying ciphertexts adds
plaintexts; decoding scans 0..decode_bound.  Includes re-encryption and
an additive n-of-n threshold split of the election secret.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .canonical import Reader, encode
from .errors import (
    DecodeRangeError,
    DuplicateShareError,
    InvalidPartialProof,
    MissingShareError,
)

# RFC 3526 group 15: 3072-bit MODP safe prime, generator 2.  p = 2q+1 with q
# prime, and p = 7 (mod 8) makes 2 a quadratic residue, so 2 generates the
# order-q subgroup used here.
_RFC3526_3072_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class GroupParams:
    """Prime-order-q subgroup of Z*_p.

    Invariants: q divides p-1, g generates the subgroup (g != 1, g^q = 1).
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if (self.p - 1) % self.q != 0:
            raise ValueError("q must divide p-1")
        if self.g in (0, 1) or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g must generate the order-q subgroup")

    def is_scalar(self, x: int) -> bool:
        return 0 <= x < self.q

    def is_element(self, x: int) -> bool:
        return 1 <= x < self.p and pow(x, self.q, self.p) == 1

    def to_bytes(self) -> bytes:
        return encode(self.p, self.q, self.g)


# Small group for tests and worked examples: order-11 subgroup of Z*_23.
TEST_GROUP = GroupParams(p=23, q=11, g=2)

# Production profile matching a 3072-bit key-length requirement.
PROD_GROUP_3072 = GroupParams(
    p=_RFC3526_3072_P, q=(_RFC3526_3072_P - 1) // 2, g=2
)

GROUP_PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@dataclass(frozen=True)
class Ciphertext:
    c1: int
    c2: int

    def to_bytes(self) -> bytes:
        return encode(self.c1, self.c2)

    @classmethod
    def read_from(cls, r: Reader) -> "Ciphertext":
        return cls(r.read_int(), r.read_int())


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


@dataclass(frozen=True)
class TrusteeKeyShare:
    """One trustee's additive share x_i with public commitment h_i = g^x_i."""

    index: int
    x: int
    h: int


@dataclass(frozen=True)
class ElectionKey:
    """Joint public key h = prod(h_i); requires all n trustees to decrypt."""

    h: int
    n: int


@dataclass(frozen=True)
class PartialDecryption:
    trustee_index: int
    d: int
    proof: "object"  # zkp.DecryptionProof; typed loosely to avoid a cycle

    def to_bytes(self) -> bytes:
        return encode(self.trustee_index, self.d, self.proof.to_bytes())


def rand_scalar(params: GroupParams, rng: random.Random, nonzero: bool = False) -> int:
    x = rng.randrange(params.q)
    while nonzero and x == 0:
        x = rng.randrange(params.q)
    return x


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """Fresh key pair with sk uniform in [1, q-1]; a zero draw is retried."""
    sk = rand_scalar(params, rng, nonzero=True)
    return KeyPair(sk=sk, pk=pow(params.g, sk, params.p))


def encrypt(params: GroupParams, pk: int, m: int, r: int) -> Ciphertext:
    """(g^r, g^m * pk^r).  r = 0 is rejected: it would make the ciphertext
    distinguishable after re-encryption and leaks g^m directly."""
    if r == 0:
        raise ValueError("encryption randomness must be nonzero")
    if not params.is_scalar(r):
        raise ValueError("randomness out of scalar range")
    if m < 0:
        raise ValueError("plaintext exponent must be non-negative")
    c1 = pow(params.g, r, params.p)
    c2 = (pow(params.g, m, params.p) * pow(pk, r, params.p)) % params.p
    return Ciphertext(c1, c2)


def decode_exponent(params: GroupParams, target: int, decode_bound: int) -> int:
    """Find m <= decode_bound with g^m = target by linear scan."""
    acc = 1
    for m in range(decode_bound + 1):
        if acc == target:
            return m
        acc = (acc * params.g) % params.p
    raise DecodeRangeError(f"no exponent <= {decode_bound} matches")


def decrypt(params: GroupParams, sk: int, ct: Ciphertext, decode_bound: int) -> int:
    target = (ct.c2 * pow(pow(ct.c1, sk, params.p), -1, params.p)) % params.p
    return decode_exponent(params, target, decode_bound)


def reencrypt(params: GroupParams, pk: int, ct: Ciphertext, r_prime: int) -> Ciphertext:
    """Re-randomize without the secret key: (c1*g^r', c2*pk^r')."""
    c1 = (ct.c1 * pow(params.g, r_prime, params.p)) % params.p
    c2 = (ct.c2 * pow(pk, r_prime, params.p)) % params.p
    return Ciphertext(c1, c2)


def combine(a: Ciphertext, b: Ciphertext, params: GroupParams) -> Ciphertext:
    """Componentwise product; decrypts to the sum of the plaintexts."""
    return Ciphertext((a.c1 * b.c1) % params.p, (a.c2 * b.c2) % params.p)


def threshold_keygen(
    params: GroupParams, n: int, rng: random.Random
) -> tuple[ElectionKey, list[TrusteeKeyShare]]:
    """In-process key ceremony: n additive shares, joint key h = prod g^x_i.

    Equivalent single secret is sum(x_i) mod q; losing any share loses it.
    """
    if n < 1:
        raise ValueError("trustee count must be at least 1")
    shares = []
    h = 1
    for i in range(1, n + 1):
        x = rand_scalar(params, rng, nonzero=True)
        h_i = pow(params.g, x, params.p)
        shares.append(TrusteeKeyShare(index=i, x=x, h=h_i))
        h = (h * h_i) % params.p
    return ElectionKey(h=h, n=n), shares


def partial_decrypt(
    params: GroupParams, share: TrusteeKeyShare, ct: Ciphertext
) -> PartialDecryption:
    """d_i = c1^x_i plus a proof that d_i used the committed share."""
    from .zkp import prove_correct_decryption

    d = pow(ct.c1, share.x, params.p)
    proof = prove_correct_decryption(params, share.x, ct, d)
    return PartialDecryption(trustee_index=share.index, d=d, proof=proof)


def threshold_decrypt(
    params: GroupParams,
    ct: Ciphertext,
    partials: list[PartialDecryption],
    commitments: dict[int, int],
    decode_bound: int,
) -> int:
    """Combine all n partials: m with g^m = c2 / prod(d_i).

    commitments maps trustee index -> h_i; every index in 1..n must supply
    exactly one partial whose proof verifies, or the plaintext is lost.
    """
    from .zkp import verify_correct_decryption

    n = len(commitments)
    seen: dict[int, PartialDecryption] = {}
    for pd in partials:
        if pd.trustee_index in seen:
            raise DuplicateShareError(f"trustee {pd.trustee_index} supplied twice")
        seen[pd.trustee_index] = pd
    for index in range(1, n + 1):
        if index not in seen:
            raise MissingShareError(f"trustee {index} missing; secret unrecoverable")
    prod_d = 1
    for index in range(1, n + 1):
        pd = seen[index]
        if not verify_correct_decryption(params, commitments[index], ct, pd.d, pd.proof):
            raise InvalidPartialProof(f"trustee {index} proof rejected")
        prod_d = (prod_d * pd.d) % params.p
    target = (ct.c2 * pow(prod_d, -1, params.p)) % params.p
    return decode_exponent(params, target, decode_bound)
