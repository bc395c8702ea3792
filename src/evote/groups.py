"""Cyclic-group arithmetic and exponential ElGamal.

Messages live in the exponent (g^m), so multiplying ciphertexts adds
plaintexts; decoding scans 0..decode_bound.  Includes re-encryption and
an additive n-of-n threshold split of the election secret.

Every modular exponentiation in the package goes through GroupParams.exp.
On large groups, full-length powers of a recurring base use a Lim-Lee comb
table: g and the election key share a small cache of tables, and the c1 of
the ciphertext being decrypted has a one-entry cache of its own.  Every
other power is one builtin `pow` call.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .canonical import Record
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


# Lim-Lee comb ("More Flexible Exponentiation with Precomputation", CRYPTO
# 1994): an exponent of up to ROWS * cols bits is read as a ROWS x cols bit
# matrix, and the columns are split into SUBS blocks of `span` columns.  Each
# block has a table of the 2^ROWS products of its row bases, so one power
# costs `span` squarings and up to SUBS * span multiplications.  At 3072
# bits that is 192 + 384 mulmods against about 3,600 for builtin `pow`, from
# 512 table entries (about 0.2 MB).
_COMB_ROWS = 8
_COMB_SUBS = 2
# Below this modulus size builtin `pow` is as fast as the interpreted comb.
_COMB_MIN_P = 1 << 63
# Tables kept at once: g and the election key, with room to spare.
_COMB_TABLES = 4

# `GroupParams.exp`'s `fixed` for the c1 of the ciphertext being decrypted.
# Its partial decryptions and their proof checks follow one another, so one
# table serves them all, and it never recurs once the next ciphertext starts.
DECRYPTING = "decrypting"


def _comb_cols(p: int) -> int:
    """Columns of the comb's bit matrix modulo p: ROWS rows of them cover
    every bit of p, and they split evenly into SUBS blocks."""
    return -(-p.bit_length() // (_COMB_ROWS * _COMB_SUBS)) * _COMB_SUBS


class _Comb:
    """Fixed-base comb table for one base modulo one p."""

    def __init__(self, p: int, base: int):
        self.p = p
        self.cols = _comb_cols(p)
        self.span = span = self.cols // _COMB_SUBS
        # powers[k] = base^(2^(k * span)); row r of block j uses k = r*SUBS + j.
        powers = [base % p]
        for _ in range(_COMB_ROWS * _COMB_SUBS - 1):
            x = powers[-1]
            for _ in range(span):
                x = x * x % p
            powers.append(x)
        self.tables = []
        for j in range(_COMB_SUBS):
            table = [1]
            for r in range(_COMB_ROWS):
                row_base = powers[r * _COMB_SUBS + j]
                table += [t * row_base % p for t in table]
            self.tables.append(table)

    def power(self, exponent: int) -> int:
        p, span, cols = self.p, self.span, self.cols
        mask = (1 << cols) - 1
        rows = [(exponent >> (r * cols)) & mask for r in reversed(range(_COMB_ROWS))]
        acc = 1
        for k in reversed(range(span)):
            acc = acc * acc % p
            for j, table in enumerate(self.tables):
                column = j * span + k
                index = 0
                for row in rows:
                    index = (index << 1) | ((row >> column) & 1)
                if index:
                    acc = acc * table[index] % p
        return acc


@functools.lru_cache(maxsize=_COMB_TABLES)
def _comb(p: int, base: int) -> _Comb:
    return _Comb(p, base)


# The table of the c1 being decrypted, by (p, c1): one entry at most.
_decryption_combs: dict[tuple[int, int], _Comb] = {}


def _decryption_comb(p: int, base: int) -> _Comb:
    """The c1 table, kept apart so that decrypting a batch never evicts the
    tables above.  The last c1's table is dropped before the next one is
    built, so only one is ever alive."""
    comb = _decryption_combs.get((p, base))
    if comb is None:
        _decryption_combs.clear()
        comb = _decryption_combs[p, base] = _Comb(p, base)
    return comb


@dataclass(frozen=True)
class GroupParams(Record):
    """Prime-order-q subgroup of Z*_p.

    Invariants: q divides p-1, g generates the subgroup (g != 1, g^q = 1).
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if (self.p - 1) % self.q != 0:
            raise ValueError("q must divide p-1")
        if self.g in (0, 1) or self.exp(self.g, self.q) != 1:
            raise ValueError("g must generate the order-q subgroup")

    def exp(self, base: int, exponent: int, fixed: bool | str = False) -> int:
        """base^exponent mod p; a negative exponent inverts first.

        `fixed` marks a base that recurs: True for g or an election key,
        DECRYPTING for the c1 of the ciphertext being decrypted.  On a group
        of at least 64 bits, a full-length power of a marked base uses that
        base's comb table, built on first use; a shorter power never builds
        one.  The tables of g and the election keys share a small cache, and
        the c1 table has a one-entry cache of its own.  The result is the
        same either way.
        """
        if fixed and self.p > _COMB_MIN_P and exponent in self._comb_exponents:
            tables = _decryption_comb if fixed is DECRYPTING else _comb
            return tables(self.p, base).power(exponent)
        return pow(base, exponent, self.p)

    @functools.cached_property
    def _comb_exponents(self) -> range:
        """Exponents that take a comb power on a large group: from `cols`
        bits up, since shorter ones are cheaper with builtin `pow`, to
        ROWS * cols bits, the most the bit matrix holds."""
        cols = _comb_cols(self.p)
        return range(1 << (cols - 1), 1 << (cols * _COMB_ROWS))

    @functools.cached_property
    def encoded(self) -> bytes:
        """`to_bytes()`, kept: every Fiat-Shamir challenge hashes it."""
        return self.to_bytes()

    def is_scalar(self, x: int) -> bool:
        return 0 <= x < self.q

    def is_element(self, x: int) -> bool:
        return 1 <= x < self.p and self.exp(x, self.q) == 1


# Small group for tests and worked examples: order-11 subgroup of Z*_23.
TEST_GROUP = GroupParams(p=23, q=11, g=2)

# Production profile matching a 3072-bit key-length requirement.
PROD_GROUP_3072 = GroupParams(
    p=_RFC3526_3072_P, q=(_RFC3526_3072_P - 1) // 2, g=2
)

GROUP_PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@dataclass(frozen=True)
class Ciphertext(Record):
    c1: int
    c2: int


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


def rand_scalar(params: GroupParams, rng: random.Random) -> int:
    """Uniform in [1, q): a zero draw is retried."""
    x = rng.randrange(params.q)
    while x == 0:
        x = rng.randrange(params.q)
    return x


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """Fresh key pair with sk uniform in [1, q-1]; a zero draw is retried."""
    sk = rand_scalar(params, rng)
    return KeyPair(sk=sk, pk=params.exp(params.g, sk, fixed=True))


def encrypt(params: GroupParams, pk: int, m: int, r: int) -> Ciphertext:
    """(g^r, g^m * pk^r).  r = 0 is rejected: it would make the ciphertext
    distinguishable after re-encryption and leaks g^m directly."""
    if r == 0:
        raise ValueError("encryption randomness must be nonzero")
    if not params.is_scalar(r):
        raise ValueError("randomness out of scalar range")
    if m < 0:
        raise ValueError("plaintext exponent must be non-negative")
    c1 = params.exp(params.g, r, fixed=True)
    c2 = (params.exp(params.g, m, fixed=True) * params.exp(pk, r, fixed=True)) % params.p
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
    target = (ct.c2 * params.exp(params.exp(ct.c1, sk), -1)) % params.p
    return decode_exponent(params, target, decode_bound)


def reencrypt(params: GroupParams, pk: int, ct: Ciphertext, r_prime: int) -> Ciphertext:
    """Re-randomize without the secret key: (c1*g^r', c2*pk^r')."""
    c1 = (ct.c1 * params.exp(params.g, r_prime, fixed=True)) % params.p
    c2 = (ct.c2 * params.exp(pk, r_prime, fixed=True)) % params.p
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
        x = rand_scalar(params, rng)
        h_i = params.exp(params.g, x, fixed=True)
        shares.append(TrusteeKeyShare(index=i, x=x, h=h_i))
        h = (h * h_i) % params.p
    return ElectionKey(h=h, n=n), shares


def partial_decrypt(
    params: GroupParams, share: TrusteeKeyShare, ct: Ciphertext
) -> PartialDecryption:
    """d_i = c1^x_i plus a proof that d_i used the committed share."""
    from .zkp import prove_correct_decryption

    d = params.exp(ct.c1, share.x, DECRYPTING)
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
    target = (ct.c2 * params.exp(prod_d, -1)) % params.p
    return decode_exponent(params, target, decode_bound)
