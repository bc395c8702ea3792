"""Non-interactive zero-knowledge proofs.

Every proof here, and every registry signature, is one sigma protocol over
some bases: `commit` makes the prover's commitments t = b^w, and `holds`
checks a list of statements, each the equation b^z = t * y^e with e and z
in [0, q).  On it are built equal-discrete-log proofs for correct
decryption and for the ballot sum argument, and disjunctive 0-or-1 proofs
for each encrypted ballot slot.  All challenges are sha256 over the
canonical encoding of the statement, reduced mod q; verification never
touches a secret key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import Record, digest, enc_int, encode
from .groups import Ciphertext, GroupParams, batch_verdicts, fails_unless, fan_out

DOMAIN_CP = "evote/zkp/chaum-pedersen"
DOMAIN_SLOT = "evote/zkp/slot01"
DOMAIN_SUM = "evote/zkp/ballot-sum"
_DOMAIN_NONCE = "evote/zkp/nonce"


def _challenge(params: GroupParams, domain: str, *fields) -> int:
    """Fiat-Shamir challenge in [0, q-1]: sha256 over the domain tag and the
    canonically encoded group and statement fields.  Each field (bytes, or
    an int framed by `enc_int`) is one blob; a slot challenge on the test
    group takes about 6 us (CPython 3.11, 2-vCPU Xeon VM)."""
    items = [params] + [f if type(f) is bytes else enc_int(f) for f in fields]
    return int.from_bytes(digest(domain, items), "big") % params.q


def nonce(params: GroupParams, *secret_and_statement, domain: str = _DOMAIN_NONCE) -> int:
    """The prover nonce of every proof and signature, in [0, q).

    Derandomized: hashing the secret with the statement keeps proofs
    deterministic without reusing a nonce across statements."""
    return int.from_bytes(digest(domain, *secret_and_statement), "big") % params.q


def commit(params: GroupParams, bases, w: int) -> list[int]:
    """b^w for each base; a base is a (b, fixed) pair, as `GroupParams.exp`
    takes it."""
    return [params.exp(b, w, fixed) for b, fixed in bases]


def holds(params: GroupParams, statements) -> list[bool]:
    """For each item of a list of statements (bases, values, commits, e, z)
    or None: True iff e and z lie in [0, q) and b^z = t * y^e for each base
    b with public value y and commitment t; a None's False.  They are the
    claims of one `groups.batch_verdicts` call, and `_exact` checks each one
    the batch does not admit, or each on a group that does not batch.

    Without the range check z + q (or e + q) would pass too, since every
    base has order q, and two encodings would prove the same statement.
    """
    return batch_verdicts(params, statements, _equations, _exact)


def fails_unless_hold(params: GroupParams, statements, failure) -> list:
    """`failure` unless every statement holds, held back or decided by
    `groups.fails_unless`."""
    return fails_unless(params, failure, _equations, _exact, statements)


def _equations(params: GroupParams, statement):
    """A statement's equations for `batch_verdicts`; None for None or an e
    or z out of range."""
    if statement is not None:
        bases, values, commits, e, z = statement
        if 0 <= e < params.q and 0 <= z < params.q:
            return tuple(
                (((b, z, fixed),), ((t, 1, False), (y, e, False)))
                for (b, fixed), y, t in zip(bases, values, commits)
            )


def _exact(params: GroupParams, statement) -> bool:
    return statement is not None and _holds(params, *statement)


def _holds(params: GroupParams, bases, values, commits, e, z) -> bool:
    """One statement of `holds`, checked alone, power by power."""
    q = params.q
    if not (0 <= e < q and 0 <= z < q):
        return False
    p, exp = params.p, params.exp
    # A plain loop: all() over a generator costs measurably more per call.
    for (b, fixed), y, t in zip(bases, values, commits):
        if exp(b, z, fixed) != t * exp(y, e) % p:
            return False
    return True


@dataclass(frozen=True)
class DecryptionProof(Record):
    """Equal-dlog proof: the same exponent links both commitment bases."""

    commit_g: int
    commit_c1: int
    challenge: int
    response: int


def prove_correct_decryption(
    params: GroupParams, x: int, ct: Ciphertext, d: int, chain=False
) -> DecryptionProof:
    """Prove d = c1^x for the committed share g^x, without revealing x.
    `chain` is c1's `exp` mark, as `groups.partial_decrypt` makes it by
    `GroupParams.chain`."""
    pk_component = params.exp(params.g, x, fixed=True)
    w = nonce(params, x, ct.to_bytes(), d)
    commits = commit(params, ((params.g, True), (ct.c1, chain)), w)
    e = _challenge(params, DOMAIN_CP, pk_component, ct.to_bytes(), d, *commits)
    z = (w + e * x) % params.q
    return DecryptionProof(*commits, e, z)


def decryption_statement(params: GroupParams, pk_component: int, ct: Ciphertext, d: int, proof):
    """What `holds` checks of a proof that d = c1^x for the share committed
    as `pk_component`, or None if its challenge does not recompute."""
    commits = (proof.commit_g, proof.commit_c1)
    e = _challenge(params, DOMAIN_CP, pk_component, ct.to_bytes(), d, *commits)
    bases = ((params.g, True), (ct.c1, False))
    return (bases, (pk_component, d), commits, e, proof.response) if e == proof.challenge else None


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


def _slot_values(params: GroupParams, ct: Ciphertext, m: int) -> tuple[int, int]:
    """Public values of the branch "ct encrypts m": c1 = g^r, c2 / g^m = pk^r."""
    p, g, exp = params.p, params.g, params.exp
    return ct.c1, (ct.c2 * exp(exp(g, m, fixed=True), -1)) % p


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
    p, q, exp = params.p, params.q, params.exp
    bases = ((params.g, True), (pk, True))
    fake = 1 - value
    statement = encode(pk, ct.to_bytes(), index, slots_digest)

    e_fake = nonce(params, "fake-e", r, value, statement)
    z_fake = nonce(params, "fake-z", r, value, statement)
    w = nonce(params, "real-w", r, value, statement)
    # Simulated branch commitments t = b^z / y^e satisfy the verification
    # equations by construction for the pre-chosen (e_fake, z_fake).
    commits = {
        fake: [
            (t * exp(exp(y, e_fake), -1)) % p
            for t, y in zip(commit(params, bases, z_fake), _slot_values(params, ct, fake))
        ],
        value: commit(params, bases, w),
    }
    transcript = commits[0] + commits[1]
    e = _challenge(params, DOMAIN_SLOT, pk, ct.to_bytes(), index, slots_digest, *transcript)
    e_real = (e - e_fake) % q
    es = {fake: e_fake, value: e_real}
    zs = {fake: z_fake, value: (w + e_real * r) % q}
    return SlotProof(*transcript, es[0], es[1], zs[0], zs[1])


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
    Each slot's proof is one job for `groups.fan_out`, once the digest of
    every slot, which each proof's nonces hash, is known.
    """
    q = params.q
    sd = digest(slots)
    jobs = [
        (params, pk, ct, i, sd, randomness[i], 1 if i == choice_index else 0)
        for i, ct in enumerate(slots)
    ]
    slot_proofs = fan_out(params, _prove_slot, jobs)

    prod_a, prod_b, y = _sum_statement(params, pk, slots)
    total_r = sum(randomness) % q
    w = nonce(params, "sum-w", total_r, sd)
    commits = commit(params, ((params.g, True), (pk, True)), w)
    e = _challenge(params, DOMAIN_SUM, pk, prod_a, prod_b, *commits, sd)
    z = (w + e * total_r) % q
    sum_proof = DecryptionProof(*commits, e, z)
    return WellformedProof(slots=tuple(slot_proofs), sum_proof=sum_proof)


def wellformed_statements(
    params: GroupParams, pk: int, slots: list[Ciphertext], proof: WellformedProof
) -> list:
    """What `holds` checks of the claim that every slot encrypts 0 or 1 and
    the slots sum to 1: each slot's branch for 0 and for 1, then the sum
    proof; `[None]`, which `holds` rejects, when the slot count is wrong or
    a challenge does not recompute."""
    if len(proof.slots) != len(slots) or not slots:
        return [None]
    sd = digest(slots)
    bases = ((params.g, True), (pk, True))
    statements = []
    for i, (ct, sp) in enumerate(zip(slots, proof.slots)):
        commits = (sp.commit_g0, sp.commit_h0, sp.commit_g1, sp.commit_h1)
        e = _challenge(params, DOMAIN_SLOT, pk, ct.to_bytes(), i, sd, *commits)
        if (sp.e0 + sp.e1) % params.q != e:
            return [None]
        statements.append((bases, _slot_values(params, ct, 0), commits[:2], sp.e0, sp.z0))
        statements.append((bases, _slot_values(params, ct, 1), commits[2:], sp.e1, sp.z1))
    prod_a, prod_b, y = _sum_statement(params, pk, slots)
    sp = proof.sum_proof
    commits = (sp.commit_g, sp.commit_c1)
    e = _challenge(params, DOMAIN_SUM, pk, prod_a, prod_b, *commits, sd)
    sum_statement = (bases, (prod_a, y), commits, e, sp.response)
    return statements + [sum_statement] if e == sp.challenge else [None]

