"""Simulated governmental PKI: enrollment, eligibility, Schnorr signatures.

Enrollment issues a credential (the stand-in for an eID card) holding the
signing key; the registry itself keeps only public records and answers
eligibility with a bare boolean.  A signature is checked by handing its
`sig_statement` to `zkp.holds` in one list with the rest of a check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .canonical import Record, digest, from_json, read_rows, write_rows
from .errors import DuplicateVoter
from .groups import GroupParams, keygens
from .zkp import commit, nonce

DOMAIN_SIG = "evote/registry/schnorr"
_DOMAIN_SIG_NONCE = "evote/registry/schnorr-nonce"


@dataclass
class VoterRecord:
    voter_id: str
    verify_key: int
    eligible: bool = True


@dataclass(frozen=True)
class VoterCredential:
    """Issued to the voter at enrollment; never stored by the registry."""

    voter_id: str
    signing_key: int
    verify_key: int


@dataclass(frozen=True)
class Signature(Record):
    commit: int
    response: int


class Registry:
    """Read-mostly voter directory; enrollment happens during setup."""

    def __init__(self, params: GroupParams):
        self.params = params
        self.records: dict[str, VoterRecord] = {}

    def save(self, path: str | Path) -> None:
        """One voter per row (id, verify key, eligibility flag), streamed by `write_rows`."""
        write_rows(path, map(asdict, self.records.values()))

    @classmethod
    def load(cls, params: GroupParams, path: str | Path) -> "Registry":
        """The registry that `save` wrote, streamed row by row by `read_rows`;
        a line that `from_json` does not read as a `VoterRecord` raises ValueError."""
        reg = cls(params)
        for _, line in read_rows(path):
            record = from_json(VoterRecord, json.loads(line))
            reg.records[record.voter_id] = record
        return reg


def enroll_voters(registry: Registry, voters) -> list[VoterCredential]:
    """Bind a fresh signature key pair to each voter_id of the (voter_id,
    rng) pairs in `voters`, in order, and mark it eligible; every key pair
    comes from one `groups.keygens` call.  A voter_id enrolled already, or
    twice in `voters`, raises DuplicateVoter before any draw."""
    seen = set(registry.records)
    for voter_id, _ in voters:
        if voter_id in seen:
            raise DuplicateVoter(voter_id)
        seen.add(voter_id)
    credentials = []
    for (voter_id, _), kp in zip(voters, keygens(registry.params, [rng for _, rng in voters])):
        registry.records[voter_id] = VoterRecord(voter_id=voter_id, verify_key=kp.pk)
        credentials.append(VoterCredential(voter_id=voter_id, signing_key=kp.sk, verify_key=kp.pk))
    return credentials


def is_eligible(registry: Registry, voter_id: str) -> bool:
    record = registry.records.get(voter_id)
    return record is not None and record.eligible


def revoke_eligibility(registry: Registry, voter_id: str) -> None:
    record = registry.records.get(voter_id)
    if record is not None:
        record.eligible = False


def verify_key_of(registry: Registry, voter_id: str) -> int | None:
    record = registry.records.get(voter_id)
    return record.verify_key if record is not None else None


def sign(params: GroupParams, signing_key: int, message: bytes) -> Signature:
    """Schnorr signature over the canonical encoding of message."""
    q, g = params.q, params.g
    vk = params.exp(g, signing_key, fixed=True)
    w = nonce(params, signing_key, message, domain=_DOMAIN_SIG_NONCE)
    [t] = commit(params, ((g, True),), w)
    e = _sig_challenge(params, vk, t, message)
    z = (w + e * signing_key) % q
    return Signature(commit=t, response=z)


def sig_statement(params: GroupParams, verify_key: int, message: bytes, sig: Signature):
    """What `zkp.holds` checks of a signature: g^z = t * vk^e."""
    e = _sig_challenge(params, verify_key, sig.commit, message)
    return ((params.g, True),), (verify_key,), (sig.commit,), e, sig.response


def _sig_challenge(params: GroupParams, vk: int, t: int, message: bytes) -> int:
    h = digest(DOMAIN_SIG, params, vk, t, message)
    return int.from_bytes(h, "big") % params.q
