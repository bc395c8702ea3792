"""Re-encryption mix-net with randomized partial checking proofs.

Each server shuffles and re-encrypts twice (input -> hidden mid layer ->
output).  Its proof publishes the mid layer and, per challenge round and
per mid item, opens exactly one adjacent link (toward input or output)
with the re-encryption scalars for that link.  A single tampered item
escapes detection with probability 2^-rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .canonical import Record, digest
from .groups import Ciphertext, GroupParams, rand_scalar, reencrypt

DOMAIN_MIX = "evote/mixnet/challenge"

SIDE_IN = 0
SIDE_OUT = 1


@dataclass(frozen=True)
class MixBatch(Record):
    """Ordered slot-tuples (one ciphertext per candidate), no identifiers."""

    items: tuple[tuple[Ciphertext, ...], ...]

    def __post_init__(self):
        widths = {len(item) for item in self.items}
        if len(widths) > 1:
            raise ValueError("all batch items must have the same slot count")


@dataclass(frozen=True)
class OpenedLink(Record):
    side: int  # SIDE_IN: input -> mid, SIDE_OUT: mid -> output
    index: int  # input index (in) or output index (out)
    scalars: tuple[int, ...]  # one re-encryption scalar per slot


@dataclass(frozen=True)
class ShuffleProof(Record):
    mid: MixBatch
    mid_commit: bytes
    rounds: tuple[tuple[OpenedLink, ...], ...]


@dataclass(frozen=True)
class MixServerState:
    """Secret permutations and re-encryption scalars for both stages.

    sigma maps output position to source position; scalars are indexed by
    output position, one per slot.
    """

    sigma1: tuple[int, ...]
    scalars1: tuple[tuple[int, ...], ...]
    sigma2: tuple[int, ...]
    scalars2: tuple[tuple[int, ...], ...]


def strip_signatures(ballots) -> MixBatch:
    """Bare slot-tuples in bulletin order; voter ids and signatures dropped."""
    return MixBatch(items=tuple(tuple(sb.encrypted.slots) for sb in ballots))


def _shuffle_stage(
    params: GroupParams,
    pk: int,
    items: tuple[tuple[Ciphertext, ...], ...],
    rng: random.Random,
):
    n = len(items)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    scalars = []
    for j in range(n):
        rs = tuple(rand_scalar(params, rng) for _ in items[sigma[j]])
        out.append(
            tuple(
                reencrypt(params, pk, ct, r) for ct, r in zip(items[sigma[j]], rs)
            )
        )
        scalars.append(rs)
    return tuple(out), tuple(sigma), tuple(scalars)


def mix_with_state(
    params: GroupParams, pk: int, batch: MixBatch, rng: random.Random
) -> tuple[MixBatch, MixBatch, MixServerState]:
    """Both shuffle stages; exposed separately so tests can model a cheating
    server that rebuilds a proof over a tampered output."""
    mid_items, sigma1, scalars1 = _shuffle_stage(params, pk, batch.items, rng)
    out_items, sigma2, scalars2 = _shuffle_stage(params, pk, mid_items, rng)
    state = MixServerState(
        sigma1=sigma1, scalars1=scalars1, sigma2=sigma2, scalars2=scalars2
    )
    return MixBatch(items=mid_items), MixBatch(items=out_items), state


def _challenge_sides(
    input_digest: bytes, mid_commit: bytes, output_digest: bytes, round_idx: int, n: int
) -> list[int]:
    """One side bit per mid item, expanded from the stage transcript."""
    sides = []
    block = b""
    counter = 0
    for j in range(n):
        if j % 256 == 0:
            block = digest(
                DOMAIN_MIX, input_digest, mid_commit, output_digest, round_idx, counter
            )
            counter += 1
        byte = block[(j % 256) // 8]
        sides.append((byte >> (7 - (j % 8))) & 1)
    return sides


def build_proof(
    params: GroupParams,
    state: MixServerState,
    batch_in: MixBatch,
    mid: MixBatch,
    batch_out: MixBatch,
    rounds: int,
) -> ShuffleProof:
    n = len(mid.items)
    mid_commit = mid.digest()
    in_digest = batch_in.digest()
    out_digest = batch_out.digest()
    # Output position that each mid item feeds: invert sigma2.
    out_pos = [0] * n
    for t, j in enumerate(state.sigma2):
        out_pos[j] = t
    round_list = []
    for k in range(rounds):
        sides = _challenge_sides(in_digest, mid_commit, out_digest, k, n)
        links = []
        for j in range(n):
            if sides[j] == SIDE_IN:
                links.append(
                    OpenedLink(
                        side=SIDE_IN, index=state.sigma1[j], scalars=state.scalars1[j]
                    )
                )
            else:
                t = out_pos[j]
                links.append(
                    OpenedLink(side=SIDE_OUT, index=t, scalars=state.scalars2[t])
                )
        round_list.append(tuple(links))
    return ShuffleProof(mid=mid, mid_commit=mid_commit, rounds=tuple(round_list))


def mix_once(
    params: GroupParams,
    pk: int,
    batch: MixBatch,
    rng: random.Random,
    rounds: int,
) -> tuple[MixBatch, ShuffleProof]:
    """One server's double shuffle-and-re-encrypt plus its opening proof."""
    if rounds < 1:
        raise ValueError("at least one challenge round required")
    mid, out, state = mix_with_state(params, pk, batch, rng)
    proof = build_proof(params, state, batch, mid, out, rounds)
    return out, proof


def verify_mix(
    params: GroupParams,
    pk: int,
    batch_in: MixBatch,
    batch_out: MixBatch,
    proof: ShuffleProof,
    min_rounds: int = 1,
) -> bool:
    """Recompute challenges and check every opened link re-encrypts correctly.

    Uses public data only.  Also enforces the structural half-opening: per
    round, one link per mid item, of the derived side, with distinct sources
    and targets.  Every opened scalar lies in [0, q): r + q re-encrypts to
    the same ciphertext, so it would be a second encoding of the proof.
    """
    q = params.q
    n = len(batch_in.items)
    if len(batch_out.items) != n or len(proof.mid.items) != n:
        return False
    if proof.mid.digest() != proof.mid_commit:
        return False
    if n > 0 and len(proof.rounds) < min_rounds:
        return False
    in_digest = batch_in.digest()
    out_digest = batch_out.digest()
    for k, links in enumerate(proof.rounds):
        if len(links) != n:
            return False
        sides = _challenge_sides(in_digest, proof.mid_commit, out_digest, k, n)
        seen_in: set[int] = set()
        seen_out: set[int] = set()
        for j, link in enumerate(links):
            if link.side != sides[j]:
                return False
            if not 0 <= link.index < n:
                return False
            if link.side == SIDE_IN:
                if link.index in seen_in:
                    return False
                seen_in.add(link.index)
                source = batch_in.items[link.index]
                target = proof.mid.items[j]
            else:
                if link.index in seen_out:
                    return False
                seen_out.add(link.index)
                source = proof.mid.items[j]
                target = batch_out.items[link.index]
            if len(link.scalars) != len(source):
                return False
            for ct, r, expected in zip(source, link.scalars, target):
                if not 0 <= r < q or reencrypt(params, pk, ct, r) != expected:
                    return False
    return True


@dataclass(frozen=True)
class MixStage(Record):
    """Published record of one server's pass: batches plus proof."""

    batch_in: MixBatch
    batch_out: MixBatch
    proof: ShuffleProof


def stage_failures(
    params: GroupParams,
    pk: int,
    batch_digest: bytes | None,
    stages: list[MixStage],
    min_rounds: int,
) -> list[tuple[int, str]]:
    """(stage index, reason) for each fault in a chain of mix stages.

    The first input must be the batch with `batch_digest` (not compared
    when None), each later input the previous output, and every shuffle
    proof must verify with at least `min_rounds` rounds.
    """
    failures = []
    if stages and batch_digest is not None and stages[0].batch_in.digest() != batch_digest:
        failures.append((0, "input does not match the transferred batch"))
    for idx, stage in enumerate(stages):
        if idx > 0 and stage.batch_in != stages[idx - 1].batch_out:
            failures.append((idx, "input breaks continuity"))
        if not verify_mix(
            params, pk, stage.batch_in, stage.batch_out, stage.proof, min_rounds=min_rounds
        ):
            failures.append((idx, "proof rejected"))
    return failures


def run_mixnet(
    params: GroupParams,
    pk: int,
    batch: MixBatch,
    server_rngs: list[random.Random],
    rounds: int,
) -> tuple[MixBatch, list[MixStage]]:
    """Sequential pass through every server; one honest server suffices for
    anonymity, every stage is recorded for publication."""
    stages = []
    current = batch
    for rng in server_rngs:
        out, proof = mix_once(params, pk, current, rng, rounds)
        stages.append(MixStage(batch_in=current, batch_out=out, proof=proof))
        current = out
    return current, stages
