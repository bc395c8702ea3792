"""Re-encryption mix-net with randomized partial checking proofs.

Each server shuffles and re-encrypts twice (input -> hidden mid layer ->
output).  Its secret is its link table: each mid item's link toward the
input (`SIDE_IN`) and toward the output (`SIDE_OUT`), with that link's
re-encryption scalars.  Its proof publishes the mid layer and, per challenge
round and per mid item, one of the two links.  A single tampered item
escapes detection with probability 2^-rounds.

`verify_mix` is the one check of a published chain of stages, on every
group: each stage's input, continuity and structure, then the claim that
the links it opens re-encrypt, which `groups.settle` decides.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .canonical import Record, digest
from .groups import Ciphertext, GroupParams, fails_unless, rand_scalar, reencrypt, reencrypts_to

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


def strip_signatures(ballots) -> MixBatch:
    """Bare slot-tuples in bulletin order; voter ids and signatures dropped."""
    return MixBatch(items=tuple(tuple(sb.encrypted.slots) for sb in ballots))


def _shuffle_stage(params: GroupParams, pk: int, batch_in: MixBatch, rng: random.Random):
    """The shuffled, re-encrypted batch and each output's (source, scalars)."""
    sigma = list(range(len(batch_in.items)))
    rng.shuffle(sigma)
    out = []
    sources = []
    for i in sigma:
        rs = tuple(rand_scalar(params, rng) for _ in batch_in.items[i])
        out.append(tuple(reencrypt(params, pk, ct, r) for ct, r in zip(batch_in.items[i], rs)))
        sources.append((i, rs))
    return MixBatch(items=tuple(out)), sources


def mix_with_state(
    params: GroupParams, pk: int, batch_in: MixBatch, rng: random.Random
) -> tuple[MixBatch, MixBatch, tuple[tuple[OpenedLink, ...], ...]]:
    """Both shuffle stages and the server's link table, where `links[side][j]`
    is the link of mid item j on `side`.  Exposed separately so tests can
    model a cheating server that rebuilds a proof over a tampered output."""
    mid, mid_sources = _shuffle_stage(params, pk, batch_in, rng)
    out, out_sources = _shuffle_stage(params, pk, mid, rng)
    links_out = [None] * len(mid.items)
    for t, (j, rs) in enumerate(out_sources):
        links_out[j] = OpenedLink(side=SIDE_OUT, index=t, scalars=rs)
    links_in = tuple(OpenedLink(side=SIDE_IN, index=i, scalars=rs) for i, rs in mid_sources)
    return mid, out, (links_in, tuple(links_out))


def _challenge_sides(
    input_digest: bytes, mid_commit: bytes, output_digest: bytes, round_idx: int, n: int
) -> list[int]:
    """One side bit per mid item, read most-significant-first from the
    stage transcript's digests joined, one 256-bit digest per 256 items."""
    joined = b"".join(
        digest(DOMAIN_MIX, input_digest, mid_commit, output_digest, round_idx, counter)
        for counter in range((n + 255) // 256)
    )
    bits = int.from_bytes(joined, "big")
    width = 8 * len(joined)
    return [(bits >> (width - 1 - j)) & 1 for j in range(n)]


def build_proof(
    links: tuple[tuple[OpenedLink, ...], ...],
    batch_in: MixBatch,
    mid: MixBatch,
    batch_out: MixBatch,
    rounds: int,
) -> ShuffleProof:
    """Per challenge round, the link of each mid item on its challenged side."""
    mid_commit = mid.digest()
    in_digest = batch_in.digest()
    out_digest = batch_out.digest()
    round_list = []
    for k in range(rounds):
        sides = _challenge_sides(in_digest, mid_commit, out_digest, k, len(mid.items))
        round_list.append(tuple(links[side][j] for j, side in enumerate(sides)))
    return ShuffleProof(mid=mid, mid_commit=mid_commit, rounds=tuple(round_list))


def mix_once(
    params: GroupParams,
    pk: int,
    batch_in: MixBatch,
    rng: random.Random,
    rounds: int,
) -> tuple[MixBatch, ShuffleProof]:
    """One server's double shuffle-and-re-encrypt plus its opening proof."""
    if rounds < 1:
        raise ValueError("at least one challenge round required")
    mid, out, links = mix_with_state(params, pk, batch_in, rng)
    return out, build_proof(links, batch_in, mid, out, rounds)


@dataclass(frozen=True)
class MixStage(Record):
    """Published record of one server's pass: batches plus proof."""

    batch_in: MixBatch
    batch_out: MixBatch
    proof: ShuffleProof


def _opened_links(params: GroupParams, stage: MixStage, min_rounds: int) -> list | None:
    """The (sources, scalars, targets) of every link the stage's proof opens,
    in round order, or None when the stage breaks its structural
    half-opening: input, mid and output of one item count and one slot
    count, per round one link per mid item, of the derived side, with
    distinct sources and targets, and at least `min_rounds` rounds.  Every
    opened scalar lies in [0, q): r + q re-encrypts to the same ciphertext,
    so it would be a second encoding of the proof."""
    q = params.q
    proof = stage.proof
    ins, mids, outs = stage.batch_in.items, proof.mid.items, stage.batch_out.items
    n = len(ins)
    if len(mids) != n or len(outs) != n or len({len(item) for item in ins + mids + outs}) > 1:
        return None
    if proof.mid.digest() != proof.mid_commit:
        return None
    if n > 0 and len(proof.rounds) < min_rounds:
        return None
    in_digest = stage.batch_in.digest()
    out_digest = stage.batch_out.digest()
    opened = []
    for k, links in enumerate(proof.rounds):
        if len(links) != n:
            return None
        sides = _challenge_sides(in_digest, proof.mid_commit, out_digest, k, n)
        seen = (set(), set())
        for j, link in enumerate(links):
            side, i = link.side, link.index
            if side != sides[j] or not 0 <= i < n or i in seen[side]:
                return None
            seen[side].add(i)
            source, target = ((ins[i], mids[j]), (mids[j], outs[i]))[side]
            if len(link.scalars) != len(source):
                return None
            for r in link.scalars:
                if not 0 <= r < q:
                    return None
            opened.append((source, link.scalars, target))
    return opened


def verify_mix(
    params: GroupParams,
    pk: int,
    batch_digest: bytes | None,
    stages: list[MixStage],
    min_rounds: int,
) -> list:
    """(stage index, reason) for each fault in a chain of mix stages, in
    stage order: per stage, its input or continuity, then its proof, held
    back for `groups.settle` where the group batches.

    Uses public data only.  The first input must be the batch with
    `batch_digest` (not compared when None), each later input the previous
    output, and every stage's proof must keep the structural half-opening
    that `_opened_links` reads, and the links it opens must re-encrypt (a
    batch adds at most 2^-128 per hash trial to the 2^-rounds escape).
    """
    failures = []
    if stages and batch_digest is not None and stages[0].batch_in.digest() != batch_digest:
        failures.append((0, "input does not match the transferred batch"))
    for idx, stage in enumerate(stages):
        if idx > 0 and stage.batch_in != stages[idx - 1].batch_out:
            failures.append((idx, "input breaks continuity"))
        links, failure = _opened_links(params, stage, min_rounds), (idx, "proof rejected")
        if links is None:
            failures.append(failure)
        else:
            failures += fails_unless(params, failure, _link_equations, _links_hold, [links], pk)
    return failures


def _link_equations(params: GroupParams, links: list, pk: int) -> tuple:
    """The equations x*b^r = y of a stage's opened links: ct.c1*g^r =
    target.c1 and ct.c2*pk^r = target.c2 for each slot."""
    return tuple(
        (((x, 1, False), (b, r, True)), ((y, 1, False),))
        for link in links for ct, r, t in zip(*link)
        for b, x, y in ((params.g, ct.c1, t.c1), (pk, ct.c2, t.c2))
    )


def _links_hold(params: GroupParams, links: list, pk: int) -> bool:
    """Each opened slot of a stage re-encrypts, checked up to the first that
    does not."""
    slots = itertools.chain.from_iterable(itertools.starmap(zip, links))
    return all(itertools.starmap(functools.partial(reencrypts_to, params, pk), slots))


def run_mixnet(
    params: GroupParams,
    pk: int,
    batch_in: MixBatch,
    server_rngs: list[random.Random],
    rounds: int,
) -> tuple[MixBatch, list[MixStage]]:
    """Sequential pass through every server; one honest server suffices for
    anonymity, every stage is recorded for publication."""
    stages = []
    current = batch_in
    for rng in server_rngs:
        out, proof = mix_once(params, pk, current, rng, rounds)
        stages.append(MixStage(batch_in=current, batch_out=out, proof=proof))
        current = out
    return current, stages
