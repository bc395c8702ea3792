"""The verifier's verdicts, pinned over a mutation corpus of one board.

The corpus is built from the `tallied` test-group board: every payload
byte flipped (its lowest bit), then every entry dropped and every entry
duplicated in place, each edit once as it is and once rechained, in that
order.  Two sha256 digests over the `universal_verify` reports, as sorted
JSON in corpus order, pin the verifier:

- the verdict digest: each report's `checks` and, per failure, the entry
  seqs it names;
- the report digest: each whole report, failure text included.

Tier-1 checks every STRIDE-th mutation of the corpus and the rechained
flips of every `Login` byte, the only mutations the verifier accepts: the
flips of the five `Login` digests' 32 bytes, which no check covers (see
the `bulletin.py` docstring).  Under the `ci` Hypothesis profile
(`--hypothesis-profile=ci`) the whole corpus runs, with its own digests.
A change that alters a verdict or a failure text on purpose re-pins the
digests and lists the mutations whose report changed.
"""

import functools
import hashlib
import itertools
import json
import re

from hypothesis import settings

from board_utils import drop_entry, flip_byte, rechain, replace_payload
from evote.bulletin import KIND_LOGIN, Board, universal_verify

STRIDE = 16
FULL = settings().max_examples >= 1000

# (mutations, verdict digest, report digest, accepted mutations)
PINNED = {
    False: (
        986,
        "404c557a355f01440df5cecfd7314d9cd02f83d28eeb2fd962344e79251ded36",
        "5199278651bc2268e0a898a1cf65d83ffca3562762eacdee997801422fe0137d",
        0,
    ),
    True: (
        15_766,
        "e274f850668b3aae081a1fec1fe32792c7199b2690c9a11b7991514212769476",
        "eb71e2095a4711b46eba19c517fb78ac08961afd79ff42bdadca8e7463c2ca62",
        160,
    ),
}


def _duplicate(board, seq, fix_chain):
    entries = list(board.entries)
    entries.insert(seq + 1, entries[seq])
    duplicated = Board(entries=entries)
    return rechain(duplicated) if fix_chain else duplicated


def _flipped(board, entry, offset):
    return replace_payload(board, entry.seq, flip_byte(entry.payload, offset), True)


def _corpus(board):
    """Each mutation as a function of no arguments that builds its board."""
    for entry in board.entries:
        for offset in range(len(entry.payload)):
            payload = flip_byte(entry.payload, offset)
            for fix in (False, True):
                yield functools.partial(replace_payload, board, entry.seq, payload, fix)
    for mutate in (drop_entry, _duplicate):
        for seq in range(len(board.entries)):
            for fix in (False, True):
                yield functools.partial(mutate, board, seq, fix)


def _report(election, config, board):
    return universal_verify(
        election.params, board, config, election.election_key.h, election.commitments
    ).to_dict()


def _digests(reports):
    """(verdict digest, report digest) of the reports, in order."""
    verdicts = [
        {
            "checks": report["checks"],
            "seqs": [[int(n) for n in re.findall(r"\bentry (\d+)", f)] for f in report["failures"]],
        }
        for report in reports
    ]
    return tuple(
        hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
        for items in (verdicts, reports)
    )


def test_verdicts_over_the_mutation_corpus_are_pinned(tallied):
    election, config = tallied
    mutations = itertools.islice(_corpus(election.board), 0, None, 1 if FULL else STRIDE)
    reports = [_report(election, config, build()) for build in mutations]
    count, verdict_digest, report_digest, accepted = PINNED[FULL]
    assert len(reports) == count
    assert _digests(reports) == (verdict_digest, report_digest)
    assert sum(report["overall"] for report in reports) == accepted


def test_the_verifier_accepts_only_the_login_digest_flips(tallied):
    """Of the rechained flips of every byte of every Login entry, 160 pass:
    those of the five digests' 32 bytes."""
    election, config = tallied
    board = election.board
    logins = board.find(KIND_LOGIN)
    accepted = [
        (entry.seq, offset)
        for entry in logins
        for offset in range(len(entry.payload))
        if _report(election, config, _flipped(board, entry, offset))["overall"]
    ]
    assert len(logins) == 5
    assert len(accepted) == 160
    assert accepted == [
        (entry.seq, offset)
        for entry in logins
        for offset in range(len(entry.payload) - 32, len(entry.payload))
    ]
