"""Board mutation helpers: surgical single edits for verifier tests.

`rechain` returns a copy re-linked by `Board.rechain`, so a mutation can
target a specific verification check instead of tripping the hash chain
first.  `exact_only` gives the reference that every batched verdict must
equal.
"""

import functools

from evote import zkp
from evote.bulletin import Board, BulletinEntry
from evote.groups import GroupParams

_exact = functools.cache(zkp._exact)


def exact_only(patch) -> None:
    """Through `patch` (a monkeypatch), make every group one that does not
    batch, so that every claim is decided by its own exact check: each
    statement by `zkp._holds`, each mix stage slot by slot.  A statement's
    verdict is remembered across tests, which check the same ones often."""
    patch.setattr(GroupParams, "batches", False)
    patch.setattr(zkp, "_exact", _exact)


def clone_board(board: Board) -> Board:
    return Board(entries=list(board.entries))


def rechain(board: Board) -> Board:
    fixed = clone_board(board)
    fixed.rechain()
    return fixed


def replace_payload(board: Board, seq: int, payload: bytes, fix_chain: bool) -> Board:
    mutated = clone_board(board)
    e = mutated.entries[seq]
    mutated.entries[seq] = BulletinEntry(
        seq=e.seq,
        kind=e.kind,
        payload=payload,
        prev_digest=e.prev_digest,
        digest=e.digest,
    )
    return rechain(mutated) if fix_chain else mutated


def drop_entry(board: Board, seq: int, fix_chain: bool) -> Board:
    mutated = clone_board(board)
    del mutated.entries[seq]
    return rechain(mutated) if fix_chain else mutated


def flip_byte(data: bytes, offset: int = 0) -> bytes:
    out = bytearray(data)
    out[offset] ^= 0x01
    return bytes(out)
