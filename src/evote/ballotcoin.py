"""Blockchain voting: one coin per voter, candidate balances as the result.

Implements wallets, single-coin transactions restricted to candidate
addresses, proof-of-stake forging (stake-weighted or uniform over eligible
online nodes), longest-chain fork choice with a deterministic tie-break,
double-spend rejection, a storage estimator, and a seeded round-based
network simulator.  The design intentionally keeps transactions public,
so mid-election partial results and voter-to-candidate links exist; the
simulator is there to demonstrate exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from .canonical import derive_rng, digest, encode
from .errors import NoOnlineNodes
from .groups import GROUP_PROFILES, GroupParams, keygen
from .registry import Signature, sign, verify_sig

GENESIS_TAG = "evote/ballotcoin/genesis"
_DOMAIN_LOTTERY = "evote/ballotcoin/lottery"

COIN_AMOUNT = 1

_Ledger = tuple[dict[str, int], set[bytes]]  # balances, included tx digests


@dataclass
class Wallet:
    address: str  # lowercase hex digest of the verify key
    verify_key: int
    balance: int = 0
    is_candidate: bool = False


def wallet_address(verify_key: int) -> str:
    return digest(verify_key).hex()


def make_wallet(params: GroupParams, rng: random.Random, is_candidate: bool = False):
    """Fresh wallet plus its signing key (held by the owner, not the chain)."""
    kp = keygen(params, rng)
    wallet = Wallet(
        address=wallet_address(kp.pk), verify_key=kp.pk, is_candidate=is_candidate
    )
    return wallet, kp.sk


@dataclass(frozen=True)
class CoinTransaction:
    sender: str
    recipient: str
    amount: int
    timestamp: int  # round number
    sender_vk: int
    signature: Signature

    def message(self) -> bytes:
        return encode(self.sender, self.recipient, self.amount, self.timestamp)

    def to_bytes(self) -> bytes:
        return encode(
            self.sender,
            self.recipient,
            self.amount,
            self.timestamp,
            self.sender_vk,
            self.signature.to_bytes(),
        )

    def digest(self) -> bytes:
        return digest(self.to_bytes())


def make_transaction(
    params: GroupParams,
    signing_key: int,
    sender_wallet: Wallet,
    recipient_address: str,
    round_no: int,
) -> CoinTransaction:
    message = encode(sender_wallet.address, recipient_address, COIN_AMOUNT, round_no)
    return CoinTransaction(
        sender=sender_wallet.address,
        recipient=recipient_address,
        amount=COIN_AMOUNT,
        timestamp=round_no,
        sender_vk=sender_wallet.verify_key,
        signature=sign(params, signing_key, message),
    )


@dataclass(frozen=True)
class Block:
    height: int
    prev_digest: bytes
    forger: str
    txs: tuple[CoinTransaction, ...]
    forger_signature: Signature | None

    def signed_message(self) -> bytes:
        return encode(
            self.height, self.prev_digest, self.forger, [tx.to_bytes() for tx in self.txs]
        )

    def to_bytes(self) -> bytes:
        sig = self.forger_signature.to_bytes() if self.forger_signature else b""
        return encode(
            self.height,
            self.prev_digest,
            self.forger,
            [tx.to_bytes() for tx in self.txs],
            sig,
        )

    def digest(self) -> bytes:
        return digest(self.to_bytes())


@dataclass(frozen=True)
class Chain:
    """Immutable block list plus the public context needed to validate it.

    The chain's ledger is computed once.  `extend` derives it from the
    parent's by checking only the new block; a chain built any other way
    replays its blocks on first use.
    """

    params: GroupParams
    genesis_alloc: dict[str, int]  # address -> coins at genesis
    candidate_names: dict[str, str]  # candidate address -> display name
    forger_keys: dict[str, int]  # node id -> verify key
    blocks: tuple[Block, ...]

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip_digest(self) -> bytes:
        return self.blocks[-1].digest()

    @cached_property
    def _ledger(self) -> _Ledger | None:
        """Balances and included tx digests after the last block, or None
        when any block is invalid."""
        g = self.blocks[0] if self.blocks else None
        if g is None or g.height != 0 or g.prev_digest != digest(GENESIS_TAG) or g.txs:
            return None
        ledger = (dict(self.genesis_alloc), set())
        for prev, block in zip(self.blocks, self.blocks[1:]):
            if not self._apply(ledger, prev, block):
                return None
        return ledger

    def _apply(self, ledger: _Ledger, prev: Block, block: Block) -> bool:
        """Check `block` as the successor of `prev` and apply its
        transactions to `ledger` in place; False when the block is invalid."""
        vk = self.forger_keys.get(block.forger)
        return (
            block.height == prev.height + 1
            and block.prev_digest == prev.digest()
            and vk is not None
            and block.forger_signature is not None
            and verify_sig(self.params, vk, block.signed_message(), block.forger_signature)
            and all(_admit(self, *ledger, tx) for tx in block.txs)
        )

    def _valid_ledger(self) -> _Ledger:
        if self._ledger is None:
            raise ValueError("chain is invalid")
        return self._ledger

    def balances(self) -> dict[str, int]:
        return dict(self._valid_ledger()[0])

    def included_tx_digests(self) -> set[bytes]:
        return set(self._valid_ledger()[1])

    def extend(self, block: Block) -> "Chain":
        child = replace(self, blocks=self.blocks + (block,))
        ledger = self._ledger
        if ledger is not None:
            ledger = (dict(ledger[0]), set(ledger[1]))
            if not child._apply(ledger, self.blocks[-1], block):
                ledger = None
        object.__setattr__(child, "_ledger", ledger)  # seed the cached property
        return child

    def is_valid(self) -> bool:
        return self._ledger is not None


def _admit(
    chain: Chain,
    balances: dict[str, int],
    included: set[bytes],
    tx: CoinTransaction,
) -> bool:
    """Check one transaction against a ledger and, when valid, apply it.

    Spending is balance-gated; replaying an identical transaction is
    rejected by digest.  This stays coherent even when the toy group makes
    distinct wallets collide on one address."""
    tx_digest = tx.digest()
    if (
        tx.amount != COIN_AMOUNT
        or tx.recipient not in chain.candidate_names
        or wallet_address(tx.sender_vk) != tx.sender
        or tx_digest in included
        or balances.get(tx.sender, 0) < tx.amount
        or not verify_sig(chain.params, tx.sender_vk, tx.message(), tx.signature)
    ):
        return False
    balances[tx.sender] -= tx.amount
    balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.amount
    included.add(tx_digest)
    return True


def genesis(
    params: GroupParams, candidates: list[Wallet], voters: list[Wallet],
    forger_keys: dict[str, int] | None = None,
) -> tuple[Chain, dict[str, int]]:
    """Genesis chain crediting exactly one coin per eligible voter."""
    if not candidates:
        raise ValueError("need at least one candidate")
    alloc = {w.address: 0 for w in candidates}
    for w in voters:
        # Accumulate: colliding addresses (possible in the toy group) hold
        # one coin per voter behind them, keeping total supply conserved.
        alloc[w.address] = alloc.get(w.address, 0) + COIN_AMOUNT
    block = Block(
        height=0,
        prev_digest=digest(GENESIS_TAG),
        forger="genesis",
        txs=(),
        forger_signature=None,
    )
    chain = Chain(
        params=params,
        genesis_alloc=alloc,
        candidate_names={w.address: w.address for w in candidates},
        forger_keys=forger_keys or {},
        blocks=(block,),
    )
    return chain, alloc


def validate_tx(chain: Chain, pool: list[CoinTransaction], tx: CoinTransaction) -> bool:
    """Valid against the chain plus every earlier pool transaction that is
    itself valid, the rule `forge_block` applies."""
    balances, included = chain.balances(), chain.included_tx_digests()
    for earlier in pool:
        _admit(chain, balances, included, earlier)
    return _admit(chain, balances, included, tx)


@dataclass
class NodeState:
    node_id: str
    wallet: Wallet
    signing_key: int  # simulation detail: nodes sign their own blocks
    online: bool = True
    eligible: bool = True
    malicious: bool = False


def select_forger(
    nodes: list[NodeState], mode: str, seed, round_no: int
) -> str:
    """Seeded lottery over eligible nodes; an offline pick is redrawn.

    stake_weighted: probability proportional to coin balance.
    uniform: equal probability per eligible node, balances never read.
    """
    if mode not in ("stake_weighted", "uniform"):
        raise ValueError(f"unknown forger mode {mode!r}")
    eligible = sorted((n for n in nodes if n.eligible), key=lambda n: n.node_id)
    if mode == "stake_weighted":
        eligible = [n for n in eligible if n.wallet.balance > 0]
        if not any(n.online for n in eligible):
            raise NoOnlineNodes("no online eligible node with stake")
        total = sum(n.wallet.balance for n in eligible)
    else:
        if not any(n.online for n in eligible):
            raise NoOnlineNodes("no online eligible node")
        total = len(eligible)
    attempt = 0
    while True:
        h = int.from_bytes(digest(_DOMAIN_LOTTERY, seed, round_no, attempt), "big")
        x = h % total
        if mode == "uniform":
            picked = eligible[x]
        else:
            acc = 0
            picked = eligible[-1]
            for n in eligible:
                acc += n.wallet.balance
                if x < acc:
                    picked = n
                    break
        if picked.online:
            return picked.node_id
        attempt += 1


def forge_block(
    node: NodeState, pool: list[CoinTransaction], chain: Chain
) -> Block:
    """Collect the pool's valid transactions, in pool order, into a block.

    Invalid transactions (double spends included) are excluded, not fatal.
    """
    balances, included = chain.balances(), chain.included_tx_digests()
    block = Block(
        height=chain.height + 1,
        prev_digest=chain.tip_digest,
        forger=node.node_id,
        txs=tuple(tx for tx in pool if _admit(chain, balances, included, tx)),
        forger_signature=None,
    )
    signature = sign(chain.params, node.signing_key, block.signed_message())
    return replace(block, forger_signature=signature)


def validate_block(chain: Chain, block: Block) -> bool:
    """Would extending this chain with the block keep it valid?"""
    return chain.extend(block).is_valid()


def fork_choice(chains: list[Chain]) -> Chain:
    """Longest valid chain; equal heights resolve to the smaller tip digest."""
    best: Chain | None = None
    for c in chains:
        if not c.is_valid():
            continue
        if (
            best is None
            or c.height > best.height
            or (c.height == best.height and c.tip_digest < best.tip_digest)
        ):
            best = c
    if best is None:
        raise ValueError("no valid chain supplied")
    return best


def tally_chain(chain: Chain) -> dict[str, int]:
    """Candidate balances are the election result; callable at any time,
    which is precisely the fairness defect of this protocol."""
    balances = chain.balances()
    return {
        name: balances.get(addr, 0)
        for addr, name in chain.candidate_names.items()
    }


@dataclass(frozen=True)
class StorageEstimate:
    n_tx: int
    bytes_per_tx: int

    @property
    def total_bytes(self) -> int:
        return self.n_tx * self.bytes_per_tx

    @property
    def mib(self) -> float:
        return self.total_bytes / (1024 * 1024)


def estimate_storage(n_tx: int, bytes_per_tx: int) -> StorageEstimate:
    if n_tx < 0 or bytes_per_tx < 0:
        raise ValueError("counts must be non-negative")
    return StorageEstimate(n_tx=n_tx, bytes_per_tx=bytes_per_tx)


@dataclass
class SimConfig:
    rounds: int = 50
    n_voters: int = 100
    n_candidates: int = 3
    online_prob: float = 1.0
    malicious_fraction: float = 0.0
    mode: str = "stake_weighted"
    vote_prob: float = 0.1
    group: str = "test"

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "n_voters": self.n_voters,
            "n_candidates": self.n_candidates,
            "online_prob": self.online_prob,
            "malicious_fraction": self.malicious_fraction,
            "mode": self.mode,
            "vote_prob": self.vote_prob,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(**d)


@dataclass
class SimReport:
    final_tally: dict[str, int]
    fork_count: int
    total_selected: int
    malicious_selected: int
    skipped_rounds: int
    chain_height: int
    txs_included: int
    rounds: int
    mode: str

    @property
    def malicious_frequency(self) -> float:
        return self.malicious_selected / self.total_selected if self.total_selected else 0.0

    def to_dict(self) -> dict:
        return {
            "final_tally": dict(self.final_tally),
            "fork_count": self.fork_count,
            "total_selected": self.total_selected,
            "malicious_selected": self.malicious_selected,
            "malicious_frequency": self.malicious_frequency,
            "skipped_rounds": self.skipped_rounds,
            "chain_height": self.chain_height,
            "txs_included": self.txs_included,
            "rounds": self.rounds,
            "mode": self.mode,
        }


@dataclass
class SimState:
    """Mid-run view handed to observers; used to demonstrate that partial
    results are readable while voting is still under way."""

    round_no: int
    canonical: Chain
    pool: list[CoinTransaction]


def simulate(config: SimConfig, seed, observer=None) -> SimReport:
    """Deterministic round loop: churn, select, forge, broadcast, fork choice.

    `observer(SimState)` runs after every round, seeing live chain state.
    """
    params = GROUP_PROFILES[config.group]
    cand_wallets = []
    for i in range(config.n_candidates):
        w, _ = make_wallet(params, derive_rng(seed, "candidate", i), is_candidate=True)
        cand_wallets.append((f"cand{i}", w))

    nodes: list[NodeState] = []
    voter_wallets = []
    for i in range(config.n_voters):
        w, sk = make_wallet(params, derive_rng(seed, "voter", i))
        voter_wallets.append(w)
        nodes.append(NodeState(node_id=f"node{i:04d}", wallet=w, signing_key=sk))

    n_malicious = int(round(config.malicious_fraction * config.n_voters))
    mal_rng = derive_rng(seed, "malicious")
    for n in mal_rng.sample(nodes, n_malicious):
        n.malicious = True

    chain, _alloc = genesis(
        params,
        [w for _, w in cand_wallets],
        voter_wallets,
        forger_keys={n.node_id: n.wallet.verify_key for n in nodes},
    )
    chain = replace(
        chain, candidate_names={w.address: name for name, w in cand_wallets}
    )
    candidate_addrs = [w.address for _, w in cand_wallets]

    leaves = [chain]
    canonical = chain
    all_txs: list[CoinTransaction] = []
    pool: list[CoinTransaction] = []
    voted: set[str] = set()
    fork_count = 0
    total_selected = 0
    malicious_selected = 0
    skipped = 0

    for r in range(config.rounds):
        rng = derive_rng(seed, "round", r)

        # Churn: independent online draws per node, in stable order.
        for n in nodes:
            n.online = rng.random() < config.online_prob

        # Voting: online voters that still hold their coin may cast.
        for n in nodes:
            if n.node_id in voted or not n.online:
                continue
            if rng.random() < config.vote_prob:
                cand = candidate_addrs[rng.randrange(len(candidate_addrs))]
                tx = make_transaction(params, n.signing_key, n.wallet, cand, r)
                all_txs.append(tx)
                pool.append(tx)
                voted.add(n.node_id)

        # Stake weights follow the canonical chain.
        balances = canonical.balances()
        for n in nodes:
            n.wallet.balance = balances.get(n.wallet.address, 0)

        try:
            forger_id = select_forger(nodes, config.mode, seed, r)
        except NoOnlineNodes:
            skipped += 1
            continue
        forger = next(n for n in nodes if n.node_id == forger_id)
        total_selected += 1
        if forger.malicious:
            malicious_selected += 1

        # A malicious forger builds on the tip's parent, manufacturing a
        # same-height fork; honest forgers extend the canonical tip.
        if forger.malicious and len(canonical.blocks) > 1:
            base = replace(canonical, blocks=canonical.blocks[:-1])
            fork_count += 1
        else:
            base = canonical
        block = forge_block(forger, pool, base)
        new_chain = base.extend(block)

        if base is canonical and canonical in leaves:
            leaves.remove(canonical)
        leaves.append(new_chain)
        canonical = fork_choice(leaves)

        # Rebuild the pool from every broadcast transaction not yet in the
        # canonical chain, so re-orgs return orphaned votes to the mempool.
        included = canonical.included_tx_digests()
        pool = [tx for tx in all_txs if tx.digest() not in included]

        if observer is not None:
            observer(SimState(round_no=r, canonical=canonical, pool=pool))

    return SimReport(
        final_tally=tally_chain(canonical),
        fork_count=fork_count,
        total_selected=total_selected,
        malicious_selected=malicious_selected,
        skipped_rounds=skipped,
        chain_height=canonical.height,
        txs_included=len(canonical.included_tx_digests()),
        rounds=config.rounds,
        mode=config.mode,
    )
