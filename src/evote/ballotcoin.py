"""Blockchain voting: one coin per voter, candidate balances as the result.

Implements wallets, single-coin transactions restricted to candidate
addresses, proof-of-stake forging (stake-weighted or uniform over eligible
online nodes), longest-chain fork choice with a deterministic tie-break,
double-spend rejection, a storage estimator, and a seeded round-based
network simulator.  `Chain` replays the ledger: a block is checked by
`Chain.extend(block).is_valid()`, and `forge_block` admits a pool's valid
transactions; each hands its signatures to `zkp.holds` as one list, one
batch on a group that batches.  Transactions are public by design, so
mid-election partial results and voter-to-candidate links exist; the
simulator demonstrates that.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Annotated, Literal

from .canonical import Config, Record, at_least, between, derive_rng, digest, encode
from .errors import NoOnlineNodes, SupplyNotConserved
from .groups import GROUP_PROFILES, GroupName, GroupParams, keygens
from .registry import Signature, sig_statement, sign
from .zkp import holds

GENESIS_TAG = "evote/ballotcoin/genesis"
_DOMAIN_LOTTERY = "evote/ballotcoin/lottery"

COIN_AMOUNT = 1
_FORGER_MODES = ("stake_weighted", "uniform")

_Ledger = tuple[dict[str, int], set[bytes]]  # balances, included tx digests


@dataclass(frozen=True)
class Wallet:
    """A node's public identity; its stake is its balance on the chain."""

    address: str  # lowercase hex digest of the verify key
    verify_key: int


def wallet_address(verify_key: int) -> str:
    return digest(verify_key).hex()


def make_wallets(params: GroupParams, rngs) -> list[tuple[Wallet, int]]:
    """A fresh wallet from each rng in turn, each with its signing key (held
    by the owner, not the chain), from one `groups.keygens` call."""
    return [(Wallet(address=wallet_address(kp.pk), verify_key=kp.pk), kp.sk)
            for kp in keygens(params, rngs)]


@dataclass(frozen=True)
class CoinTransaction(Record):
    sender: str
    recipient: str
    amount: int
    timestamp: int  # round number
    sender_vk: int
    signature: Signature

    def message(self) -> bytes:
        return encode(self.sender, self.recipient, self.amount, self.timestamp)

    def signature_statement(self, params: GroupParams):
        """What `zkp.holds` checks of the signature."""
        return sig_statement(params, self.sender_vk, self.message(), self.signature)


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
class Block(Record):
    height: int
    prev_digest: bytes
    forger: str
    txs: tuple[CoinTransaction, ...]
    forger_signature: Signature | None  # None on the genesis block

    def signed_message(self) -> bytes:
        return encode(self.height, self.prev_digest, self.forger, self.txs)


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

    @cached_property
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
        transactions to `ledger` in place, then its signatures in one list;
        False when the block is invalid."""
        params, vk = self.params, self.forger_keys.get(block.forger)
        return (
            block.height == prev.height + 1
            and block.prev_digest == prev.digest()
            and vk is not None
            and block.forger_signature is not None
            and all(_admit(self, *ledger, tx) for tx in block.txs)
            and all(holds(params, [
                sig_statement(params, vk, block.signed_message(), block.forger_signature),
                *(tx.signature_statement(params) for tx in block.txs),
            ]))
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
    """Check one transaction against a ledger and, when valid, apply it;
    its signature is the caller's to check.

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
    ):
        return False
    balances[tx.sender] -= tx.amount
    balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.amount
    included.add(tx_digest)
    return True


def genesis(
    params: GroupParams, candidates: list[Wallet], voters: list[Wallet],
    forger_keys: dict[str, int] | None = None,
) -> Chain:
    """Genesis chain crediting exactly one coin per eligible voter; the
    allocation is the chain's `genesis_alloc`."""
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
    return Chain(
        params=params,
        genesis_alloc=alloc,
        candidate_names={w.address: w.address for w in candidates},
        forger_keys=forger_keys or {},
        blocks=(block,),
    )


@dataclass
class NodeState:
    node_id: str
    wallet: Wallet
    signing_key: int  # simulation detail: nodes sign their own blocks
    online: bool = True
    eligible: bool = True
    malicious: bool = False


def select_forger(
    nodes: list[NodeState], balances: dict[str, int], mode: str, seed, round_no: int
) -> str:
    """Seeded lottery over eligible nodes; an offline pick is redrawn.

    stake_weighted: probability proportional to the balance of the node's
    address in `balances`, the ledger's coin balances.
    uniform: equal probability per eligible node, `balances` never read.
    """
    if mode not in _FORGER_MODES:
        raise ValueError(f"unknown forger mode {mode!r}")
    eligible = sorted((n for n in nodes if n.eligible), key=lambda n: n.node_id)
    if mode == "stake_weighted":
        eligible = [n for n in eligible if balances.get(n.wallet.address, 0) > 0]
        if not any(n.online for n in eligible):
            raise NoOnlineNodes("no online eligible node with stake")
        weights = [balances[n.wallet.address] for n in eligible]
    else:
        if not any(n.online for n in eligible):
            raise NoOnlineNodes("no online eligible node")
        weights = [1] * len(eligible)
    bounds = list(accumulate(weights))
    attempt = 0
    while True:
        h = int.from_bytes(digest(_DOMAIN_LOTTERY, seed, round_no, attempt), "big")
        picked = eligible[bisect_right(bounds, h % bounds[-1])]
        if picked.online:
            return picked.node_id
        attempt += 1


def forge_block(
    node: NodeState, pool: list[CoinTransaction], chain: Chain
) -> Block:
    """Collect the pool's valid transactions, in pool order, into a block.

    Invalid transactions (double spends included) are excluded, not fatal.
    The pool's signatures go to `holds` as one list, and a transaction whose
    signature fails is excluded before the ledger checks.
    """
    balances, included = chain.balances(), chain.included_tx_digests()
    signed = holds(chain.params, [tx.signature_statement(chain.params) for tx in pool])
    txs = tuple(tx for tx, ok in zip(pool, signed) if ok and _admit(chain, balances, included, tx))
    block = Block(
        height=chain.height + 1,
        prev_digest=chain.tip_digest,
        forger=node.node_id,
        txs=txs,
        forger_signature=None,
    )
    signature = sign(chain.params, node.signing_key, block.signed_message())
    return replace(block, forger_signature=signature)


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


@dataclass(frozen=True)
class SimConfig(Config):
    rounds: Annotated[int, at_least(0)] = 50
    n_voters: Annotated[int, at_least(0)] = 100
    n_candidates: Annotated[int, at_least(1)] = 3
    online_prob: Annotated[float, between(0, 1)] = 1.0
    malicious_fraction: Annotated[float, between(0, 1)] = 0.0
    mode: Literal[_FORGER_MODES] = "stake_weighted"
    vote_prob: Annotated[float, between(0, 1)] = 0.1
    group: GroupName = "test"


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
        return {**asdict(self), "malicious_frequency": self.malicious_frequency}


@dataclass
class SimState:
    """The round number and canonical chain handed to observers mid-run, to
    show that partial results are readable while voting is under way."""

    round_no: int
    canonical: Chain


def simulate(config: SimConfig, seed, observer=None) -> SimReport:
    """Deterministic round loop: churn, select, forge, broadcast, fork choice.

    `observer(SimState)` runs after every round, seeing live chain state.
    Raises `SupplyNotConserved` when a round leaves the canonical balances
    summing to anything but one coin per voter.
    """
    params = GROUP_PROFILES[config.group]
    # A generator, so that each rng is dropped once its key is drawn.
    roles = (("candidate", config.n_candidates), ("voter", config.n_voters))
    rngs = (derive_rng(seed, role, i) for role, n in roles for i in range(n))
    wallets = make_wallets(params, rngs)
    cand_wallets = [(f"cand{i}", w) for i, (w, _) in enumerate(wallets[:config.n_candidates])]
    nodes = [NodeState(node_id=f"node{i:04d}", wallet=w, signing_key=sk)
             for i, (w, sk) in enumerate(wallets[config.n_candidates:])]

    n_malicious = int(round(config.malicious_fraction * config.n_voters))
    mal_rng = derive_rng(seed, "malicious")
    for n in mal_rng.sample(nodes, n_malicious):
        n.malicious = True

    chain = genesis(
        params,
        [w for _, w in cand_wallets],
        [n.wallet for n in nodes],
        forger_keys={n.node_id: n.wallet.verify_key for n in nodes},
    )
    chain = replace(
        chain, candidate_names={w.address: name for name, w in cand_wallets}
    )
    candidate_addrs = [w.address for _, w in cand_wallets]

    # The canonical chain and the chain it extends, kept so that a fork base
    # is never rebuilt by replaying its blocks.
    canonical, parent = chain, None
    balances, included = chain._valid_ledger()
    # Each broadcast digest once, in order: a repeated digest is a
    # byte-identical transaction, which `_admit` would refuse as a replay.
    broadcast: dict[bytes, CoinTransaction] = {}
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
                broadcast.setdefault(tx.digest(), tx)
                voted.add(n.node_id)

        try:
            forger_id = select_forger(nodes, balances, config.mode, seed, r)
        except NoOnlineNodes:
            skipped += 1
        else:
            forger = next(n for n in nodes if n.node_id == forger_id)
            total_selected += 1
            if forger.malicious:
                malicious_selected += 1

            # A malicious forger builds on the tip's parent, manufacturing a
            # same-height fork; honest forgers extend the canonical tip.
            if forger.malicious and parent is not None:
                base = parent
                fork_count += 1
            else:
                base = canonical
            # The pool is every broadcast transaction not yet in the canonical
            # chain, so re-orgs return orphaned votes to the mempool.
            pool = [tx for tx_digest, tx in broadcast.items() if tx_digest not in included]
            block = forge_block(forger, pool, base)
            new_chain = base.extend(block)

            # Every other chain forged so far is shorter than the canonical one,
            # or as long with a larger tip digest, so only these two can win.
            if fork_choice([canonical, new_chain]) is new_chain:
                canonical, parent = new_chain, base
            balances, included = canonical._valid_ledger()
            supply = sum(balances.values())
            if supply != config.n_voters:
                raise SupplyNotConserved(f"round {r}: {supply} coins, not {config.n_voters}")

        if observer is not None:
            observer(SimState(round_no=r, canonical=canonical))

    return SimReport(
        final_tally=tally_chain(canonical),
        fork_count=fork_count,
        total_selected=total_selected,
        malicious_selected=malicious_selected,
        skipped_rounds=skipped,
        chain_height=canonical.height,
        txs_included=len(included),
        rounds=config.rounds,
        mode=config.mode,
    )
