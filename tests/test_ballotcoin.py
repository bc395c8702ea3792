import functools
import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evote import ballotcoin, zkp
from evote.ballotcoin import (
    Block,
    Chain,
    NodeState,
    Wallet,
    SimConfig,
    estimate_storage,
    forge_block,
    fork_choice,
    genesis,
    make_transaction,
    make_wallets,
    select_forger,
    simulate,
    tally_chain,
    wallet_address,
)
from evote.canonical import derive_rng, digest
from evote.errors import NoOnlineNodes, SupplyNotConserved
from evote.registry import sig_statement, sign
from test_ballot_batch import PROFILES, TAMPERS, _alone, _tampered


def _wallet(grp, sk: int) -> Wallet:
    vk = pow(grp.g, sk, grp.p)
    return Wallet(address=wallet_address(vk), verify_key=vk)


@pytest.fixture
def net(grp):
    """3 candidates, 5 voters, nodes holding the voter wallets.

    Signing keys are fixed and distinct so addresses never collide; random
    keygen in the tiny test group would alias wallets and break the
    balance arithmetic these tests pin down.
    """
    cands = [_wallet(grp, sk) for sk in (1, 2, 3)]
    keys = [4, 5, 6, 7, 8]
    voters = [_wallet(grp, sk) for sk in keys]
    nodes = [
        NodeState(node_id=f"n{i}", wallet=w, signing_key=sk)
        for i, (w, sk) in enumerate(zip(voters, keys))
    ]
    chain = genesis(
        grp, cands, voters, forger_keys={n.node_id: n.wallet.verify_key for n in nodes}
    )
    names = {w.address: f"cand{i}" for i, w in enumerate(cands)}
    chain = replace(chain, candidate_names=names)
    return chain, cands, voters, keys, nodes


def test_wallet_address_is_hex_digest_of_key(grp):
    [(w, _)] = make_wallets(grp, [derive_rng("addr")])
    assert w.address == digest(w.verify_key).hex()
    assert len(w.address) == 64


def test_genesis_allocates_one_coin_per_voter(net):
    chain, cands, voters, _, _ = net
    balances = chain.balances()
    assert sum(balances.values()) == len(voters)
    for w in voters:
        assert balances[w.address] == 1
    for c in cands:
        assert balances[c.address] == 0


def test_genesis_chain_is_valid(net):
    chain, *_ = net
    assert chain.is_valid()


def test_vote_transaction_accepted(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[1].address, 1)
    block = forge_block(nodes[0], [tx], chain)
    assert block.txs == (tx,)
    assert chain.extend(block).is_valid()


def test_transfer_to_non_candidate_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], voters[1].address, 1)
    assert forge_block(nodes[0], [tx], chain).txs == ()


def test_double_spend_rejected_against_chain(grp, net):
    chain, cands, voters, keys, nodes = net
    spend = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    block = forge_block(nodes[0], [spend], chain)
    extended = chain.extend(block)
    assert extended.is_valid()
    again = make_transaction(grp, keys[0], voters[0], cands[1].address, 2)
    assert forge_block(nodes[1], [again], extended).txs == ()


def test_double_spend_rejected_against_pool(grp, net):
    chain, cands, voters, keys, nodes = net
    first = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    second = make_transaction(grp, keys[0], voters[0], cands[1].address, 1)
    assert forge_block(nodes[0], [first], chain).txs == (first,)
    assert forge_block(nodes[0], [first, second], chain).txs == (first,)


def test_replayed_transaction_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    extended = chain.extend(forge_block(nodes[0], [tx], chain))
    assert forge_block(nodes[1], [tx], extended).txs == ()
    assert forge_block(nodes[0], [tx, tx], chain).txs == (tx,)


def test_wrong_amount_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    doubled = replace(tx, amount=2)
    assert forge_block(nodes[0], [doubled], chain).txs == ()


def test_mismatched_sender_key_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    masked = replace(tx, sender=voters[1].address)
    assert forge_block(nodes[0], [masked], chain).txs == ()


def _block_of(node, chain, txs):
    """A block of `txs` as they are, on top of `chain`, signed by `node`."""
    block = replace(forge_block(node, [], chain), txs=tuple(txs))
    signature = sign(chain.params, node.signing_key, block.signed_message())
    return replace(block, forger_signature=signature)


def test_forged_signature_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    stolen = make_transaction(grp, keys[1], voters[0], cands[0].address, 1)
    # address and vk are consistent, but the signature came from another key
    assert wallet_address(stolen.sender_vk) == stolen.sender
    assert forge_block(nodes[0], [stolen], chain).txs == ()
    assert not chain.extend(_block_of(nodes[0], chain, [stolen])).is_valid()


@functools.cache
def _voting(name):
    """On the named group: a chain of 2 candidates and 4 voters, the voters'
    nodes, and one vote per voter, for candidates 0, 1, 0, 1."""
    params = PROFILES[name]
    rngs = [derive_rng("coin-batch", name, "cand", i) for i in range(2)]
    rngs += [derive_rng("coin-batch", name, "voter", i) for i in range(4)]
    wallets = make_wallets(params, rngs)
    cands = [w for w, _ in wallets[:2]]
    nodes = [NodeState(node_id=f"n{i}", wallet=w, signing_key=sk)
             for i, (w, sk) in enumerate(wallets[2:])]
    chain = genesis(
        params, cands, [n.wallet for n in nodes],
        forger_keys={n.node_id: n.wallet.verify_key for n in nodes},
    )
    votes = [
        make_transaction(params, n.signing_key, n.wallet, cands[i % 2].address, 1)
        for i, n in enumerate(nodes)
    ]
    return chain, cands, nodes, votes


def test_prod_block_with_one_bad_signature_is_refused():
    """On prod3072 a block's signatures are one batch.  A block holding one
    badly signed vote among four is invalid; `forge_block` leaves that vote
    out, keeps the other three, and lets its sender's coin go to a later,
    well-signed vote."""
    chain, cands, nodes, votes = _voting("prod3072")
    params = chain.params
    assert params.batches and len({n.wallet.address for n in nodes}) == 4
    sig = votes[2].signature
    bad = replace(votes[2], signature=replace(sig, response=(sig.response + 1) % params.q))
    assert chain.extend(_block_of(nodes[0], chain, votes)).is_valid()
    assert not chain.extend(_block_of(nodes[0], chain, [*votes[:2], bad, votes[3]])).is_valid()

    block = forge_block(nodes[0], [*votes[:2], bad, votes[3]], chain)
    assert block.txs == (*votes[:2], votes[3])
    assert chain.extend(block).is_valid()
    other = make_transaction(params, nodes[2].signing_key, nodes[2].wallet, cands[1].address, 2)
    block = forge_block(nodes[0], [*votes[:2], bad, other, votes[3]], chain)
    assert block.txs == (*votes[:2], other, votes[3])


@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=max(4, settings().max_examples // 25), deadline=None)
@given(data=st.data())
def test_batched_block_check_matches_the_per_signature_check(name, data):
    """The forger's and each vote's signature statement of a block, each
    honest or edited as in `test_ballot_batch`, handed to `holds` as one
    list, as `Chain.extend` does: each verdict is the one that checking the
    statement alone gives.  A negated value, the verify key, leaves the
    subgroup and holds when its challenge is even."""
    chain, _, nodes, votes = _voting(name)
    params = chain.params
    block = _block_of(nodes[0], chain, votes)
    forger = sig_statement(
        params, nodes[0].wallet.verify_key, block.signed_message(), block.forger_signature
    )
    statements = [
        _tampered(params, s, data.draw(st.sampled_from(TAMPERS)))
        for s in [forger, *(tx.signature_statement(params) for tx in block.txs)]
    ]
    assert zkp.holds(params, statements) == _alone(params, statements)


def test_chain_rejects_broken_prev_link(grp, net):
    chain, cands, voters, keys, nodes = net
    block = forge_block(nodes[0], [], chain)
    broken = replace(block, prev_digest=digest("wrong"))
    assert not chain.extend(broken).is_valid()


def test_chain_rejects_unsigned_block(grp, net):
    chain, cands, voters, keys, nodes = net
    block = forge_block(nodes[0], [], chain)
    assert not chain.extend(replace(block, forger_signature=None)).is_valid()


def test_chain_rejects_unknown_forger(grp, net):
    chain, cands, voters, keys, nodes = net
    block = forge_block(nodes[0], [], chain)
    assert not chain.extend(replace(block, forger="nobody")).is_valid()


def test_chain_rejects_resigned_content_change(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    block = forge_block(nodes[0], [tx], chain)
    stripped = replace(block, txs=())  # signature no longer matches
    assert not chain.extend(stripped).is_valid()


def test_forge_block_skips_invalid_pool_entries(grp, net):
    chain, cands, voters, keys, nodes = net
    # voter 0's coin, first claimed under a signature from another key
    forged = make_transaction(grp, keys[1], voters[0], cands[0].address, 1)
    good = make_transaction(grp, keys[0], voters[0], cands[1].address, 1)
    pool = [forged, good]
    block = forge_block(nodes[2], pool, chain)
    assert block.txs == (good,)
    # Each prefix of the pool admits what the whole pool admits of it.
    for i, tx in enumerate(pool):
        assert (tx in forge_block(nodes[2], pool[: i + 1], chain).txs) == (tx in block.txs)


def test_chain_built_from_a_block_tuple_is_replayed(grp, net):
    chain, cands, voters, keys, nodes = net
    grown = chain
    for i in range(4):
        tx = make_transaction(grp, keys[i], voters[i], cands[i % 3].address, 1)
        grown = grown.extend(forge_block(nodes[i], [tx], grown))
    cold = replace(chain, blocks=grown.blocks)
    assert cold.is_valid()
    assert cold.balances() == grown.balances()
    assert cold.included_tx_digests() == grown.included_tx_digests()

    # Re-sign the last block around another transaction.  A payable one
    # keeps the chain valid; voter 0 spending a second time does not, and
    # only the replayed ledger can tell the two apart.
    def resigned_tip(tx):
        unsigned = replace(grown.blocks[-1], txs=(tx,))
        signature = sign(grp, keys[3], unsigned.signed_message())
        blocks = grown.blocks[:-1] + (replace(unsigned, forger_signature=signature),)
        return replace(chain, blocks=blocks)

    payable = make_transaction(grp, keys[4], voters[4], cands[0].address, 2)
    assert resigned_tip(payable).is_valid()
    again = make_transaction(grp, keys[0], voters[0], cands[2].address, 2)
    tampered = resigned_tip(again)
    assert not tampered.is_valid()
    with pytest.raises(ValueError):
        tampered.balances()


def test_invalid_chain_has_no_balances(grp, net):
    chain, _, _, _, nodes = net
    block = forge_block(nodes[0], [], chain)
    bad = chain.extend(replace(block, forger_signature=None))
    assert not bad.is_valid()
    with pytest.raises(ValueError):
        bad.balances()
    with pytest.raises(ValueError):
        tally_chain(bad)
    with pytest.raises(ValueError):
        forge_block(nodes[1], [], bad)
    # a well-formed, signed block on top does not make it valid again
    unsigned = Block(
        height=2, prev_digest=bad.tip_digest, forger=nodes[1].node_id, txs=(),
        forger_signature=None,
    )
    signature = sign(grp, nodes[1].signing_key, unsigned.signed_message())
    assert not bad.extend(replace(unsigned, forger_signature=signature)).is_valid()


# --- fork choice ---

def _grow(chain, nodes, height):
    out = chain
    for i in range(height):
        out = out.extend(forge_block(nodes[i % len(nodes)], [], out))
    return out


def test_longest_chain_wins(net):
    chain, _, _, _, nodes = net
    short = _grow(chain, nodes, 3)
    long = _grow(chain, nodes[1:], 5)
    assert fork_choice([short, long]) is long
    assert fork_choice([long, short]) is long


def test_tie_breaks_deterministically(net):
    chain, _, _, _, nodes = net
    a = _grow(chain, nodes, 3)
    b = _grow(chain, nodes[1:], 3)
    winners = {id(fork_choice([a, b])) for _ in range(10)}
    winners |= {id(fork_choice([b, a])) for _ in range(10)}
    assert len(winners) == 1
    expected = a if a.tip_digest < b.tip_digest else b
    assert fork_choice([a, b]) is expected


def test_invalid_chains_ignored(net):
    chain, _, _, _, nodes = net
    good = _grow(chain, nodes, 2)
    block = forge_block(nodes[0], [], good)
    bad = good.extend(replace(block, forger_signature=None))
    assert fork_choice([bad, good]) is good
    with pytest.raises(ValueError):
        fork_choice([bad])


# --- forger lottery ---

def _nodes_with_stake(grp, stakes):
    nodes, balances = [], {}
    for i, stake in enumerate(stakes):
        w = _wallet(grp, i + 1)
        balances[w.address] = stake
        nodes.append(NodeState(node_id=f"n{i:03d}", wallet=w, signing_key=i + 1))
    return nodes, balances


def test_stake_lottery_prefers_stake(grp):
    nodes, balances = _nodes_with_stake(grp, [1, 99])
    wins = sum(
        1
        for r in range(2000)
        if select_forger(nodes, balances, "stake_weighted", "s", r) == "n001"
    )
    assert wins > 1800


def test_zero_stake_never_selected(grp):
    nodes, balances = _nodes_with_stake(grp, [0, 5])
    for r in range(50):
        assert select_forger(nodes, balances, "stake_weighted", "z", r) == "n001"


def test_uniform_lottery_ignores_stake(grp):
    nodes, balances = _nodes_with_stake(grp, [1, 999])
    wins = sum(
        1 for r in range(2000) if select_forger(nodes, balances, "uniform", "u", r) == "n000"
    )
    assert 800 < wins < 1200


def test_offline_node_redrawn(grp):
    nodes, balances = _nodes_with_stake(grp, [50, 50])
    nodes[0].online = False
    for r in range(50):
        assert select_forger(nodes, balances, "stake_weighted", "off", r) == "n001"


def test_all_offline_raises(grp):
    nodes, balances = _nodes_with_stake(grp, [50, 50])
    for n in nodes:
        n.online = False
    with pytest.raises(NoOnlineNodes):
        select_forger(nodes, balances, "stake_weighted", "dead", 0)
    with pytest.raises(NoOnlineNodes):
        select_forger(nodes, balances, "uniform", "dead", 0)


def test_ineligible_node_excluded(grp):
    nodes, balances = _nodes_with_stake(grp, [50, 50])
    nodes[0].eligible = False
    for r in range(20):
        assert select_forger(nodes, balances, "uniform", "inel", r) == "n001"


def test_lottery_is_deterministic(grp):
    nodes, balances = _nodes_with_stake(grp, [10, 20, 30])
    a = [select_forger(nodes, balances, "stake_weighted", 42, r) for r in range(30)]
    b = [select_forger(nodes, balances, "stake_weighted", 42, r) for r in range(30)]
    assert a == b


def test_unknown_mode_rejected(grp):
    nodes, balances = _nodes_with_stake(grp, [10])
    with pytest.raises(ValueError):
        select_forger(nodes, balances, "proof_of_work", "x", 0)


# --- tallying and storage ---

def test_tally_chain_counts_candidate_balances(grp, net):
    chain, cands, voters, keys, nodes = net
    tx0 = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    tx1 = make_transaction(grp, keys[1], voters[1], cands[0].address, 1)
    tx2 = make_transaction(grp, keys[2], voters[2], cands[2].address, 1)
    chain = chain.extend(forge_block(nodes[0], [tx0, tx1, tx2], chain))
    assert tally_chain(chain) == {"cand0": 2, "cand1": 0, "cand2": 1}


def test_storage_estimate_oracle():
    est = estimate_storage(176329, 200)
    assert est.total_bytes == 35_265_800
    assert round(est.mib, 1) == 33.6


def test_storage_estimate_small():
    est = estimate_storage(10, 100)
    assert est.total_bytes == 1000
    assert est.mib == pytest.approx(1000 / (1024 * 1024))


# --- simulation ---

def test_simulation_is_deterministic():
    config = SimConfig(rounds=12, n_voters=15, n_candidates=3, vote_prob=0.3)
    a = simulate(config, seed=8)
    b = simulate(config, seed=8)
    assert a.to_dict() == b.to_dict()
    c = simulate(config, seed=9)
    assert a.to_dict() != c.to_dict()


def test_simulation_all_online_never_skips():
    # vote_prob 0 keeps every stake intact, so a forger always exists
    config = SimConfig(
        rounds=10, n_voters=10, n_candidates=2, online_prob=1.0, vote_prob=0.0
    )
    report = simulate(config, seed=1)
    assert report.skipped_rounds == 0
    assert report.total_selected == 10
    assert report.chain_height == 10


def test_simulation_skips_every_round_with_no_node_online():
    config = SimConfig(rounds=6, n_voters=10, n_candidates=2, online_prob=0.0)
    report = simulate(config, seed=1)
    assert report.skipped_rounds == 6
    assert report.total_selected == 0
    assert report.chain_height == 0
    assert report.malicious_frequency == 0.0
    assert report.txs_included == 0


def test_simulation_observer_runs_after_a_skipped_round_too():
    config = SimConfig(rounds=6, n_voters=10, n_candidates=2, online_prob=0.0)
    rounds = []
    simulate(config, seed=1, observer=lambda state: rounds.append(state.round_no))
    assert rounds == list(range(6))


def test_simulation_votes_land_in_tally():
    config = SimConfig(rounds=30, n_voters=20, n_candidates=3, vote_prob=0.5)
    report = simulate(config, seed=2)
    assert sum(report.final_tally.values()) > 0
    assert report.txs_included > 0


def test_simulation_observer_sees_partial_results():
    # uniform mode keeps forging alive after stakes drain to candidates
    config = SimConfig(
        rounds=20, n_voters=20, n_candidates=2, vote_prob=0.5, mode="uniform"
    )
    snapshots = []
    simulate(config, seed=3, observer=lambda s: snapshots.append(tally_chain(s.canonical)))
    assert len(snapshots) == 20
    # mid-run tallies are nonzero before the end: fairness is broken by design
    assert any(sum(t.values()) > 0 for t in snapshots[:-1])


def test_simulation_malicious_forgers_fork():
    config = SimConfig(
        rounds=40, n_voters=20, n_candidates=2, malicious_fraction=0.3, vote_prob=0.3
    )
    report = simulate(config, seed=4)
    assert report.malicious_selected > 0
    assert report.fork_count > 0
    assert report.malicious_frequency == report.malicious_selected / report.total_selected


def test_sim_config_round_trip():
    config = SimConfig(rounds=5, n_voters=7, n_candidates=2, mode="uniform")
    assert SimConfig.from_dict(config.to_dict()) == config


def test_simulation_with_forks_conserves_supply():
    config = SimConfig(
        rounds=40, n_voters=20, n_candidates=2, malicious_fraction=0.3, vote_prob=0.3
    )
    supplies = []

    def observer(state):
        supplies.append(sum(state.canonical.balances().values()))

    report = simulate(config, seed=4, observer=observer)
    assert report.fork_count > 0
    assert supplies == [config.n_voters] * config.rounds


FORKING_CONFIG = SimConfig(
    rounds=30, n_voters=40, n_candidates=3, malicious_fraction=0.25, vote_prob=0.2
)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# A forked chain starts from the chain its fork point already is, so no
# block is checked twice: one block check per forged block.
def test_simulation_checks_each_forged_block_once(monkeypatch):
    applied = _counting(monkeypatch, Chain, "_apply")
    report = simulate(FORKING_CONFIG, seed=7)
    assert report.fork_count == 7
    assert len(applied) == report.total_selected == 30


# Signature checks in the same simulation: 30 forged blocks, each checked
# once, holding 58 transactions, each checked twice (while forging, then in
# the block check).  Each is one statement handed to `holds`.
def test_simulation_signature_checks_are_pinned(monkeypatch):
    checked = []
    real = ballotcoin.holds

    def counting(params, statements):
        checked.extend(statements)
        return real(params, statements)

    monkeypatch.setattr(ballotcoin, "holds", counting)
    simulate(FORKING_CONFIG, seed=7)
    assert len(checked) == 146


def test_simulation_raises_when_supply_is_not_conserved(monkeypatch):
    real_admit = ballotcoin._admit

    def credit_without_debit(chain, balances, included, tx):
        admitted = real_admit(chain, balances, included, tx)
        if admitted:
            balances[tx.sender] += tx.amount
        return admitted

    monkeypatch.setattr(ballotcoin, "_admit", credit_without_debit)
    with pytest.raises(SupplyNotConserved, match="coins, not 40"):
        simulate(FORKING_CONFIG, seed=7)


# sha256 of the sorted-key JSON of the SimReports of five seeds of the
# coin-forks benchmark shape (100 voters x 20 rounds, 20% malicious).
def test_coin_forks_reports_are_pinned():
    config = SimConfig(rounds=20, n_voters=100, n_candidates=3, malicious_fraction=0.2)
    reports = json.dumps([simulate(config, seed).to_dict() for seed in range(5)], sort_keys=True)
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "e06a20e8860c59d5f447d0e1d2ab214a3f887fe0b0f842a7eb8da5657063a78c"
    )


# sha256 of the concatenated Block.to_bytes() of the final canonical chain of
# one seeded simulation with malicious forgers, so a change to the block or
# transaction encoding shows here.
def test_simulated_chain_bytes_are_pinned():
    config = SimConfig(
        rounds=30, n_voters=40, n_candidates=3, malicious_fraction=0.25, vote_prob=0.2
    )
    canonical = []
    report = simulate(config, seed=7, observer=lambda state: canonical.append(state.canonical))
    chain = canonical[-1]
    assert (report.fork_count, chain.height, report.txs_included) == (7, 23, 37)
    assert hashlib.sha256(b"".join(b.to_bytes() for b in chain.blocks)).hexdigest() == (
        "7df6b601965a287c4756eef10f73723ef22ae93ff79954fa366f9a276c3b9ce6"
    )
