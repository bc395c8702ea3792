from dataclasses import replace

import pytest

from evote.ballotcoin import (
    Block,
    NodeState,
    Wallet,
    SimConfig,
    estimate_storage,
    forge_block,
    fork_choice,
    genesis,
    make_transaction,
    make_wallet,
    select_forger,
    simulate,
    tally_chain,
    validate_block,
    validate_tx,
    wallet_address,
)
from evote.canonical import derive_rng, digest
from evote.errors import NoOnlineNodes
from evote.registry import sign


def _wallet(grp, sk: int, is_candidate: bool = False) -> Wallet:
    vk = pow(grp.g, sk, grp.p)
    return Wallet(address=wallet_address(vk), verify_key=vk, is_candidate=is_candidate)


@pytest.fixture
def net(grp):
    """3 candidates, 5 voters, nodes holding the voter wallets.

    Signing keys are fixed and distinct so addresses never collide; random
    keygen in the tiny test group would alias wallets and break the
    balance arithmetic these tests pin down.
    """
    cands = [_wallet(grp, sk, is_candidate=True) for sk in (1, 2, 3)]
    keys = [4, 5, 6, 7, 8]
    voters = [_wallet(grp, sk) for sk in keys]
    nodes = [
        NodeState(node_id=f"n{i}", wallet=w, signing_key=sk)
        for i, (w, sk) in enumerate(zip(voters, keys))
    ]
    chain, alloc = genesis(
        grp, cands, voters, forger_keys={n.node_id: n.wallet.verify_key for n in nodes}
    )
    names = {w.address: f"cand{i}" for i, w in enumerate(cands)}
    chain = replace(chain, candidate_names=names)
    return chain, cands, voters, keys, nodes


def test_wallet_address_is_hex_digest_of_key(grp):
    w, _ = make_wallet(grp, derive_rng("addr"))
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
    assert validate_tx(chain, [], tx)
    block = forge_block(nodes[0], [tx], chain)
    assert tx in block.txs
    assert validate_block(chain, block)


def test_transfer_to_non_candidate_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], voters[1].address, 1)
    assert not validate_tx(chain, [], tx)


def test_double_spend_rejected_against_chain(grp, net):
    chain, cands, voters, keys, nodes = net
    spend = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    block = forge_block(nodes[0], [spend], chain)
    extended = chain.extend(block)
    assert extended.is_valid()
    again = make_transaction(grp, keys[0], voters[0], cands[1].address, 2)
    assert not validate_tx(extended, [], again)
    # an honest forger drops it too
    assert again not in forge_block(nodes[1], [again], extended).txs


def test_double_spend_rejected_against_pool(grp, net):
    chain, cands, voters, keys, nodes = net
    first = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    second = make_transaction(grp, keys[0], voters[0], cands[1].address, 1)
    assert validate_tx(chain, [], first)
    assert not validate_tx(chain, [first], second)


def test_replayed_transaction_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    extended = chain.extend(forge_block(nodes[0], [tx], chain))
    assert not validate_tx(extended, [], tx)
    assert not validate_tx(chain, [tx], tx)


def test_wrong_amount_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    doubled = replace(tx, amount=2)
    assert not validate_tx(chain, [], doubled)


def test_mismatched_sender_key_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    tx = make_transaction(grp, keys[0], voters[0], cands[0].address, 1)
    masked = replace(tx, sender=voters[1].address)
    assert not validate_tx(chain, [], masked)


def test_forged_signature_rejected(grp, net):
    chain, cands, voters, keys, nodes = net
    stolen = make_transaction(grp, keys[1], voters[0], cands[0].address, 1)
    # address and vk are consistent, but the signature came from another key
    assert wallet_address(stolen.sender_vk) == stolen.sender
    assert not validate_tx(chain, [], stolen)


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


def test_validate_tx_skips_invalid_pool_entries_like_forge_block(grp, net):
    chain, cands, voters, keys, nodes = net
    # voter 0's coin, first claimed under a signature from another key
    forged = make_transaction(grp, keys[1], voters[0], cands[0].address, 1)
    good = make_transaction(grp, keys[0], voters[0], cands[1].address, 1)
    pool = [forged, good]
    block = forge_block(nodes[2], pool, chain)
    assert block.txs == (good,)
    for i, tx in enumerate(pool):
        assert validate_tx(chain, pool[:i], tx) == (tx in block.txs)


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
    assert not validate_block(bad, replace(unsigned, forger_signature=signature))


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
    nodes = []
    for i, stake in enumerate(stakes):
        w = _wallet(grp, i + 1)
        w.balance = stake
        nodes.append(NodeState(node_id=f"n{i:03d}", wallet=w, signing_key=i + 1))
    return nodes


def test_stake_lottery_prefers_stake(grp):
    nodes = _nodes_with_stake(grp, [1, 99])
    wins = sum(
        1 for r in range(2000) if select_forger(nodes, "stake_weighted", "s", r) == "n001"
    )
    assert wins > 1800


def test_zero_stake_never_selected(grp):
    nodes = _nodes_with_stake(grp, [0, 5])
    for r in range(50):
        assert select_forger(nodes, "stake_weighted", "z", r) == "n001"


def test_uniform_lottery_ignores_stake(grp):
    nodes = _nodes_with_stake(grp, [1, 999])
    wins = sum(1 for r in range(2000) if select_forger(nodes, "uniform", "u", r) == "n000")
    assert 800 < wins < 1200


def test_offline_node_redrawn(grp):
    nodes = _nodes_with_stake(grp, [50, 50])
    nodes[0].online = False
    for r in range(50):
        assert select_forger(nodes, "stake_weighted", "off", r) == "n001"


def test_all_offline_raises(grp):
    nodes = _nodes_with_stake(grp, [50, 50])
    for n in nodes:
        n.online = False
    with pytest.raises(NoOnlineNodes):
        select_forger(nodes, "stake_weighted", "dead", 0)
    with pytest.raises(NoOnlineNodes):
        select_forger(nodes, "uniform", "dead", 0)


def test_ineligible_node_excluded(grp):
    nodes = _nodes_with_stake(grp, [50, 50])
    nodes[0].eligible = False
    for r in range(20):
        assert select_forger(nodes, "uniform", "inel", r) == "n001"


def test_lottery_is_deterministic(grp):
    nodes = _nodes_with_stake(grp, [10, 20, 30])
    a = [select_forger(nodes, "stake_weighted", 42, r) for r in range(30)]
    b = [select_forger(nodes, "stake_weighted", 42, r) for r in range(30)]
    assert a == b


def test_unknown_mode_rejected(grp):
    nodes = _nodes_with_stake(grp, [10])
    with pytest.raises(ValueError):
        select_forger(nodes, "proof_of_work", "x", 0)


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
