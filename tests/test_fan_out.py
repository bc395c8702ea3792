"""`groups.fan_out` shares independent jobs out across the host's CPUs.

It must give the serial map's results, in order, and raise where the serial
map raises; the tally must write the same board on one CPU and on all of
them; no child may outlive a call or fork again; and the test group, which
a fork would only slow down, keeps the serial map.
"""

import json
import os

import pytest

from evote import bulletin, cli, groups, tally
from evote.groups import PROD_GROUP_3072, TEST_GROUP, Ciphertext, fan_out

PROD = PROD_GROUP_3072


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pid of each process that calls `os.fork` from now on, as seen in
    the process that calls it."""
    called = []
    fork = os.fork

    def spy():
        called.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return called


def _job(i):
    """A result of every kind that comes back from a child."""
    return [i, -i, str(i), bytes([i]), None, (Ciphertext(i, PROD.p - i),)]


@pytest.mark.parametrize("cpus", [None, 3], ids=["host", "three"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_fan_out_is_the_serial_map_in_order(monkeypatch, forks, cpus, n):
    """0 to 3 jobs, and more jobs than CPUs, on the host's CPUs and on three
    (two children)."""
    if cpus is not None:
        monkeypatch.setattr(groups, "_cpus", lambda: cpus)
    width = min(cpus or groups._cpus(), n)
    jobs = [(i,) for i in range(n)]
    assert fan_out(PROD, _job, jobs) == [_job(i) for i in range(n)]
    assert len(forks) == (width - 1 if width > 1 else 0)
    _assert_no_children()


def test_a_job_that_raises_in_a_child_raises_from_the_parent(monkeypatch):
    """Two CPUs: jobs 1 and 3 run in the child, 0 and 2 in the parent.  The
    serial map raises at job 1 first, so ValueError, not job 2's KeyError."""
    monkeypatch.setattr(groups, "_cpus", lambda: 2)

    def job(i):
        if i == 1:
            raise ValueError("job 1")
        if i == 2:
            raise KeyError("job 2")
        return i

    with pytest.raises(ValueError, match="job 1"):
        fan_out(PROD, job, [(i,) for i in range(4)])
    _assert_no_children()


def test_no_child_is_left_when_the_parents_share_raises(monkeypatch):
    monkeypatch.setattr(groups, "_cpus", lambda: 2)

    def job(i):
        if i == 0:
            raise ArithmeticError("the parent's first job")
        return i

    with pytest.raises(ArithmeticError):
        fan_out(PROD, job, [(i,) for i in range(4)])
    _assert_no_children()


@pytest.mark.skipif(groups._cpus() < 2, reason="one CPU: nothing forks")
def test_a_child_does_not_fork_again():
    """A child pins itself to one CPU, so a `fan_out` inside its job runs
    serially: every pid that one sees is the child's own."""
    inner = [(), (), ()]
    _, child = fan_out(PROD, lambda: set(fan_out(PROD, os.getpid, inner)), [(), ()])
    assert len(child) == 1 and child != {os.getpid()}
    _assert_no_children()


def test_the_test_group_never_forks(forks, tallied):
    election, _ = tallied
    assert fan_out(TEST_GROUP, _job, [(i,) for i in range(5)]) == [_job(i) for i in range(5)]
    tally.run_tally(
        election.params, election.config, election.collected, election.trustees,
        election.election_key, bulletin.Board(), election.seed,
    )
    assert forks == []


def test_a_prod_tally_leaves_no_child(prod_election, forks):
    election = prod_election
    result = tally.run_tally(
        election.params, election.config, election.collected, election.trustees,
        election.election_key, bulletin.Board(), election.seed,
    )
    assert result.counts == election.result.counts
    assert forks and set(forks) == {os.getpid()}
    _assert_no_children()


def _run(tmp_path, name):
    """`evote run --seed 1` of 2 voters on prod3072; its output directory."""
    config, scenario = tmp_path / "config.json", tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "candidates": ["alice", "bob"], "trustee_count": 2, "mix_server_count": 2,
        "proof_rounds": 4, "group": "prod3072",
    }))
    scenario.write_text(json.dumps({
        "voters": ["v1", "v2"],
        "votes": [{"voter": "v1", "candidate": 0, "time": 1},
                  {"voter": "v2", "candidate": 1, "time": 2}],
    }))
    out = tmp_path / name
    argv = ["run", "--config", str(config), "--scenario", str(scenario), "--seed", "1"]
    assert cli.main(argv + ["--out-dir", str(out)]) == cli.EXIT_OK
    return out


def test_a_prod_run_writes_the_same_board_on_one_cpu_and_on_all(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(groups, "_cpus", lambda: 1)
        one = _run(tmp_path, "one")
    every = _run(tmp_path, "every")
    assert (one / "board.jsonl").read_bytes() == (every / "board.jsonl").read_bytes()
    _assert_no_children()


def test_no_child_of_a_prod_run_builds_a_g_or_election_key_table(tmp_path, monkeypatch):
    """Each comb table a child builds is logged by base; none is g's or the
    election key's, whose tables the parent has built before it forks."""
    log = tmp_path / "child_tables.log"
    parent, build = os.getpid(), groups._Comb.__init__

    def logged(comb, p, base, cols):
        if os.getpid() != parent:
            with open(log, "a") as file:
                file.write(f"{base}\n")
        build(comb, p, base, cols)

    monkeypatch.setattr(groups._Comb, "__init__", logged)
    groups._comb.cache_clear()
    out = _run(tmp_path, "run")
    params = json.loads((out / "params.json").read_text())
    child_bases = set(map(int, log.read_text().split())) if log.exists() else set()
    assert child_bases.isdisjoint({PROD.g, int(params["election_pk"])})
