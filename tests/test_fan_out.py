"""`groups.fan_out` shares independent jobs out across the host's CPUs.

It must give the serial map's results, in order, and raise where the serial
map raises; a ballot's compose and cast check, the tally and a BallotCoin
simulation must give the same bytes, verdicts and reports on one CPU and
on all of them; no child may outlive a call, fork again or build a table
of g or the election key; and the test group, which a fork would only slow
down, keeps the serial map.
"""

import errno
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import evote
from evote import ballotcoin, bulletin, cli, groups, tally
from evote.ballot import compose_ballot, encode_choice
from evote.canonical import derive_rng
from evote.groups import PROD_GROUP_3072, TEST_GROUP, Ciphertext, fan_out
from evote.tally import Election, ElectionConfig
from test_ballot_batch import EDITS, _resigned

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
    return [
        i, -i, str(i), bytes([i]), None, (Ciphertext(i, PROD.p - i),),
        {"ct": Ciphertext(PROD.p - i, i), "i": i}, frozenset((i, -i)),
    ]


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


def test_the_parent_runs_only_its_own_stripe(monkeypatch):
    """Two CPUs, four jobs: the child sends back jobs 1 and 3, every result
    kind included, so the parent calls the job for 0 and 2 alone."""
    monkeypatch.setattr(groups, "_cpus", lambda: 2)
    parent, called = os.getpid(), []

    def job(i):
        if os.getpid() == parent:
            called.append(i)
        return _job(i)

    assert fan_out(PROD, job, [(i,) for i in range(4)]) == [_job(i) for i in range(4)]
    assert called == [0, 2]
    _assert_no_children()


@pytest.mark.parametrize("call", ["fork", "pipe"])
@pytest.mark.parametrize(
    "cpus, failing", [(2, 1), (3, 1), (3, 2)],
    ids=["first-of-two", "first-of-three", "second-of-three"],
)
def test_a_failed_fork_leaves_its_share_to_the_parent(monkeypatch, call, cpus, failing):
    """`os.fork` or `os.pipe` fails, as under a process limit, on its first
    call of two or three CPUs or its second of three: no later child
    starts, and the parent runs every share that has none."""
    monkeypatch.setattr(groups, "_cpus", lambda: cpus)
    calls, real = [], getattr(os, call)

    def flaky():
        calls.append(call)
        if len(calls) == failing:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, call, flaky)
    assert fan_out(PROD, _job, [(i,) for i in range(7)]) == [_job(i) for i in range(7)]
    assert len(calls) == failing
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


def test_a_prod_tally_leaves_no_child(prod_election, forks, monkeypatch):
    """On every CPU, and on two where the process may use one only."""
    host = groups._cpus()
    monkeypatch.setattr(groups, "_cpus", lambda: max(host, 2))
    election = prod_election
    result = tally.run_tally(
        election.params, election.config, election.collected, election.trustees,
        election.election_key, bulletin.Board(), election.seed,
    )
    assert result.counts == election.result.counts
    assert forks and set(forks) == {os.getpid()}
    _assert_no_children()


@pytest.fixture(scope="module")
def open_prod(prod_election):
    """prod_election's setup again, open for casting, with the credentials."""
    return Election.setup(prod_election.config, ["v1", "v2"], seed=prod_election.seed)


def _compose(election, creds):
    """v1's ballot for candidate 1 of 2, from a fixed seed."""
    return compose_ballot(
        election.params, creds["v1"], election.election_key.h, encode_choice(1, 2),
        timestamp=1, rng=derive_rng("fan-out", "ballot"),
    )


def test_a_prod_ballot_is_the_same_on_one_cpu_and_on_all(open_prod, forks, monkeypatch):
    """Its slot encryptions and slot proofs fork on two or more CPUs, and
    give the same `SignedBallot` bytes as on one."""
    election, creds = open_prod
    host = groups._cpus()
    with monkeypatch.context() as patch:
        patch.setattr(groups, "_cpus", lambda: 1)
        one = _compose(election, creds).to_bytes()
    assert forks == []
    monkeypatch.setattr(groups, "_cpus", lambda: max(host, 2))
    assert _compose(election, creds).to_bytes() == one
    assert forks and set(forks) == {os.getpid()}
    _assert_no_children()


@pytest.mark.parametrize("case", [
    "honest", "negated c1, even challenge", "negated c1, odd challenge", "slot response plus one",
])
def test_a_prod_cast_gives_the_same_verdict_on_one_cpu_and_on_all(
    prod_election, open_prod, forks, monkeypatch, case
):
    """v1's ballot, honest or edited and re-signed: accepted, with a c1
    outside the subgroup that admission turns away (even challenge), or
    rejected, there (odd) or by its batch's bisection (slot response), the
    same on one CPU and on two or more."""
    election, creds = open_prod
    params, host = election.params, groups._cpus()
    [sb, _] = prod_election.collected
    edit, rejected = EDITS[case]
    edited = _resigned(params, creds["v1"], sb, edit(params, election.election_key.h, sb.encrypted))
    verdicts = []
    for cpus in (1, max(host, 2)):
        monkeypatch.setattr(groups, "_cpus", lambda cpus=cpus: cpus)
        verdicts.append(election.cast(edited, now=edited.timestamp) is not None)
    assert verdicts == [not rejected] * 2
    assert forks
    _assert_no_children()


def test_a_test_group_compose_and_cast_never_fork(forks):
    election, creds = Election.setup(ElectionConfig(candidates=["a", "b"]), ["v1"], seed=1)
    assert election.cast(_compose(election, creds), now=1) is not None
    assert forks == []


def test_no_child_of_a_first_compose_builds_a_g_or_election_key_table(
    open_prod, forks, tmp_path, monkeypatch
):
    """With every table dropped, a compose and its cast check fork, and
    each comb table a child builds is logged by base: none is g's or the
    election key's, which the parent builds before it forks."""
    election, creds = open_prod
    params, host = election.params, groups._cpus()
    log = tmp_path / "child_tables.log"
    parent, build = os.getpid(), groups._Comb.__init__

    def logged(comb, p, base, cols):
        if os.getpid() != parent:
            with open(log, "a") as file:
                file.write(f"{base}\n")
        build(comb, p, base, cols)

    monkeypatch.setattr(groups, "_cpus", lambda: max(host, 2))
    monkeypatch.setattr(groups._Comb, "__init__", logged)
    groups._comb.cache_clear()
    assert election.cast(_compose(election, creds), now=1) is not None
    assert forks
    child_bases = set(map(int, log.read_text().split())) if log.exists() else set()
    assert child_bases.isdisjoint({params.g, election.election_key.h})


SCENARIO = {
    "voters": ["v1", "v2"],
    "votes": [{"voter": "v1", "candidate": 0, "time": 1},
              {"voter": "v2", "candidate": 1, "time": 2}],
}


def _run(tmp_path, name):
    """`evote run --seed 1` of 2 voters on prod3072; its output directory."""
    config, scenario = tmp_path / "config.json", tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "candidates": ["alice", "bob"], "trustee_count": 2, "mix_server_count": 2,
        "proof_rounds": 4, "group": "prod3072",
    }))
    scenario.write_text(json.dumps(SCENARIO))
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


def test_a_prod_simulation_reports_the_same_on_one_cpu_and_on_all(forks, monkeypatch):
    """Its wallets' public keys, one `keygens` call, fork on two or more
    CPUs, and the `SimReport` is the one a single CPU gives."""
    config = ballotcoin.SimConfig(rounds=3, n_voters=4, vote_prob=1.0, group="prod3072")
    host = groups._cpus()
    with monkeypatch.context() as patch:
        patch.setattr(groups, "_cpus", lambda: 1)
        one = ballotcoin.simulate(config, 1)
    assert forks == []
    monkeypatch.setattr(groups, "_cpus", lambda: max(host, 2))
    assert ballotcoin.simulate(config, 1) == one
    assert forks and set(forks) == {os.getpid()}
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


def test_the_serial_map_imports_nothing(tmp_path):
    """A test-group election and its verification, in a fresh interpreter,
    leave `pickle` unloaded: only a fork loads it."""
    code = textwrap.dedent("""
        import sys
        from evote import cli
        out = sys.argv[1] + "/out"
        run = ["run", "--config", sys.argv[1] + "/config.json",
               "--scenario", sys.argv[1] + "/scenario.json", "--seed", "1", "--out-dir", out]
        assert cli.main(run) == cli.EXIT_OK
        verify = ["verify", "--board", out + "/board.jsonl", "--params", out + "/params.json"]
        assert cli.main(verify) == cli.EXIT_OK
        print("pickle" in sys.modules)
    """)
    (tmp_path / "config.json").write_text(json.dumps({"candidates": ["alice", "bob"]}))
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    path = [str(Path(evote.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
