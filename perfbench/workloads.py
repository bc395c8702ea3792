"""Workloads: seeded scenarios and the timed passes that drive evote.

A workload turns the benchmark seed into a scenario (config, voters and
votes, or a BallotCoin simulation config) and runs it through the public
API.  One *pass* runs the whole scenario once; the benchmark times the
public calls of a pass with tracing off, or runs it under a Tracer to get
the per-layer numbers.  Every pass also checks its outputs and counts the
checks in a Checks object.

All program calls go through module attributes (``tally.Election``,
``ballot.compose_ballot``, ...), looked up at call time, so an installed
Tracer sees them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from evote import ballot, ballotcoin, bulletin, canonical, cli, tally


class Checks:
    """Correctness checks made by one run: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@contextlib.contextmanager
def _phase(tracer, name: str):
    """Collect garbage left by the previous phase, then label the phase."""
    gc.collect()
    if tracer is not None:
        tracer.phase = name
    try:
        yield
    finally:
        if tracer is not None:
            tracer.phase = "none"


# ---------------------------------------------------------------------------
# Election workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElectionShape:
    group: str
    voters: int
    candidates: int
    trustees: int
    servers: int
    proof_rounds: int
    revote_share: float


@dataclass(frozen=True)
class Vote:
    voter: str
    candidate: int
    time: int


@dataclass
class ElectionScenario:
    seed: int
    config: tally.ElectionConfig
    voters: list[str]
    votes: list[Vote]  # in cast order; times strictly increase
    revotes: int

    def truth(self) -> list[int]:
        """Histogram of each voter's latest vote."""
        latest = {v.voter: v.candidate for v in self.votes}
        counts = [0] * len(self.config.candidates)
        for candidate in latest.values():
            counts[candidate] += 1
        return counts

    def scenario_json(self) -> dict:
        """The scenario in the form `evote run --scenario` reads."""
        return {
            "voters": list(self.voters),
            "votes": [
                {"voter": v.voter, "candidate": v.candidate, "time": v.time}
                for v in self.votes
            ],
        }


def make_election(name: str, shape: ElectionShape, seed: int) -> ElectionScenario:
    """Every voter votes once in turn; a share of them then re-vote."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    voters = [f"voter{i:05d}" for i in range(shape.voters)]
    votes = [Vote(v, rng.randrange(shape.candidates), t) for t, v in enumerate(voters)]
    revotes = round(shape.revote_share * shape.voters)
    for j in range(revotes):
        votes.append(
            Vote(rng.choice(voters), rng.randrange(shape.candidates), shape.voters + j)
        )
    config = tally.ElectionConfig(
        candidates=[f"candidate{i}" for i in range(shape.candidates)],
        trustee_count=shape.trustees,
        mix_server_count=shape.servers,
        proof_rounds=shape.proof_rounds,
        group=shape.group,
    )
    return ElectionScenario(seed, config, voters, votes, revotes)


@dataclass
class ElectionPass:
    setup_s: float
    cast_ms: list[float]
    tally_s: float
    verify_s: float
    board_bytes: int
    board_sha256: str
    cast: int
    accepted: int


def election_pass(scn: ElectionScenario, board_path: Path, checks: Checks, clock, tracer=None):
    """One whole election: setup, every ballot, tally, save, load and verify.
    Steps are timed in reference seconds by `clock`, a hostspeed.Sampler."""
    config = scn.config
    n_candidates = len(config.candidates)
    with _phase(tracer, "setup"):
        start = clock.stamp()
        election, credentials = tally.Election.setup(config, scn.voters, scn.seed)
        setup_s = clock.seconds(start)

    cast_ms = []
    accepted = 0
    with _phase(tracer, "cast"):
        for idx, vote in enumerate(scn.votes):
            choice = ballot.encode_choice(vote.candidate, n_candidates)
            rng = canonical.derive_rng(scn.seed, "ballot", vote.voter, idx)
            start = clock.stamp()
            sb = ballot.compose_ballot(
                election.params,
                credentials[vote.voter],
                election.election_key.h,
                choice,
                timestamp=vote.time,
                rng=rng,
            )
            receipt = election.cast(sb, now=vote.time)
            cast_ms.append(clock.seconds(start) * 1e3)
            accepted += receipt is not None

    with _phase(tracer, "tally"):
        start = clock.stamp()
        election.close_election()
        result = election.run_tally()
        tally_s = clock.seconds(start)

    with _phase(tracer, "save"):
        election.board.save(board_path)
    data = board_path.read_bytes()

    with _phase(tracer, "verify"):
        start = clock.stamp()
        board = bulletin.Board.load(board_path)
        report = bulletin.universal_verify(
            election.params, board, config, election.election_key.h, election.commitments
        )
        verify_s = clock.seconds(start)

    checks.check(
        accepted == len(scn.votes), f"{len(scn.votes) - accepted} ballots rejected at cast"
    )
    checks.check(report.overall and not report.failures, f"universal_verify: {report.failures}")
    checks.check(result.counts == scn.truth(), f"counts {result.counts} != truth {scn.truth()}")
    checks.check(
        result.revoked_count == scn.revotes,
        f"revoked {result.revoked_count} != re-votes {scn.revotes}",
    )
    return ElectionPass(
        setup_s=setup_s,
        cast_ms=cast_ms,
        tally_s=tally_s,
        verify_s=verify_s,
        board_bytes=len(data),
        board_sha256=hashlib.sha256(data).hexdigest(),
        cast=len(scn.votes),
        accepted=accepted,
    )


def election_setup_sample(scn: ElectionScenario, clock) -> float:
    """One extra timed Election.setup, for the setup_s median."""
    gc.collect()
    start = clock.stamp()
    tally.Election.setup(scn.config, scn.voters, scn.seed)
    return clock.seconds(start)


def election_cli_parity(scn: ElectionScenario, work_dir: Path, expected_board: bytes,
                        flagged: bool, checks: Checks) -> None:
    """`evote run` and `evote verify`, in-process, on the same scenario."""
    out_dir = work_dir / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    scenario_path = work_dir / "scenario.json"
    config_path.write_text(json.dumps(scn.config.to_dict()))
    scenario_path.write_text(json.dumps(scn.scenario_json()))
    with contextlib.redirect_stdout(io.StringIO()):
        rc_run = cli.main([
            "run", "--config", str(config_path), "--scenario", str(scenario_path),
            "--seed", str(scn.seed), "--out-dir", str(out_dir),
        ])
        rc_verify = cli.main([
            "verify", "--board", str(out_dir / "board.jsonl"),
            "--params", str(out_dir / "params.json"),
        ])
    expected_rc = cli.EXIT_COERCION if flagged else cli.EXIT_OK
    checks.check(rc_run == expected_rc, f"evote run exited {rc_run}, expected {expected_rc}")
    checks.check(
        (out_dir / "board.jsonl").read_bytes() == expected_board,
        "evote run wrote a different board.jsonl",
    )
    checks.check(rc_verify == cli.EXIT_OK, f"evote verify exited {rc_verify}")


def coercion_flagged(scn: ElectionScenario) -> bool:
    """Re-votes flag coercion when revoked / cast exceeds the threshold."""
    return scn.revotes / len(scn.votes) > scn.config.coercion_threshold


# ---------------------------------------------------------------------------
# BallotCoin workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinShape:
    group: str
    sims: int  # independent simulations per pass, each from its own sub-seed
    voters: int
    candidates: int
    rounds: int
    malicious_fraction: float
    mode: str


@dataclass
class CoinScenario:
    seed: int
    config: ballotcoin.SimConfig
    sim_seeds: list[int]


def make_coin(name: str, shape: CoinShape, seed: int) -> CoinScenario:
    rng = random.Random(f"perfbench/{name}/{seed}")
    config = ballotcoin.SimConfig(
        rounds=shape.rounds,
        n_voters=shape.voters,
        n_candidates=shape.candidates,
        malicious_fraction=shape.malicious_fraction,
        mode=shape.mode,
        group=shape.group,
    )
    return CoinScenario(seed, config, [rng.randrange(2**31) for _ in range(shape.sims)])


@dataclass
class CoinSim:
    setup_s: float  # simulate() called -> first observer callback
    round_ms: list[float]  # between consecutive observer callbacks
    total_s: float  # simulate() called -> returned
    verify_s: float  # Chain.is_valid on the last canonical chain
    chain_bytes: int
    report: dict
    txs_included: int
    tally_gap: int  # sum(final_tally) - txs_included; finding F6


def coin_sim(config, sim_seed: int, checks: Checks, clock, tracer=None) -> CoinSim:
    stamps = []
    last = []

    def observer(state):
        stamps.append(clock.stamp())
        last[:] = [state.canonical]

    with _phase(tracer, "coin"):
        start = clock.stamp()
        report = ballotcoin.simulate(config, sim_seed, observer=observer)
        total_s = clock.seconds(start)
    chain = last[0]
    with _phase(tracer, "coin-verify"):
        t0 = clock.stamp()
        valid = chain.is_valid()
        verify_s = clock.seconds(t0)
    checks.check(valid, f"sim {sim_seed}: last canonical chain is not valid")
    return CoinSim(
        setup_s=clock.seconds(start, stamps[0]),
        round_ms=[clock.seconds(a, b) * 1e3 for a, b in zip(stamps, stamps[1:])],
        total_s=total_s,
        verify_s=verify_s,
        chain_bytes=sum(len(block.to_bytes()) for block in chain.blocks),
        report=report.to_dict(),
        txs_included=report.txs_included,
        tally_gap=sum(report.final_tally.values()) - report.txs_included,
    )


def coin_pass(scn: CoinScenario, checks: Checks, clock, tracer=None) -> list[CoinSim]:
    return [coin_sim(scn.config, s, checks, clock, tracer) for s in scn.sim_seeds]


def coin_cli_parity(scn: CoinScenario, work_dir: Path, first: CoinSim, checks: Checks) -> None:
    """`evote coin-sim`, in-process, on the first simulation's seed."""
    out_dir = work_dir / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = work_dir / "coin.json"
    scenario_path.write_text(json.dumps(scn.config.to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([
            "coin-sim", "--scenario", str(scenario_path),
            "--seed", str(scn.sim_seeds[0]), "--out-dir", str(out_dir),
        ])
    checks.check(rc == cli.EXIT_OK, f"evote coin-sim exited {rc}")
    report = json.loads((out_dir / "simreport.json").read_text())
    checks.check(report == first.report, "evote coin-sim wrote a different SimReport")


# ---------------------------------------------------------------------------
# The workloads the benchmark names
# ---------------------------------------------------------------------------

# Sizes fit the run-time budget of the whole benchmark, about 35 s per run,
# on a 2-core Xeon VM whose speed swings up to 2x with other tenants' load.
# prod-small keeps the production shape but 4 challenge rounds: with 20,
# one pass takes about 95 s.  test-large has 200 voters, so that a run makes
# about 20 passes to take the median of.
ELECTIONS = {
    "prod-small": ElectionShape("prod3072", 2, 2, 2, 2, 4, 0.0),
    "test-large": ElectionShape("test", 200, 3, 3, 3, 20, 0.1),
}

# coin-forks runs many short simulations per pass.  One simulation's work
# (its count of canonical digests) varies with its fork count and address
# collisions (finding F6): by 18% (standard deviation over mean) from seed
# to seed at 100 voters, 23% at 200, which also costs twice the time.  The
# mean of 96 100-voter simulations varies about 10 times less; a pass of 96
# lasts 16-30 s, so a run is usually one pass.
COINS = {
    "coin-forks": CoinShape(
        group="test", sims=96, voters=100, candidates=3, rounds=20,
        malicious_fraction=0.2, mode="stake_weighted",
    ),
}

# The reference routine (hostspeed.py) whose speed scales each workload's
# timings: the kind of work the workload spends its time on.
ROUTINES = {"prod-small": "bigint", "test-large": "interp", "coin-forks": "interp"}

# The ROADMAP Baseline shape, used by the benchmark's own tests.
BASELINE = ElectionShape("test", 100, 3, 3, 3, 20, 0.0)
