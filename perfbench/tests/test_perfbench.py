"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import bisect
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads as w  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import evote  # noqa: E402
from evote import ballot, groups, tally  # noqa: E402

SMALL = w.ElectionShape("test", 12, 3, 2, 2, 3, 0.25)
SMALL_COIN = w.CoinShape(
    group="test", sims=2, voters=40, candidates=3, rounds=8, malicious_fraction=0.2,
    mode="stake_weighted",
)


def test_traced_baseline_reproduces_the_roadmap_modexp_table(tmp_path):
    """ROADMAP Baseline: test group, 100 voters x 3 x 3 x 3 x 20, no re-votes."""
    scn = w.make_election("baseline", w.BASELINE, 1)
    checks = w.Checks()
    with Sampler("interp") as clock, Tracer() as tracer:
        w.election_pass(scn, tmp_path / "board.jsonl", checks, clock, tracer)
    assert checks.failed == 0, checks.failures
    decrypt = (
        tracer.stat("groups.partial_decrypt", "tally").modexp
        + tracer.stat("groups.threshold_decrypt", "tally").modexp
    )
    assert {
        "compose": tracer.stat("ballot.compose_ballot", "cast").modexp,
        "cast verify": tracer.stat("ballot.verify_ballot", "cast").modexp,
        "mix": tracer.stat("mixnet.mix_once", "tally").modexp,
        "mix verify in tally": tracer.stat("mixnet.verify_mix", "tally").modexp,
        "decrypt": decrypt,
        "universal_verify": tracer.stat("bulletin.universal_verify", "verify").modexp,
    } == {
        "compose": 4_400,
        "cast verify": 4_300,
        "mix": 3_600,
        "mix verify in tally": 36_000,
        "decrypt": 7_500,
        "universal_verify": 44_300,
    }


def test_tracer_restores_every_name_and_leaves_the_board_unchanged(tmp_path):
    originals = {name: dict(vars(sys.modules[f"evote.{name}"])) for name in LAYERS}
    election_methods = dict(vars(tally.Election))
    compose = ballot.compose_ballot
    scn = w.make_election("small", SMALL, 3)
    checks = w.Checks()
    with Sampler("interp") as clock:
        plain = w.election_pass(scn, tmp_path / "a.jsonl", checks, clock)
        with Tracer() as tracer:
            assert ballot.pow is not None and ballot.compose_ballot.__wrapped__ is compose
            assert evote.compose_ballot is ballot.compose_ballot
            traced = w.election_pass(scn, tmp_path / "b.jsonl", checks, clock, tracer)
    assert checks.failed == 0, checks.failures
    assert traced.board_sha256 == plain.board_sha256
    for name in LAYERS:
        assert vars(sys.modules[f"evote.{name}"]) == originals[name]
    assert dict(vars(tally.Election)) == election_methods
    assert evote.compose_ballot is ballot.compose_ballot is compose
    assert "pow" not in vars(groups)


def test_self_time_excludes_wrapped_children_and_modexps_nest(tmp_path):
    scn = w.make_election("small", SMALL, 4)
    checks = w.Checks()
    with Sampler("interp") as clock, Tracer() as tracer:
        traced = w.election_pass(scn, tmp_path / "board.jsonl", checks, clock, tracer)
    e2e = metrics.election_e2e([traced], [traced.setup_s])
    values = metrics.per_layer(tracer, accepted=traced.accepted, cast=traced.cast, tally_gap=0,
                               checks=checks, traced_e2e=e2e, untraced_e2e=e2e)
    assert list(metrics.with_units(values, metrics.PER_LAYER)) == [n for n, _ in metrics.PER_LAYER]
    compose = tracer.stat("ballot.compose_ballot")
    children = ("groups.encrypt", "zkp.prove_wellformed", "registry.sign")
    assert compose.self_s < compose.total_s
    assert compose.modexp == sum(tracer.stat(c, "cast").modexp for c in children)
    assert tracer.stat("ballot.encode_choice").modexp == 0
    assert sum(st.modexp for (ph, nm), st in tracer.stats.items() if nm == "groups.reencrypt") > 0


def test_election_checks_and_cli_parity_pass(tmp_path):
    scn = w.make_election("small", SMALL, 5)
    assert scn.revotes == 3 and sum(scn.truth()) == SMALL.voters
    checks = w.Checks()
    with Sampler("interp") as clock:
        run = w.election_pass(scn, tmp_path / "board.jsonl", checks, clock)
    w.election_cli_parity(
        scn, tmp_path, (tmp_path / "board.jsonl").read_bytes(), w.coercion_flagged(scn), checks
    )
    assert checks.failed == 0, checks.failures
    assert checks.attempted == 7
    assert run.accepted == run.cast == len(scn.votes)


def test_cli_parity_notices_a_different_board(tmp_path):
    scn = w.make_election("small", SMALL, 6)
    checks = w.Checks()
    w.election_cli_parity(scn, tmp_path, b"not the board\n", w.coercion_flagged(scn), checks)
    assert checks.failures == ["evote run wrote a different board.jsonl"]


def test_coin_repeats_agree_and_cli_parity_passes(tmp_path):
    scn = w.make_coin("coin-small", SMALL_COIN, 7)
    checks = w.Checks()
    with Sampler("interp") as clock:
        sims = w.coin_pass(scn, checks, clock)
        again = w.coin_pass(scn, checks, clock)
    assert [s.report for s in again] == [s.report for s in sims]
    w.coin_cli_parity(scn, tmp_path, sims[0], checks)
    assert checks.failed == 0, checks.failures
    values = metrics.coin_e2e([sims, again])
    assert all(values[name] > 0 for name, *_ in metrics.END_TO_END)
    assert all(s.tally_gap == sum(s.report["final_tally"].values()) - s.txs_included for s in sims)


def test_reference_seconds_scale_wall_time_by_the_sampled_speed():
    with Sampler("interp") as clock:
        start = clock.stamp()
        deadline = start[0] + 0.5
        while clock.stamp()[0] < deadline:
            pass
        end = clock.stamp()
        seconds = clock.seconds(start, end)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(clock.samples) >= 4
    busy = end[1] - start[1]
    assert 0 < busy < 0.5
    lo = bisect.bisect_left(clock.times, start[0] - hostspeed.WINDOW)
    hi = bisect.bisect_right(clock.times, end[0])
    around = clock.samples[lo:hi]
    nominal = hostspeed.ROUTINES["interp"][1]
    assert math.isclose(seconds, (0.5 - busy) * nominal * len(around) / sum(around), rel_tol=0.01)
    assert set(w.ROUTINES) == set(w.ELECTIONS) | set(w.COINS)


def test_scenarios_are_a_function_of_the_seed():
    a = w.make_election("test-large", w.ELECTIONS["test-large"], 11)
    b = w.make_election("test-large", w.ELECTIONS["test-large"], 11)
    c = w.make_election("test-large", w.ELECTIONS["test-large"], 12)
    assert a.votes == b.votes and a.votes != c.votes
    assert a.revotes == 20 and len(a.votes) == 220
    assert [v.time for v in a.votes] == sorted({v.time for v in a.votes})
    coin = w.COINS["coin-forks"]
    seeds = w.make_coin("coin-forks", coin, 11).sim_seeds
    assert seeds == w.make_coin("coin-forks", coin, 11).sim_seeds
    assert seeds != w.make_coin("coin-forks", coin, 12).sim_seeds


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "test-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
