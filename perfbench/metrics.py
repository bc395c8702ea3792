"""The benchmark's metrics: names, units and how each is computed.

End-to-end metrics come from untraced passes.  A run repeats passes of
one scenario, which do the same work each time, and times each step by
its median pass.  Timings are in reference seconds (see hostspeed.py):
wall seconds scaled by the host's speed around the step, so that other
tenants' load on a shared host drops out.  Every workload reports every
metric, each measuring the same kind of cost:

- setup_s: Election.setup on the election workloads; simulate() called ->
  first observer callback on coin-forks (median over the simulations).
- step_ms.p50 / .p90: one voter's compose_ballot + Election.cast on the
  election workloads; one simulation round (between observer callbacks)
  on coin-forks.  p90 is nearest-rank; on prod-small it is the slower of
  its two ballots.
- tally_s: close_election + run_tally; one whole simulate() on coin-forks
  (mean over its simulations).
- verify_s: Board.load of the saved board + universal_verify;
  Chain.is_valid on the last canonical chain on coin-forks (mean).
- ballots_per_s: ballots cast / (cast time + tally_s + verify_s); votes
  included in the canonical chain / (tally_s + verify_s) on coin-forks.
- board_kb: size of the saved board.jsonl; on coin-forks the canonical
  chain's encoded blocks (mean).
- peak_rss_mb: the process's peak resident memory.

Per-layer metrics come from one traced pass (see tracer.py).  `.calls`,
`.self_s`, `.s` (inclusive seconds) and `.modexp` (modexps charged to the
span or to spans nested in it) are summed over the pass.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path

# Names and units of the metrics, in the order BENCHMARK.json lists them.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# metric, span, phase (None: every phase), field of tracer.Stat
SPAN_METRICS = [
    ("groups.encrypt.self_s", "groups.encrypt", None, "self_s"),
    ("groups.reencrypt.calls", "groups.reencrypt", None, "calls"),
    ("groups.reencrypt.self_s", "groups.reencrypt", None, "self_s"),
    ("groups.partial_decrypt.self_s", "groups.partial_decrypt", None, "self_s"),
    ("groups.threshold_decrypt.self_s", "groups.threshold_decrypt", None, "self_s"),
    ("groups.decode_exponent.self_s", "groups.decode_exponent", None, "self_s"),
    ("zkp.prove_wellformed.self_s", "zkp.prove_wellformed", None, "self_s"),
    ("zkp.prove_wellformed.modexp", "zkp.prove_wellformed", None, "modexp"),
    ("zkp.verify_wellformed.calls", "zkp.verify_wellformed", None, "calls"),
    ("zkp.verify_wellformed.self_s", "zkp.verify_wellformed", None, "self_s"),
    ("zkp.verify_wellformed.modexp", "zkp.verify_wellformed", None, "modexp"),
    ("zkp.prove_correct_decryption.self_s", "zkp.prove_correct_decryption", None, "self_s"),
    ("zkp.verify_correct_decryption.calls", "zkp.verify_correct_decryption", None, "calls"),
    ("zkp.verify_correct_decryption.self_s", "zkp.verify_correct_decryption", None, "self_s"),
    ("registry.enroll_voter.self_s", "registry.enroll_voter", None, "self_s"),
    ("registry.sign.self_s", "registry.sign", None, "self_s"),
    ("registry.verify_sig.calls", "registry.verify_sig", None, "calls"),
    ("registry.verify_sig.self_s", "registry.verify_sig", None, "self_s"),
    ("ballot.compose_ballot.self_s", "ballot.compose_ballot", None, "self_s"),
    ("ballot.compose_ballot.modexp", "ballot.compose_ballot", None, "modexp"),
    ("ballot.verify_ballot.self_s", "ballot.verify_ballot", None, "self_s"),
    ("ballot.verify_ballot.modexp", "ballot.verify_ballot", None, "modexp"),
    ("ballot.filter_latest.self_s", "ballot.filter_latest", None, "self_s"),
    ("mixnet.mix_once.self_s", "mixnet.mix_once", None, "self_s"),
    ("mixnet.mix_once.modexp", "mixnet.mix_once", None, "modexp"),
    ("mixnet.verify_mix.in_tally.self_s", "mixnet.verify_mix", "tally", "self_s"),
    ("mixnet.verify_mix.in_tally.modexp", "mixnet.verify_mix", "tally", "modexp"),
    ("mixnet.verify_mix.in_verify.self_s", "mixnet.verify_mix", "verify", "self_s"),
    ("mixnet.verify_mix.in_verify.modexp", "mixnet.verify_mix", "verify", "modexp"),
    ("tally.cast.self_s", "tally.Election.cast", None, "self_s"),
    ("tally.run_tally.self_s", "tally.run_tally", None, "self_s"),
    ("tally.run_tally.modexp", "tally.run_tally", None, "modexp"),
    ("bulletin.append.calls", "bulletin.Board.append", None, "calls"),
    ("bulletin.append.bytes", "bulletin.Board.append", None, "items"),
    ("bulletin.save.s", "bulletin.Board.save", None, "total_s"),
    ("bulletin.load.s", "bulletin.Board.load", None, "total_s"),
    ("bulletin.verify_chain.s", "bulletin.verify_chain", None, "total_s"),
    ("bulletin.universal_verify.self_s", "bulletin.universal_verify", None, "self_s"),
    ("bulletin.universal_verify.modexp", "bulletin.universal_verify", None, "modexp"),
    ("canonical.encode.calls", "canonical.encode", None, "calls"),
    ("canonical.encode.self_s", "canonical.encode", None, "self_s"),
    ("canonical.digest.calls", "canonical.digest", None, "calls"),
    ("canonical.digest.self_s", "canonical.digest", None, "self_s"),
    ("ballotcoin.is_valid.calls", "ballotcoin.Chain.is_valid", None, "calls"),
    ("ballotcoin.is_valid.self_s", "ballotcoin.Chain.is_valid", None, "self_s"),
    ("ballotcoin.forge_block.self_s", "ballotcoin.forge_block", None, "self_s"),
    ("ballotcoin.balances.calls", "ballotcoin.Chain.balances", None, "calls"),
    ("ballotcoin.balances.self_s", "ballotcoin.Chain.balances", None, "self_s"),
]


def _p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_each(samples):
    """Element-wise median of equal-length lists of timings."""
    return [statistics.median(column) for column in zip(*samples)]


def election_e2e(passes, setups) -> dict:
    """Every pass of a run does the same work, so each step is timed by its
    median over the passes: each ballot's cast, the tally and the verify."""
    cast_ms = _median_each(p.cast_ms for p in passes)
    tally_s = statistics.median(p.tally_s for p in passes)
    verify_s = statistics.median(p.verify_s for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "step_ms.p50": statistics.median(cast_ms),
        "step_ms.p90": _p90(cast_ms),
        "tally_s": tally_s,
        "verify_s": verify_s,
        "ballots_per_s": len(cast_ms) / (sum(cast_ms) / 1e3 + tally_s + verify_s),
        "board_kb": passes[0].board_bytes / 1024,
        "peak_rss_mb": peak_rss_mb(),
    }


def coin_e2e(passes) -> dict:
    """Every pass repeats the same simulations, so each simulation's set-up,
    rounds, whole run and chain check are timed by their median repeat."""
    sims = list(zip(*passes))
    setup_s = [statistics.median(s.setup_s for s in repeats) for repeats in sims]
    round_ms = [ms for repeats in sims for ms in _median_each(s.round_ms for s in repeats)]
    total_s = [statistics.median(s.total_s for s in repeats) for repeats in sims]
    verify_s = [statistics.median(s.verify_s for s in repeats) for repeats in sims]
    first = passes[0]
    return {
        "setup_s": statistics.median(setup_s),
        "step_ms.p50": statistics.median(round_ms),
        "step_ms.p90": _p90(round_ms),
        "tally_s": statistics.fmean(total_s),
        "verify_s": statistics.fmean(verify_s),
        "ballots_per_s": sum(s.txs_included for s in first) / (sum(total_s) + sum(verify_s)),
        "board_kb": statistics.fmean(s.chain_bytes for s in first) / 1024,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, *, accepted: int, cast: int, tally_gap: int, checks,
              traced_e2e: dict, untraced_e2e: dict) -> dict:
    out = {}
    for name, span, phase, fieldname in SPAN_METRICS:
        out[name] = getattr(tracer.stat(span, phase), fieldname)
    fork = tracer.stat("ballotcoin.fork_choice")
    out["groups.modexp"] = tracer.modexp
    out["ballot.accept_ratio"] = accepted / cast if cast else 0.0
    out["ballotcoin.fork_choice.leaves"] = fork.items / fork.calls if fork.calls else 0.0
    out["ballotcoin.fork_choice.useful_ratio"] = fork.calls / fork.items if fork.items else 0.0
    out["ballotcoin.tally_gap"] = tally_gap  # sum(final_tally) - txs_included (F6)
    out["fail_rate"] = checks.failed / checks.attempted if checks.attempted else 0.0
    for name, _unit in END_TO_END:
        out[f"trace_overhead.{name}"] = traced_e2e[name] - untraced_e2e[name]
    return out


def with_units(values: dict, spec) -> dict:
    """{name: {"value": v, "unit": u}} in the order of spec."""
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}
