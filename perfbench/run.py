"""Benchmark of the evote election pipeline and the BallotCoin simulator.

Run from the repository root:

    python3 perfbench/run.py --workload test-large --seed 1 --seconds 20 --trace 0

The workload's scenario is generated from --seed.  Untraced passes repeat
while the next one should end within --seconds (at least one), and each
step is timed by its median pass, in reference seconds (hostspeed.py);
--trace 1 instead runs one untraced and one traced pass and reports the
per-layer metrics, then checks parity with the `evote` CLI.  Every pass
checks its outputs.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the machine facts and the scenario.  Without
the evote sources under src/ the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _import_evote() -> None:
    """Import evote from this checkout's src/, and from nowhere else."""
    if not (SRC / "evote" / "__init__.py").is_file():
        sys.exit(f"perfbench: no evote package under {SRC}")
    sys.path.insert(0, str(SRC))
    import evote

    if Path(evote.__file__).resolve().parent != (SRC / "evote").resolve():
        sys.exit(f"perfbench: imported evote from {evote.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _facts(workload: str, seed: int, shape, trace: int, clock) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "reference_routine": clock.routine,
        "host_slowdown": clock.slowdown(),
        "workload": workload,
        "shape": dict(vars(shape)),
        "seed": seed,
        "trace": trace,
    }


def _timed_passes(run_pass, seconds: float) -> list:
    """Repeat a pass while the next one should still end within `seconds`."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _run_election(name, shape, seed, seconds, trace, work_dir, checks, clock):
    import metrics
    import workloads as w
    from tracer import Tracer

    scn = w.make_election(name, shape, seed)
    board_path = work_dir / "board.jsonl"
    if trace:
        with clock:
            untraced = w.election_pass(scn, board_path, checks, clock)
            expected = board_path.read_bytes()
            with Tracer() as tracer:
                traced = w.election_pass(scn, board_path, checks, clock, tracer)
        untraced_e2e = metrics.election_e2e([untraced], [untraced.setup_s])
        traced_e2e = metrics.election_e2e([traced], [traced.setup_s])
        checks.check(traced.board_sha256 == untraced.board_sha256,
                     "board differs between the untraced and the traced pass")
        w.election_cli_parity(scn, work_dir, expected, w.coercion_flagged(scn), checks)
        values = metrics.per_layer(
            tracer,
            accepted=traced.accepted,
            cast=traced.cast,
            tally_gap=0,
            checks=checks,
            traced_e2e=traced_e2e,
            untraced_e2e=untraced_e2e,
        )
        return metrics.with_units(values, metrics.PER_LAYER)

    with clock:
        passes = _timed_passes(lambda: w.election_pass(scn, board_path, checks, clock),
                               seconds)
        setups = [p.setup_s for p in passes]
        while len(setups) < 3:
            setups.append(w.election_setup_sample(scn, clock))
    for p in passes[1:]:
        checks.check(p.board_sha256 == passes[0].board_sha256,
                     "board differs between repeats of the same seed")
    return metrics.with_units(metrics.election_e2e(passes, setups), metrics.END_TO_END)


def _run_coin(name, shape, seed, seconds, trace, work_dir, checks, clock):
    import metrics
    import workloads as w
    from tracer import Tracer

    scn = w.make_coin(name, shape, seed)
    if trace:
        with clock:
            untraced = w.coin_pass(scn, checks, clock)
            with Tracer() as tracer:
                traced = w.coin_pass(scn, checks, clock, tracer)
        untraced_e2e = metrics.coin_e2e([untraced])
        traced_e2e = metrics.coin_e2e([traced])
        checks.check([s.report for s in traced] == [s.report for s in untraced],
                     "SimReport differs between the untraced and the traced pass")
        w.coin_cli_parity(scn, work_dir, untraced[0], checks)
        values = metrics.per_layer(
            tracer,
            accepted=0,
            cast=0,
            tally_gap=sum(s.tally_gap for s in traced),
            checks=checks,
            traced_e2e=traced_e2e,
            untraced_e2e=untraced_e2e,
        )
        return metrics.with_units(values, metrics.PER_LAYER)

    with clock:
        passes = _timed_passes(lambda: w.coin_pass(scn, checks, clock), seconds)
    # A pass usually fills the run, so the first simulation runs once more,
    # untimed, to compare SimReports across repeats of the same seed.
    again = w.coin_sim(scn.config, scn.sim_seeds[0], checks, clock)
    for p in passes[1:] + [[again]]:
        checks.check([s.report for s in p] == [s.report for s in passes[0][:len(p)]],
                     "SimReport differs between repeats of the same seed")
    return metrics.with_units(metrics.coin_e2e(passes), metrics.END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_evote()
    import workloads as w
    from hostspeed import Sampler

    if args.workload in w.ELECTIONS:
        shape, runner = w.ELECTIONS[args.workload], _run_election
    elif args.workload in w.COINS:
        shape, runner = w.COINS[args.workload], _run_coin
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(w.ELECTIONS) + sorted(w.COINS)}")

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    checks = w.Checks()
    clock = Sampler(w.ROUTINES[args.workload])
    try:
        result = runner(args.workload, shape, args.seed, args.seconds, args.trace,
                        work_dir, checks, clock)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()

    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"facts": _facts(args.workload, args.seed, shape, args.trace, clock)}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
