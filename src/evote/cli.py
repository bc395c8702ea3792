"""Command-line driver: reproducible end-to-end election runs.

Subcommands: setup, run, verify, coin-sim, estimate.  Every artifact byte
is a function of (config, scenario, seed).  Exit codes: 0 ok, 2
verification failure or pipeline error, 3 coercion flagged, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from .ballot import compose_ballot, encode_choice
from .ballotcoin import SimConfig, estimate_storage, simulate
from .bulletin import Board, universal_verify
from .canonical import derive_rng, hexdigest
from .errors import EvoteError
from .groups import GROUP_PROFILES
from .tally import Election, ElectionConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_COERCION = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own code.
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def _dump_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _scenario_voters(scenario: dict) -> list[str]:
    voters = scenario.get("voters", [])
    if isinstance(voters, dict):
        prefix = voters.get("prefix", "voter")
        return [f"{prefix}{i:04d}" for i in range(voters["count"])]
    return list(voters)


def _setup_election(config: ElectionConfig, scenario: dict, seed: int):
    voter_ids = _scenario_voters(scenario)
    return Election.setup(config, voter_ids, seed)


def _params_dict(config: ElectionConfig, election) -> dict:
    return {
        "group": config.group,
        "candidates": list(config.candidates),
        "mix_server_count": config.mix_server_count,
        "proof_rounds": config.proof_rounds,
        "election_pk": election.election_key.h,
        "trustee_commitments": {
            str(i): h for i, h in sorted(election.commitments.items())
        },
    }


def _apply_tamper(board: Board, tamper: dict) -> None:
    """Scenario-driven single mutations, for exercising the verifier."""
    kind = tamper.get("type")
    entries = board.entries
    if kind == "flip_payload_byte":
        seq = tamper.get("seq", 0)
        e = entries[seq]
        entries[seq] = replace(e, payload=bytes([e.payload[0] ^ 0x01]) + e.payload[1:])
    elif kind == "drop_entry":
        del entries[tamper.get("seq", 0)]
    elif kind == "alter_result_counts":
        # Re-chain after the mutation so only the count check trips.
        for i, e in enumerate(entries):
            if e.kind == "Result":
                entries[i] = replace(e, payload=e.payload[:-1] + bytes([e.payload[-1] ^ 0x01]))
                break
        board.rechain()
    else:
        raise UsageError(f"unknown tamper type {kind!r}")


def cmd_setup(args) -> int:
    config = ElectionConfig.from_dict(_load_json(args.config))
    scenario = _load_json(args.scenario) if args.scenario else {"voters": []}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    election, _credentials = _setup_election(config, scenario, args.seed)
    election.registry.save(out_dir / "registry.jsonl")
    _dump_json(out_dir / "params.json", _params_dict(config, election))
    print(f"wrote {out_dir / 'params.json'} and {out_dir / 'registry.jsonl'}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = ElectionConfig.from_dict(_load_json(args.config))
    scenario = _load_json(args.scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    election, credentials = _setup_election(config, scenario, args.seed)
    n_candidates = len(config.candidates)
    votes = sorted(enumerate(scenario.get("votes", [])), key=lambda iv: (iv[1]["time"], iv[0]))
    for idx, vote in votes:
        credential = credentials[vote["voter"]]
        choice = encode_choice(vote["candidate"], n_candidates)
        sb = compose_ballot(
            election.params,
            credential,
            election.election_key.h,
            choice,
            timestamp=vote["time"],
            rng=derive_rng(args.seed, "ballot", vote["voter"], idx),
        )
        election.cast(sb, now=vote["time"])

    election.close_election()
    result = election.run_tally()

    if scenario.get("tamper"):
        _apply_tamper(election.board, scenario["tamper"])

    board_path = out_dir / "board.jsonl"
    election.board.save(board_path)
    _dump_json(out_dir / "params.json", _params_dict(config, election))
    _dump_json(out_dir / "result.json", result.to_dict(config.candidates))
    _dump_json(
        out_dir / "manifest.json",
        {
            "config_digest": hexdigest(json.dumps(config.to_dict(), sort_keys=True)),
            "scenario_digest": hexdigest(json.dumps(scenario, sort_keys=True)),
            "seed": args.seed,
            "board": board_path.name,
            "result": "result.json",
            "params": "params.json",
        },
    )
    counts = result.to_dict(config.candidates)["counts"]
    print(f"counts: {counts}")
    print(f"revoked: {result.revoked_count}, invalid: {result.invalid_count}")
    if result.coercion.flagged:
        print(
            f"coercion evidence: revoked fraction {result.coercion.revoked_fraction:.4f}"
            f" exceeds threshold {result.coercion.threshold}"
        )
        return EXIT_COERCION
    return EXIT_OK


def cmd_verify(args) -> int:
    if not Path(args.board).exists():
        raise UsageError(f"file not found: {args.board}")
    params_data = _load_json(args.params)
    board = Board.load(args.board)
    params = GROUP_PROFILES[params_data["group"]]
    config = SimpleNamespace(
        candidates=params_data["candidates"],
        mix_server_count=params_data["mix_server_count"],
        proof_rounds=params_data["proof_rounds"],
    )
    commitments = {
        int(i): h for i, h in params_data["trustee_commitments"].items()
    }
    report = universal_verify(
        params, board, config, params_data["election_pk"], commitments
    )
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_coin_sim(args) -> int:
    data = _load_json(args.scenario)
    try:
        config = SimConfig.from_dict(data)
    except TypeError as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    if args.rounds is not None:
        config.rounds = args.rounds
    if args.mode is not None:
        config.mode = {"stake": "stake_weighted", "uniform": "uniform"}[args.mode]
    report = simulate(config, args.seed)
    out = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "simreport.json").write_text(out + "\n")
    print(out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    est = estimate_storage(args.n_tx, args.bytes_per_tx)
    print(f"{est.total_bytes:,} bytes ({est.mib:.1f} MiB)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="evote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("setup", help="write election parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("run", help="run a full election")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="universal verification")
    p.add_argument("--board", required=True)
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coin-sim", help="blockchain voting simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.add_argument("--rounds", type=int)
    p.add_argument("--mode", choices=["stake", "uniform"])
    p.set_defaults(func=cmd_coin_sim)

    p = sub.add_parser("estimate", help="chain storage estimate")
    p.add_argument("n_tx", type=int)
    p.add_argument("bytes_per_tx", type=int)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvoteError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
