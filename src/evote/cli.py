"""Command-line driver: reproducible end-to-end election runs.

Subcommands: setup, run, verify, coin-sim, estimate.  Every artifact byte
is a function of (config, scenario, seed).  Exit codes: 0 ok, 2
verification failure or pipeline error, 3 coercion flagged, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .ballot import compose_ballot, encode_choice
from .ballotcoin import SimConfig, estimate_storage, simulate
from .bulletin import KIND_RESULT, Board, ResultPayload, universal_verify
from .canonical import derive_rng, hexdigest
from .errors import EvoteError
from .groups import GroupParams
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


def _load_config(path: str, fields=None) -> tuple[ElectionConfig, dict]:
    """The election config in the JSON file at `path`, read from `fields`
    only when given, and the file's data.  A config that the library
    refuses (an unknown or missing key, a bad value) is a usage error."""
    data = _load_json(path)
    try:
        picked = data if fields is None else {name: data[name] for name in fields}
        return ElectionConfig.from_dict(picked), data
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters in {path}: {exc!r}") from exc


def _dump_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


# The tamper types a scenario may name; see `_apply_tamper`.
_TAMPERS = ("flip_payload_byte", "drop_entry", "alter_result_counts")


def _load_scenario(path: str, n: int) -> tuple[dict, list]:
    """The scenario in the JSON file at `path` and its voter ids.  Anything
    but an object whose voters are distinct ids or {"count": int >= 0,
    "prefix": str}, whose votes are a list of objects, each naming one of
    those voters, a candidate index below `n` and a non-negative int time,
    and whose tamper clause, if any, is an object with a known type, is a
    usage error naming the field, the vote or the clause."""
    scenario = _load_json(path)
    if not isinstance(scenario, dict):
        raise UsageError(f"bad scenario {path}: not an object")
    voters, votes = scenario.get("voters", []), scenario.get("votes", [])
    if isinstance(voters, dict):
        count, prefix = voters.get("count"), voters.get("prefix", "voter")
        if type(count) is int and count >= 0 and isinstance(prefix, str):
            voters = [f"{prefix}{i:04d}" for i in range(count)]
    if not isinstance(voters, list) or not all(isinstance(v, (str, int)) for v in voters):
        raise UsageError(f"bad scenario {path}: voters {voters!r}")
    repeated = [voter for voter, times in Counter(voters).items() if times > 1]
    if repeated:
        raise UsageError(f"bad scenario {path}: voter {repeated[0]!r} repeated")
    if not isinstance(votes, list):
        raise UsageError(f"bad scenario {path}: votes {votes!r} is not a list")
    known = set(voters)
    for idx, vote in enumerate(votes):
        where = f"vote {idx} in {path}"
        if not isinstance(vote, dict):
            raise UsageError(f"{where}: {vote!r} is not an object")
        voter, candidate, time = (vote.get(key) for key in ("voter", "candidate", "time"))
        if not isinstance(voter, (str, int)) or voter not in known:
            raise UsageError(f"{where}: unknown voter {voter!r}")
        if type(candidate) is not int or not 0 <= candidate < n:
            raise UsageError(f"{where}: candidate {candidate!r} is not an index below {n}")
        if type(time) is not int or time < 0:
            raise UsageError(f"{where}: time {time!r} is not a non-negative int")
    tamper = scenario.get("tamper")
    if tamper is not None and not (
        isinstance(tamper, dict) and tamper.get("type") in _TAMPERS
    ):
        raise UsageError(f"bad scenario {path}: tamper {tamper!r}")
    return scenario, voters


# The config fields that params.json publishes; `verify` rebuilds its config
# from them.
PUBLISHED_CONFIG = (
    "group", "candidates", "mix_server_count", "proof_rounds", "coercion_threshold"
)


def _params_dict(config: ElectionConfig, election) -> dict:
    return {
        **{name: getattr(config, name) for name in PUBLISHED_CONFIG},
        "election_pk": election.election_key.h,
        "trustee_commitments": {
            str(i): h for i, h in sorted(election.commitments.items())
        },
    }


def _apply_tamper(board: Board, tamper: dict) -> None:
    """Scenario-driven single mutations, for exercising the verifier.  The
    clause's type is checked on load; a seq it uses must index an entry."""
    kind = tamper["type"]
    entries = board.entries
    if kind == "alter_result_counts":
        # Re-chain after the mutation so only the count check trips.
        for i, e in enumerate(entries):
            if e.kind == KIND_RESULT:
                result = ResultPayload.from_bytes(e.payload)
                counts = (result.counts[0] + 1,) + result.counts[1:]
                entries[i] = replace(e, payload=replace(result, counts=counts).to_bytes())
                break
        board.rechain()
        return
    seq = tamper.get("seq", 0)
    if type(seq) is not int or not 0 <= seq < len(entries):
        raise UsageError(f"tamper {tamper!r}: seq is not an int in [0, {len(entries)})")
    if kind == "flip_payload_byte":
        e = entries[seq]
        entries[seq] = replace(e, payload=bytes([e.payload[0] ^ 0x01]) + e.payload[1:])
    else:
        del entries[seq]


def cmd_setup(args) -> int:
    config, _ = _load_config(args.config)
    voters = _load_scenario(args.scenario, len(config.candidates))[1] if args.scenario else []
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    election, _credentials = Election.setup(config, voters, args.seed)
    election.registry.save(out_dir / "registry.jsonl")
    _dump_json(out_dir / "params.json", _params_dict(config, election))
    print(f"wrote {out_dir / 'params.json'} and {out_dir / 'registry.jsonl'}")
    return EXIT_OK


def cmd_run(args) -> int:
    config, _ = _load_config(args.config)
    n_candidates = len(config.candidates)
    scenario, voters = _load_scenario(args.scenario, n_candidates)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    election, credentials = Election.setup(config, voters, args.seed)
    votes = enumerate(scenario.get("votes", []))
    for idx, vote in sorted(votes, key=lambda iv: (iv[1]["time"], iv[0])):
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

    if scenario.get("tamper") is not None:
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


def _published_keys(
    params: GroupParams, params_data: dict, path: str
) -> tuple[int, dict[int, int]]:
    """The election key and the trustee commitments keyed 1..n, each an int
    in the order-q subgroup; anything else in params.json is a usage error."""
    election_pk = params_data.get("election_pk")
    commitments = params_data.get("trustee_commitments")
    if not isinstance(commitments, dict) or not commitments or set(commitments) != {
        str(i) for i in range(1, len(commitments) + 1)
    }:
        raise UsageError(f"bad parameters in {path}: trustee_commitments not keyed 1..n")
    keys = {"election_pk": election_pk}
    keys.update((f"trustee_commitments[{i}]", h) for i, h in commitments.items())
    for name, value in keys.items():
        if type(value) is not int or not params.is_element(value):
            raise UsageError(f"bad parameters in {path}: {name} is not in the order-q subgroup")
    return election_pk, {int(i): h for i, h in commitments.items()}


def cmd_verify(args) -> int:
    if not Path(args.board).exists():
        raise UsageError(f"file not found: {args.board}")
    config, params_data = _load_config(args.params, PUBLISHED_CONFIG)
    try:
        board = Board.load(args.board)
    except ValueError as exc:
        raise UsageError(f"bad board {args.board}: {exc}") from exc
    election_pk, commitments = _published_keys(config.params, params_data, args.params)
    report = universal_verify(config.params, board, config, election_pk, commitments)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_coin_sim(args) -> int:
    data = _load_json(args.scenario)
    try:
        config = SimConfig.from_dict(data)
        if args.rounds is not None:
            config = replace(config, rounds=args.rounds)
        if args.mode is not None:
            mode = {"stake": "stake_weighted", "uniform": "uniform"}[args.mode]
            config = replace(config, mode=mode)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
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
