"""Command-line driver: reproducible end-to-end election runs.

Subcommands: setup, run, verify, coin-sim, estimate.  Input files hold every
setting; each artifact byte is a function of them and the seed.  Exit codes:
0 ok, 2 verify failure or pipeline error, 3 coercion flagged, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import Annotated, get_type_hints

from .ballot import compose_ballot, encode_choice
from .ballotcoin import SimConfig, estimate_storage, simulate
from .bulletin import Board, universal_verify
from .canonical import Check, at_least, derive_rng, from_json, hexdigest
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


@contextmanager
def _reading(path: str, what: str):
    """Any fault in reading the `what` file at `path` is a usage error that
    names the file."""
    try:
        yield
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"{exc.strerror.lower()}: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad {what} {path}: {exc}") from exc


def _read(cls, path: str, what: str):
    """The `cls` that `from_json` reads from the JSON file at `path`, and the
    file's data; any fault is a usage error, which names the value's path."""
    with _reading(path, what):
        data = json.loads(Path(path).read_text())
        return from_json(cls, data), data


def _out_dir(path: str) -> Path:
    """The directory at `path`, made if missing; a usage error if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make the output directory {path}: {exc.strerror}") from exc
    return Path(path)


def _dump_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class Vote:
    voter: str
    candidate: Annotated[int, at_least(0)]
    time: Annotated[int, at_least(0)]


_VoterIds = Annotated[list[str], Check(lambda ids: len(ids) == len(set(ids)), "distinct ids")]


@dataclass(frozen=True)
class Scenario:
    voters: _VoterIds = field(default_factory=list)
    votes: list[Vote] = field(default_factory=list)


def _load_scenario(path: str, n: int) -> tuple[Scenario, dict]:
    """The scenario in the JSON file at `path` and the file's data.  A vote
    that names no voter of the scenario or a candidate index of `n` or more
    is a usage error, as is any value that `Scenario` refuses."""
    scenario, data = _read(Scenario, path, "scenario")
    known = set(scenario.voters)
    for i, vote in enumerate(scenario.votes):
        where = f"bad scenario {path}: votes[{i}]"
        if vote.voter not in known:
            raise UsageError(f"{where}.voter: {vote.voter!r} is not a voter of the scenario")
        if vote.candidate >= n:
            raise UsageError(f"{where}.candidate: {vote.candidate} is not below {n}")
    return scenario, data


# params.json: the config fields that `verify` reads, typed as in
# ElectionConfig, the election key and the trustee commitments.
PUBLISHED_CONFIG = (
    "group", "candidates", "mix_server_count", "proof_rounds", "coercion_threshold"
)
_CONFIG_TYPES = get_type_hints(ElectionConfig, include_extras=True)
_KEYED_1_TO_N = Check(
    lambda keys: keys and set(keys) == {str(i) for i in range(1, len(keys) + 1)},
    'keyed "1" to "n"',
)
Published = make_dataclass("Published", [
    *((name, _CONFIG_TYPES[name]) for name in PUBLISHED_CONFIG),
    ("election_pk", int),
    ("trustee_commitments", Annotated[dict[str, int], _KEYED_1_TO_N]),
], frozen=True)


def _params_dict(config: ElectionConfig, election) -> dict:
    return {
        **{name: getattr(config, name) for name in PUBLISHED_CONFIG},
        "election_pk": election.election_key.h,
        "trustee_commitments": {
            str(i): h for i, h in sorted(election.commitments.items())
        },
    }


def cmd_setup(args) -> int:
    config, _ = _read(ElectionConfig, args.config, "parameters in")
    scenario = Scenario()
    if args.scenario:
        scenario, _ = _load_scenario(args.scenario, len(config.candidates))
    out_dir = _out_dir(args.out_dir)
    election, _credentials = Election.setup(config, scenario.voters, args.seed)
    election.registry.save(out_dir / "registry.jsonl")
    _dump_json(out_dir / "params.json", _params_dict(config, election))
    print(f"wrote {out_dir / 'params.json'} and {out_dir / 'registry.jsonl'}")
    return EXIT_OK


def cmd_run(args) -> int:
    config, _ = _read(ElectionConfig, args.config, "parameters in")
    n_candidates = len(config.candidates)
    scenario, data = _load_scenario(args.scenario, n_candidates)
    out_dir = _out_dir(args.out_dir)

    election, credentials = Election.setup(config, scenario.voters, args.seed)
    votes = enumerate(scenario.votes)
    for idx, vote in sorted(votes, key=lambda iv: (iv[1].time, iv[0])):
        sb = compose_ballot(
            election.params,
            credentials[vote.voter],
            election.election_key.h,
            encode_choice(vote.candidate, n_candidates),
            timestamp=vote.time,
            rng=derive_rng(args.seed, "ballot", vote.voter, idx),
        )
        election.cast(sb, now=vote.time)

    election.close_election()
    result = election.run_tally()

    board_path = out_dir / "board.jsonl"
    election.board.save(board_path)
    _dump_json(out_dir / "params.json", _params_dict(config, election))
    _dump_json(out_dir / "result.json", result.to_dict(config.candidates))
    _dump_json(
        out_dir / "manifest.json",
        {
            "config_digest": hexdigest(json.dumps(config.to_dict(), sort_keys=True)),
            "scenario_digest": hexdigest(json.dumps(data, sort_keys=True)),
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
    with _reading(args.board, "board"):
        board = Board.load(args.board)
    published, _ = _read(Published, args.params, "parameters in")
    params = GROUP_PROFILES[published.group]
    commitments = {int(i): h for i, h in published.trustee_commitments.items()}
    keys = {f"trustee_commitments[{i}]": h for i, h in commitments.items()}
    for name, value in {"election_pk": published.election_pk, **keys}.items():
        if not params.is_element(value):
            where = f"bad parameters in {args.params}"
            raise UsageError(f"{where}: {name} is not in the order-q subgroup")
    report = universal_verify(params, board, published, published.election_pk, commitments)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_coin_sim(args) -> int:
    config, _ = _read(SimConfig, args.scenario, "scenario")
    report = simulate(config, args.seed)
    out = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out_dir:
        (_out_dir(args.out_dir) / "simreport.json").write_text(out + "\n")
    print(out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        est = estimate_storage(args.n_tx, args.bytes_per_tx)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
