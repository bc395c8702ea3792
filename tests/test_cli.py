import json
import re
import shlex
import shutil
import subprocess
from dataclasses import fields, replace
from pathlib import Path

import pytest

from evote import tally
from evote.ballotcoin import SimConfig
from evote.bulletin import KIND_RESULT, Board, ResultPayload
from evote.cli import Published, Scenario, Vote, main
from evote.errors import MixRejected
from evote.groups import TEST_GROUP
from evote.tally import ElectionConfig

from board_utils import drop_entry, flip_byte, replace_payload

CONFIG = {
    "candidates": ["alice", "bob", "carol"],
    "trustee_count": 3,
    "mix_server_count": 3,
    "proof_rounds": 20,
    "coercion_threshold": 0.05,
    "receipt_ttl": 30,
    "group": "test",
}

# No re-votes: coercion stays unflagged and run exits 0.
SCENARIO_CLEAN = {
    "voters": ["v01", "v02", "v03", "v04"],
    "votes": [
        {"voter": "v01", "candidate": 0, "time": 1},
        {"voter": "v02", "candidate": 1, "time": 2},
        {"voter": "v03", "candidate": 1, "time": 3},
        {"voter": "v04", "candidate": 2, "time": 4},
    ],
}

# One v01 re-vote: 1 revoked of 4 collected, far over the 5% threshold.
SCENARIO_REVOTE = {
    "voters": ["v01", "v02", "v03", "v04"],
    "votes": SCENARIO_CLEAN["votes"][:3]
    + [{"voter": "v01", "candidate": 2, "time": 4}],
}

P = TEST_GROUP.p

SIM_SCENARIO = {
    "rounds": 15,
    "n_voters": 30,
    "n_candidates": 3,
    "online_prob": 0.9,
    "malicious_fraction": 0.1,
    "mode": "stake_weighted",
    "vote_prob": 0.2,
    "group": "test",
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO_CLEAN))
    (tmp_path / "revote.json").write_text(json.dumps(SCENARIO_REVOTE))
    (tmp_path / "sim.json").write_text(json.dumps(SIM_SCENARIO))
    return tmp_path


def _run(workdir, scenario="scenario.json", out="out", seed=7, extra=()):
    return main(
        [
            "run",
            "--config", str(workdir / "config.json"),
            "--scenario", str(workdir / scenario),
            "--seed", str(seed),
            "--out-dir", str(workdir / out),
            *extra,
        ]
    )


def test_run_writes_artifacts(workdir, capsys):
    assert _run(workdir) == 0
    out = workdir / "out"
    for name in ("board.jsonl", "params.json", "result.json", "manifest.json"):
        assert (out / name).exists()
    result = json.loads((out / "result.json").read_text())
    assert result["counts"] == {"alice": 1, "bob": 2, "carol": 1}
    assert "counts" in capsys.readouterr().out


def test_run_coercion_flag_exits_3(workdir, capsys):
    assert _run(workdir, scenario="revote.json") == 3
    assert "coercion" in capsys.readouterr().out
    # artifacts are still published for audit
    result = json.loads((workdir / "out" / "result.json").read_text())
    assert result["revoked_count"] == 1


def test_revoked_share_equal_to_the_threshold_is_not_flagged(workdir, capsys):
    # 3 re-votes among 10 ballots is exactly the written 0.3; run and verify
    # agree that it does not flag.
    (workdir / "config.json").write_text(json.dumps({**CONFIG, "coercion_threshold": 0.3}))
    voters = [f"v{i}" for i in range(7)]
    votes = [{"voter": v, "candidate": 0, "time": t} for t, v in enumerate(voters + voters[:3])]
    (workdir / "ties.json").write_text(json.dumps({"voters": voters, "votes": votes}))
    assert _run(workdir, scenario="ties.json") == 0
    out = workdir / "out"
    result = json.loads((out / "result.json").read_text())
    assert result["revoked_count"] == 3
    assert result["coercion"]["flagged"] is False
    assert main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    ) == 0


def test_verify_accepts_clean_run(workdir, capsys):
    _run(workdir)
    capsys.readouterr()  # discard run output
    rc = main(
        [
            "verify",
            "--board", str(workdir / "out" / "board.jsonl"),
            "--params", str(workdir / "out" / "params.json"),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    assert all(report["checks"].values())


def _tamper(path: Path, tamper: dict) -> None:
    """Edit the board file at `path` through the library: flip the first
    payload byte of entry `seq`, drop it, or add a vote to the first count
    of the result and rechain, so that only the count check trips."""
    board = Board.load(path)
    seq = tamper.get("seq")
    if tamper["type"] == "flip_payload_byte":
        board = replace_payload(board, seq, flip_byte(board.entries[seq].payload), False)
    elif tamper["type"] == "drop_entry":
        board = drop_entry(board, seq, False)
    else:
        [entry] = board.find(KIND_RESULT)
        result = ResultPayload.from_bytes(entry.payload)
        counts = (result.counts[0] + 1, *result.counts[1:])
        board = replace_payload(board, entry.seq, replace(result, counts=counts).to_bytes(), True)
    board.save(path)


@pytest.mark.parametrize(
    "tamper,broken_check",
    [
        ({"type": "flip_payload_byte", "seq": 3}, "chain_integrity"),
        ({"type": "drop_entry", "seq": 3}, "chain_integrity"),
        ({"type": "alter_result_counts"}, "count_recomputation"),
    ],
)
def test_verify_rejects_tampered_run(workdir, capsys, tamper, broken_check):
    assert _run(workdir) == 0
    _tamper(workdir / "out" / "board.jsonl", tamper)
    capsys.readouterr()  # discard run output
    rc = main(
        [
            "verify",
            "--board", str(workdir / "out" / "board.jsonl"),
            "--params", str(workdir / "out" / "params.json"),
        ]
    )
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is False
    assert report["checks"][broken_check] is False


def test_alter_result_counts_keeps_chain_valid(workdir, capsys):
    assert _run(workdir) == 0
    _tamper(workdir / "out" / "board.jsonl", {"type": "alter_result_counts"})
    capsys.readouterr()  # discard run output
    assert main(
        [
            "verify",
            "--board", str(workdir / "out" / "board.jsonl"),
            "--params", str(workdir / "out" / "params.json"),
        ]
    ) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["chain_integrity"] is True
    assert report["checks"]["count_recomputation"] is False
    # The edit adds a vote to the first count; the result still decodes.
    assert "unparseable result payload" not in report["failures"]
    [failure] = report["failures"]
    assert "recomputed ResultPayload(counts=(1, 2, 1)" in failure
    assert "published ResultPayload(counts=(2, 2, 1)" in failure


def test_run_is_byte_identical_across_invocations(workdir):
    _run(workdir, out="a")
    _run(workdir, out="b")
    for name in ("board.jsonl", "params.json", "result.json", "manifest.json"):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_run_seed_changes_artifacts(workdir):
    _run(workdir, out="a", seed=7)
    _run(workdir, out="c", seed=8)
    assert (workdir / "a" / "board.jsonl").read_bytes() != (
        workdir / "c" / "board.jsonl"
    ).read_bytes()


def test_setup_writes_params_and_registry(workdir, capsys):
    rc = main(
        [
            "setup",
            "--config", str(workdir / "config.json"),
            "--scenario", str(workdir / "scenario.json"),
            "--seed", "7",
            "--out-dir", str(workdir / "setup"),
        ]
    )
    assert rc == 0
    params = json.loads((workdir / "setup" / "params.json").read_text())
    assert params["candidates"] == CONFIG["candidates"]
    assert sorted(params["trustee_commitments"]) == ["1", "2", "3"]
    assert params["election_pk"] > 0
    assert (workdir / "setup" / "registry.jsonl").exists()


def test_estimate_formats_totals(capsys):
    assert main(["estimate", "176329", "200"]) == 0
    assert capsys.readouterr().out.strip() == "35,265,800 bytes (33.6 MiB)"


def test_coin_sim_report_and_determinism(workdir, capsys):
    args = [
        "coin-sim",
        "--scenario", str(workdir / "sim.json"),
        "--seed", "5",
        "--out-dir", str(workdir / "sim_out"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["rounds"] == 15
    assert report["mode"] == "stake_weighted"
    on_disk = (workdir / "sim_out" / "simreport.json").read_text()
    assert json.loads(on_disk) == report
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_coin_sim_rounds_and_mode_come_from_the_scenario(workdir, capsys):
    sim = {**SIM_SCENARIO, "rounds": 6, "mode": "uniform"}
    (workdir / "sim.json").write_text(json.dumps(sim))
    rc = main(["coin-sim", "--scenario", str(workdir / "sim.json"), "--seed", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rounds"] == 6
    assert report["mode"] == "uniform"


# --- failure modes ---

def test_missing_config_is_usage_error(workdir, capsys):
    rc = main(
        [
            "run",
            "--config", str(workdir / "nope.json"),
            "--scenario", str(workdir / "scenario.json"),
        ]
    )
    assert rc == 4
    assert "file not found" in capsys.readouterr().err


def test_missing_board_is_usage_error(workdir, capsys):
    rc = main(
        [
            "verify",
            "--board", str(workdir / "nope.jsonl"),
            "--params", str(workdir / "config.json"),
        ]
    )
    assert rc == 4


def _verify_with_edited_params(workdir, capsys, edit):
    """Exit code and stderr of `evote verify` on the clean board, with the
    published params.json changed by `edit`."""
    _run(workdir)
    params = json.loads((workdir / "out" / "params.json").read_text())
    edit(params)
    (workdir / "bad_params.json").write_text(json.dumps(params))
    capsys.readouterr()  # discard run output
    rc = main(
        [
            "verify",
            "--board", str(workdir / "out" / "board.jsonl"),
            "--params", str(workdir / "bad_params.json"),
        ]
    )
    return rc, capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda params: params.update(coercion_threshold="0.05"),
        lambda params: params.update(proof_rounds=0),
        lambda params: params.pop("coercion_threshold"),
        lambda params: params.update(election_pk=str(params["election_pk"])),
        lambda params: params.update(election_pk=True),
        lambda params: params["trustee_commitments"].update({"2": 23}),
        lambda params: params["trustee_commitments"].update({"5": 2}),
        lambda params: params["trustee_commitments"].pop("1"),
        lambda params: params.update(trustee_commitments={}),
        lambda params: params.update(candidates=["alice", "alice", "carol"]),
        lambda params: params.update(candidates="abc"),
        lambda params: params.update(trustee_count=3),
    ],
    ids=[
        "threshold as text", "no proof rounds", "no threshold", "key as text",
        "key as bool", "commitment equal to p", "trustee 4 missing", "trustee 1 missing",
        "no trustees", "repeated candidate", "candidates as text", "unpublished key",
    ],
)
def test_bad_params_for_verify_is_usage_error(workdir, capsys, edit):
    rc, err = _verify_with_edited_params(workdir, capsys, edit)
    assert rc == 4
    assert "bad parameters" in err


# p - h is outside the order-q subgroup for every member h: the test group
# has p = 3 (mod 4), so -1 is a non-residue.
@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda params: params.update(election_pk=P - params["election_pk"]), "election_pk"),
        (
            lambda params: params["trustee_commitments"].update(
                {"2": P - params["trustee_commitments"]["2"]}
            ),
            "trustee_commitments[2]",
        ),
    ],
    ids=["election key", "commitment 2"],
)
def test_non_member_key_for_verify_is_usage_error(workdir, capsys, edit, name):
    rc, err = _verify_with_edited_params(workdir, capsys, edit)
    assert rc == 4
    assert "bad parameters" in err and name in err and "subgroup" in err


@pytest.mark.parametrize("command", ["run", "setup"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda config: config.update(bogus_knob=1),
        lambda config: config.update(candidates=[]),
        lambda config: config.update(revote_allowed=False),
    ],
    ids=["unknown key", "no candidates", "re-votes off"],
)
def test_bad_config_is_usage_error(workdir, capsys, command, edit):
    config = dict(CONFIG)
    edit(config)
    (workdir / "bad_config.json").write_text(json.dumps(config))
    rc = main(
        [
            command,
            "--config", str(workdir / "bad_config.json"),
            "--scenario", str(workdir / "scenario.json"),
            "--out-dir", str(workdir / "out"),
        ]
    )
    assert rc == 4
    assert "bad parameters" in capsys.readouterr().err
    assert not (workdir / "out").exists()


# Two votes for slot 0 and one for slot 1.
SCENARIO_TWO_SLOTS = {
    "voters": ["v01", "v02", "v03"],
    "votes": [
        {"voter": "v01", "candidate": 0, "time": 1},
        {"voter": "v02", "candidate": 0, "time": 2},
        {"voter": "v03", "candidate": 1, "time": 3},
    ],
}


# Each of these ran, or crashed with a TypeError, before the config was
# decoded by its annotations; with "candidates": ["a", "a"], result.json
# showed {"a": 1} and two votes vanished from it.
@pytest.mark.parametrize(
    "edit, field",
    [
        ({"candidates": ["a", "a"]}, "candidates"),
        ({"candidates": ["a", ""]}, "candidates[1]"),
        ({"candidates": "ab"}, "candidates"),
        ({"candidates": [1, 2]}, "candidates[0]"),
        ({"trustee_count": 2.5}, "trustee_count"),
        ({"mix_server_count": 2.5}, "mix_server_count"),
        ({"proof_rounds": 2.5}, "proof_rounds"),
        ({"trustee_count": True}, "trustee_count"),
        ({"receipt_ttl": "x"}, "receipt_ttl"),
        ({"receipt_ttl": -5}, "receipt_ttl"),
        ({"receipt_ttl": 2.5}, "receipt_ttl"),
    ],
    ids=[
        "repeated candidate", "empty candidate name", "candidates as text",
        "candidates as ints", "trustees as float", "mix servers as float",
        "proof rounds as float", "trustees as bool", "ttl as text", "negative ttl",
        "ttl as float",
    ],
)
def test_mistyped_config_field_is_usage_error(workdir, capsys, edit, field):
    config = {**CONFIG, "candidates": ["a", "b"], **edit}
    (workdir / "bad_config.json").write_text(json.dumps(config))
    (workdir / "two_slots.json").write_text(json.dumps(SCENARIO_TWO_SLOTS))
    rc = main(
        [
            "run",
            "--config", str(workdir / "bad_config.json"),
            "--scenario", str(workdir / "two_slots.json"),
            "--out-dir", str(workdir / "out"),
        ]
    )
    assert rc == 4
    assert f"{field}: " in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_vote_by_unknown_voter_is_usage_error(workdir, capsys):
    votes = SCENARIO_CLEAN["votes"] + [{"voter": "v99", "candidate": 0, "time": 5}]
    scenario = dict(SCENARIO_CLEAN, votes=votes)
    (workdir / "stranger.json").write_text(json.dumps(scenario))
    assert _run(workdir, scenario="stranger.json") == 4
    assert "'v99'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vote, field",
    [
        ({"voter": "v02", "candidate": 1}, "votes[4].time"),
        ({"voter": "v02", "candidate": "1", "time": 5}, "votes[4].candidate"),
        ({"voter": "v02", "candidate": 1, "time": "x"}, "votes[4].time"),
        ({"voter": "v02", "candidate": 7, "time": 5}, "votes[4].candidate"),
        ({"voter": "v02", "candidate": True, "time": 5}, "votes[4].candidate"),
        ({"voter": "v02", "candidate": 1, "time": -1}, "votes[4].time"),
        (["v02", 1, 5], "votes[4]"),
    ],
    ids=[
        "no time", "candidate as text", "time as text", "candidate out of range",
        "candidate as bool", "negative time", "vote as list",
    ],
)
def test_malformed_vote_is_usage_error(workdir, capsys, vote, field):
    scenario = dict(SCENARIO_CLEAN, votes=SCENARIO_CLEAN["votes"] + [vote])
    (workdir / "bad_vote.json").write_text(json.dumps(scenario))
    assert _run(workdir, scenario="bad_vote.json") == 4
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "setup"])
@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"voters": {"count": "3"}}, "voters"),
        ([1, 2], "not an object"),
        ({"voters": 5}, "voters"),
        ({"voters": ["v01"], "votes": {"voter": "v01"}}, "votes"),
        ({"voters": ["a", "a"]}, "voters: ['a', 'a']"),
        ({"voters": [1, 2]}, "voters[0]: 1"),
        ({"voters": ["v01"], "note": "x"}, "'note'"),
        ({"voters": {"count": 2, "prefix": "v"}},
         "voters: {'count': 2, 'prefix': 'v'} is not a list"),
        (dict(SCENARIO_CLEAN, tamper={"type": "drop_entry"}),
         "'tamper' is not a field of Scenario"),
    ],
    ids=["count as text", "scenario as list", "voters as int", "votes as object", "repeated voter",
         "voter ids as ints", "unknown key", "voters as object", "tamper clause"],
)
def test_malformed_scenario_is_usage_error(workdir, capsys, command, scenario, field):
    (workdir / "bad_scenario.json").write_text(json.dumps(scenario))
    rc = main(
        [
            command,
            "--config", str(workdir / "config.json"),
            "--scenario", str(workdir / "bad_scenario.json"),
            "--out-dir", str(workdir / "out"),
        ]
    )
    assert rc == 4
    assert field in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_malformed_json_is_usage_error(workdir, capsys):
    (workdir / "bad.json").write_text("{not json")
    rc = main(
        [
            "run",
            "--config", str(workdir / "bad.json"),
            "--scenario", str(workdir / "scenario.json"),
        ]
    )
    assert rc == 4
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 4


def test_missing_required_flag_is_usage_error(workdir, capsys):
    assert main(["run", "--config", str(workdir / "config.json")]) == 4


@pytest.mark.parametrize(
    "scenario",
    [
        {"bogus_knob": 1},
        {"mode": "pow"},
        {"group": "nope"},
        {"n_candidates": 0},
        {"rounds": "5"},
        {"online_prob": 2},
    ],
    ids=["unknown key", "unknown mode", "unknown group", "no candidates", "rounds as text",
         "probability above 1"],
)
def test_bad_sim_scenario_is_usage_error(workdir, capsys, scenario):
    (workdir / "badsim.json").write_text(json.dumps(scenario))
    rc = main(["coin-sim", "--scenario", str(workdir / "badsim.json")])
    assert rc == 4
    assert "bad scenario" in capsys.readouterr().err


def test_bad_sim_flag_override_is_usage_error(workdir, capsys):
    rc = main(["coin-sim", "--scenario", str(workdir / "sim.json"), "--rounds", "-1"])
    assert rc == 4
    assert "unrecognized arguments: --rounds -1" in capsys.readouterr().err


def test_negative_estimate_is_usage_error(capsys):
    assert main(["estimate", "5", "-100"]) == 4
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("setup", "--config"),
        ("run", "--config"),
        ("run", "--scenario"),
        ("coin-sim", "--scenario"),
        ("verify", "--params"),
        ("verify", "--board"),
    ],
)
def test_directory_as_input_file_is_usage_error(workdir, capsys, command, flag):
    out = workdir / "out"
    if command == "verify":
        assert _run(workdir) == 0
    files = {
        "setup": {"--config": workdir / "config.json", "--out-dir": out},
        "run": {
            "--config": workdir / "config.json",
            "--scenario": workdir / "scenario.json",
            "--out-dir": out,
        },
        "coin-sim": {"--scenario": workdir / "sim.json"},
        "verify": {"--board": out / "board.jsonl", "--params": out / "params.json"},
    }[command]
    files[flag] = workdir
    capsys.readouterr()  # discard run output
    assert main([command, *(str(arg) for pair in files.items() for arg in pair)]) == 4
    assert f"usage error: is a directory: {workdir}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["setup", "run", "coin-sim"])
def test_out_dir_that_is_a_file_is_usage_error(workdir, capsys, command):
    taken = workdir / "taken"
    taken.write_text("")
    scenario = "sim.json" if command == "coin-sim" else "scenario.json"
    args = [command, "--scenario", str(workdir / scenario), "--out-dir", str(taken)]
    if command != "coin-sim":
        args += ["--config", str(workdir / "config.json")]
    assert main(args) == 4
    assert f"cannot make the output directory {taken}" in capsys.readouterr().err


def test_pipeline_error_exits_2(workdir, capsys, monkeypatch):
    def rejected(*args):
        raise MixRejected("mix stage 0 proof rejected")

    monkeypatch.setattr(tally, "run_tally", rejected)
    assert _run(workdir) == 2
    assert "pipeline error: mix stage 0 proof rejected" in capsys.readouterr().err


README = Path(__file__).parents[1] / "README.md"


def _readme_block(marker: str) -> str:
    return README.read_text().split(marker, 1)[1].split("```", 1)[0]


def _verify_readme_run(out: Path) -> int:
    return main(
        ["verify", "--board", str(out / "board.jsonl"), "--params", str(out / "params.json")]
    )


def _run_readme_example(tmp_path: Path) -> Path:
    """The README's config and scenario run with its command; the output directory."""
    config, scenario = _readme_block("// config.json\n").split("// scenario.json\n")
    (tmp_path / "config.json").write_text(config)
    (tmp_path / "scenario.json").write_text(scenario)
    out = tmp_path / "out"
    # The example's one re-vote among four ballots is past the 5% coercion
    # threshold, so run flags it.
    assert main(
        [
            "run",
            "--config", str(tmp_path / "config.json"),
            "--scenario", str(tmp_path / "scenario.json"),
            "--seed", "42",
            "--out-dir", str(out),
        ]
    ) == 3
    return out


def test_readme_examples_run_and_verify(tmp_path, capsys):
    assert _verify_readme_run(_run_readme_example(tmp_path)) == 0


def test_readme_board_edit_fails_only_the_count_check(tmp_path, capsys, monkeypatch):
    out = _run_readme_example(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("# edit_board.py\n"), {})
    capsys.readouterr()  # discard run output
    assert _verify_readme_run(out) == 2
    report = json.loads(capsys.readouterr().out)
    assert [check for check, ok in report["checks"].items() if not ok] == ["count_recomputation"]


def test_readme_coin_sim_example_runs(tmp_path, capsys, monkeypatch):
    text = README.read_text()
    (tmp_path / "sim.json").write_text(text.split("// sim.json\n", 1)[1].split("```", 1)[0])
    command = next(line for line in text.splitlines() if line.startswith("evote coin-sim "))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command, comments=True)[1:]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["rounds"], report["mode"]) == (50, "stake_weighted")


def _names(cls, prefix=""):
    return sorted(prefix + f.name for f in fields(cls))


def test_readme_field_table_names_every_field():
    table = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("config", "scenario", "params.json", "coin-sim"):
            table.setdefault(cells[0], []).extend(re.findall(r"`([^`]+)`", cells[1]))
    assert {file: sorted(names) for file, names in table.items()} == {
        "config": _names(ElectionConfig),
        "scenario": sorted(_names(Scenario) + _names(Vote, "votes[i].")),
        "params.json": _names(Published),
        "coin-sim": _names(SimConfig),
    }


def test_console_script_entry_point(workdir):
    exe = shutil.which("evote")
    if exe is None:
        pytest.skip("package not installed with scripts")
    proc = subprocess.run(
        [exe, "estimate", "1000", "100"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "100,000 bytes (0.1 MiB)"
