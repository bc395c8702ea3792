import pytest
from hypothesis import settings

from evote.ballot import compose_ballot, encode_choice
from evote.canonical import derive_rng
from evote.groups import TEST_GROUP
from evote.tally import Election, ElectionConfig

# CI runs the codec, record, JSONL row, multi-exponentiation, netted and bisected batch
# and chain-power properties (`tests/test_exponentiation.py` whole, which holds
# `test_netted_batch_verdicts_match_pow`), the mix link claim's agreement
# with the per-slot check, the batch decryption check's agreement
# with the per-proof one, the batch ballot check's agreement with the
# per-statement one, the batch block check's agreement with the
# per-signature one, the verifier's totality under one-byte edits and the
# verdict corpus once more under this profile (`--hypothesis-profile=ci`);
# tier-1 keeps Hypothesis's default.  A property that pins a smaller count
# scales it from the loaded profile's `settings().max_examples`; the
# verdict corpus runs whole under it.
settings.register_profile("ci", max_examples=1000, deadline=None)


class StubRng:
    """Feeds predetermined values to code expecting random.Random."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, a, b=None):
        return self.values.pop(0)


@pytest.fixture
def grp():
    return TEST_GROUP


@pytest.fixture
def rng():
    return derive_rng("tests", "default")


@pytest.fixture(scope="session")
def prod_election():
    """A prod3072 election of 2 voters (v1 votes a, v2 votes b), 2 candidates
    and 2 trustees, tallied.  Its tests only read it."""
    config = ElectionConfig(
        candidates=["a", "b"], trustee_count=2, mix_server_count=1, proof_rounds=1,
        group="prod3072",
    )
    election, creds = Election.setup(config, ["v1", "v2"], seed="decryption-batch")
    for t, (vid, choice) in enumerate([("v1", 0), ("v2", 1)]):
        sb = compose_ballot(
            election.params, creds[vid], election.election_key.h, encode_choice(choice, 2),
            timestamp=t, rng=derive_rng("decryption-batch", vid),
        )
        assert election.cast(sb, now=t) is not None
    election.close_election()
    election.run_tally()
    return election


@pytest.fixture(scope="module")
def tallied():
    """Small honest election on the test group (4 voters, one re-vote, 3
    candidates), tallied, with a verifiable board."""
    config = ElectionConfig(candidates=["a", "b", "c"], proof_rounds=6)
    election, creds = Election.setup(config, ["v1", "v2", "v3", "v4"], seed=99)
    votes = [("v1", 1), ("v2", 2), ("v3", 1), ("v4", 0), ("v1", 0)]
    for i, (vid, cand) in enumerate(votes):
        sb = compose_ballot(
            election.params,
            creds[vid],
            election.election_key.h,
            encode_choice(cand, 3),
            timestamp=i,
            rng=derive_rng(99, "ballot", vid, i),
        )
        assert election.cast(sb, now=i) is not None
    election.close_election()
    election.run_tally()
    return election, config
