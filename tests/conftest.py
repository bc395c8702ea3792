import pytest
from hypothesis import settings

from evote.canonical import derive_rng
from evote.groups import TEST_GROUP

# CI runs the codec, record, multi-exponentiation and `powers` properties,
# the batch re-encryption check's agreement with the per-slot one, the batch
# decryption check's agreement with the per-proof one and the verifier's
# totality under one-byte edits once more under this profile
# (`--hypothesis-profile=ci`); tier-1 keeps Hypothesis's default.  A
# property that pins a smaller count scales it from the loaded profile's
# `settings().max_examples`.
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
