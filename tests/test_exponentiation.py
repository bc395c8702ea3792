"""GroupParams.exp, the one exponentiation of the package, against builtin pow.

On the test group every call is exactly one builtin `pow`.  On groups of
64 bits and more, full-length powers of a fixed base come from a comb
table; the tests cover the exponent lengths around each size threshold of
that rule and the bounded table cache.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evote import groups
from evote.canonical import derive_rng
from evote.groups import PROD_GROUP_3072, TEST_GROUP, GroupParams, threshold_keygen

PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@functools.cache
def _election_key(name):
    key, _ = threshold_keygen(PROFILES[name], 2, derive_rng("exp-tests", "key"))
    return key.h


def _bases(name):
    """(base, fixed): g, an election key, and a base that has no table."""
    params = PROFILES[name]
    other = params.exp(params.g, 12345) * 7 % params.p
    return [(params.g, True), (_election_key(name), True), (other, False)]


@functools.cache
def _boundary_lengths(params):
    """Bit lengths just below, at and just above each exponent threshold."""
    comb = groups._Comb(params.p, params.g)
    lengths = set()
    for edge in (comb.min_exp.bit_length(), comb.max_exp.bit_length()):
        lengths |= {edge - 1, edge, edge + 1}
    return sorted(n for n in lengths if n > 0)


def _with_length(n, low_bits):
    return (1 << (n - 1)) | (low_bits % (1 << (n - 1)) if n > 1 else 0)


def _special_exponents(params):
    return [0, 1, params.q - 1, -1]


@pytest.mark.parametrize("name", PROFILES)
def test_special_and_boundary_exponents_match_pow(name):
    params = PROFILES[name]
    boundary = [_with_length(n, 0x5DEECE66D * n) for n in _boundary_lengths(params)]
    for base, fixed in _bases(name):
        # A base without a table takes builtin pow at every length.
        exponents = _special_exponents(params) + (boundary if fixed else [])
        for e in exponents:
            assert params.exp(base, e, fixed) == pow(base, e, params.p), (base, e)


@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_exp_matches_pow(name, data):
    params = PROFILES[name]
    base, fixed = data.draw(st.sampled_from(_bases(name)))
    n = data.draw(st.sampled_from(_boundary_lengths(params)))
    e = _with_length(n, data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
    assert params.exp(base, e, fixed) == pow(base, e, params.p)


def _count_pow_calls(monkeypatch):
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groups, "pow", counting_pow, raising=False)
    return calls


def test_every_exp_on_the_test_group_is_one_builtin_pow(monkeypatch):
    params = TEST_GROUP
    calls = _count_pow_calls(monkeypatch)
    exponents = _special_exponents(params) + [
        _with_length(n, 0) for n in _boundary_lengths(params)
    ]
    for base, fixed in _bases("test"):
        for e in exponents:
            before = len(calls)
            params.exp(base, e, fixed)
            assert calls[before:] == [(base, e, params.p)]


def test_prod_takes_the_comb_only_for_full_length_powers_of_a_fixed_base(monkeypatch):
    params = PROD_GROUP_3072
    comb = groups._comb(params.p, params.g)
    g, h = params.g, _election_key("prod3072")
    calls = _count_pow_calls(monkeypatch)
    for base in (g, h):
        for e in (comb.min_exp, params.q - 1, comb.max_exp):
            params.exp(base, e, fixed=True)
    assert calls == []
    short = comb.min_exp - 1
    assert params.exp(g, short, fixed=True) == pow(g, short, params.p)
    assert params.exp(g, params.q - 1) == pow(g, params.q - 1, params.p)
    assert params.exp(g, comb.max_exp + 1, fixed=True) == pow(g, comb.max_exp + 1, params.p)
    assert len(calls) == 3


# Primes around the 64-bit modulus threshold: 2^63 - 25 has 63 bits, 2^63 + 29
# and 2^64 + 13 are the smallest primes of 64 and 65 bits.  q = p - 1 makes
# every unit a valid generator of the group GroupParams checks.
@pytest.mark.parametrize(
    "p, comb", [(2**63 - 25, False), (2**63 + 29, True), (2**64 + 13, True)]
)
def test_modulus_threshold(monkeypatch, p, comb):
    params = GroupParams(p=p, q=p - 1, g=3)
    calls = _count_pow_calls(monkeypatch)
    for e in (params.q - 1, 2**62 + 12345, 0, 1):
        assert params.exp(3, e, fixed=True) == pow(3, e, p)
    assert len(calls) == (2 if comb else 4)


@pytest.mark.parametrize("name", ["prod3072", "mersenne127"])
def test_evicted_table_is_rebuilt_with_the_same_results(name):
    params = (
        PROD_GROUP_3072 if name == "prod3072" else GroupParams(p=2**127 - 1, q=2**127 - 2, g=3)
    )
    rng = derive_rng("exp-tests", "evict", name)
    exponents = [rng.randrange(params.q) for _ in range(2)]
    first = [params.exp(params.g, e, fixed=True) for e in exponents]
    misses = groups._comb.cache_info().misses
    # One more fixed base than the cache holds pushes g's table out.
    for k in range(groups._COMB_TABLES):
        params.exp(params.exp(params.g, 1000 + k), params.q - 1, fixed=True)
    assert groups._comb.cache_info().currsize == groups._COMB_TABLES
    again = [params.exp(params.g, e, fixed=True) for e in exponents]
    assert groups._comb.cache_info().misses == misses + groups._COMB_TABLES + 1
    assert again == first == [pow(params.g, e, params.p) for e in exponents]
