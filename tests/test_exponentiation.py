"""GroupParams.exp, the one exponentiation of the package, against builtin pow.

On the test group every call is exactly one builtin `pow`.  On groups of
64 bits and more, full-length powers of a fixed base come from a
full-length comb table, and 32- to 256-bit powers from a 256-bit one; the
tests cover the exponent lengths around each size threshold of that rule
and the table cache.  On prod3072 powers of members and non-members to an
exponent within 2^256 below q, such as a wrapped slot challenge, match
builtin pow, and a ballot with a wrapped challenge keeps its cast batch
short.  `powers`, one base to several exponents from a table of its own
call, and `multi_exp`, a product of powers by sliding windows, are checked
against builtin pow too, `multi_exp` at every exponent length where its
window width changes.
"""

import functools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evote import groups
from evote.ballot import compose_ballot, encode_choice, verify_ballot
from evote.canonical import derive_rng
from evote.groups import (
    PROD_GROUP_3072,
    TEST_GROUP,
    GroupParams,
    encrypt,
    partial_decrypt,
    threshold_decrypt,
    threshold_keygen,
)
from evote.registry import Registry, enroll_voter

PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}


@functools.cache
def _trustees(name):
    return threshold_keygen(PROFILES[name], 2, derive_rng("exp-tests", "key"))


def _election_key(name):
    return _trustees(name)[0].h


def _bases(name):
    """(base, fixed): g, an election key and a base that has no table."""
    params = PROFILES[name]
    other = params.exp(params.g, 12345) * 7 % params.p
    return [(params.g, True), (_election_key(name), True), (other, False)]


@functools.cache
def _boundary_lengths(params):
    """Bit lengths just below, at and just above each exponent threshold
    of both table widths (also on the test group, which never takes one)."""
    lengths = set()
    for cols in (groups._comb_cols(params.p), groups._SHORT_COLS):
        for edge in (cols, cols * groups._COMB_ROWS):
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


# A prod3072 example costs up to about 0.6 s: 5 examples in tier-1, and a
# twentieth of the loaded profile's count where that is more (50 under ci).
@pytest.mark.parametrize("name", PROFILES)
@settings(max_examples=max(5, settings().max_examples // 20), deadline=None)
@given(data=st.data())
def test_multi_exp_matches_a_product_of_pows(name, data):
    """Prefixes of 0, 1 and many pairs, drawn from a few bases so that some
    repeat, with the edge exponents 0, 1 and q - 1, ones from 2 to 2^128 and
    ones over 2^128 of up to 3,300 bits."""
    params = PROFILES[name]
    p, q = params.p, params.q
    bases = data.draw(
        st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=3)
    )
    exponents = st.one_of(
        st.sampled_from([0, 1, q - 1]),
        st.integers(min_value=2, max_value=1 << 128),
        st.integers(min_value=(1 << 128) + 1, max_value=(1 << 3300) - 1),
    )
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(bases), exponents), max_size=5))
    expected = [1]
    for base, exponent in pairs:
        expected.append(expected[-1] * pow(base, exponent, p) % p)
    for size in {0, min(1, len(pairs)), len(pairs)}:
        assert params.multi_exp(pairs[:size]) == expected[size]


def _width_changes():
    """The exponent lengths up to 3,300 bits whose window width differs
    from that of one bit less."""
    return [n for n in range(2, 3301) if groups._window_width(n) != groups._window_width(n - 1)]


def test_window_width_minimizes_the_multiplications():
    """w minimizes n / (w + 1) + 2^(w - 1), the narrower on a tie: at 6
    bits widths 1 and 2 both cost 4, at 7 bits width 2 costs less."""
    assert _width_changes() == [7, 25, 81, 241, 673, 1793]
    assert [groups._window_width(n) for n in (0, 1, 6, 7, 24, 25, 3300)] == [1, 1, 1, 2, 2, 3, 7]


@pytest.mark.parametrize("name", PROFILES)
def test_multi_exp_matches_pow_across_every_window_width(name):
    """Exponents of 1 to 3,300 bits, at, just below and just above each
    length where the window width changes, all ones or drawn at random,
    alone and all in one product."""
    params = PROFILES[name]
    base = params.exp(params.g, 12345) * 7 % params.p
    lengths = sorted({1, 2, 3300} | {n + d for n in _width_changes() for d in (-1, 0, 1)})
    pairs = []
    for n in lengths:
        drawn = derive_rng("exp-tests", "multi-exp", n).getrandbits(n) | 1 << (n - 1)
        for e in ((1 << n) - 1, drawn):
            assert params.multi_exp([(base, e)]) == pow(base, e, params.p), (n, e)
            pairs.append((base * len(pairs) % params.p, e))
    assert params.multi_exp(pairs) == math.prod(pow(b, e, params.p) for b, e in pairs) % params.p


@pytest.mark.parametrize("name", PROFILES)
def test_multi_exp_of_edge_bases_and_exponents_matches_pow(name):
    """The bases 0, 1 and p - 1, exponent 0, a base repeated with other
    exponents, and the empty product."""
    params = PROFILES[name]
    p, q = params.p, params.q
    base = params.exp(params.g, 12345)
    pairs = [
        (0, 0), (0, 5), (1, q - 1), (p - 1, 3), (p - 1, q - 1), (base, 0),
        (base, 1), (base, q - 1), (base, 1 << 300), (p - 1, 0),
    ]
    powers = [pow(b, e, p) for b, e in pairs]
    assert params.multi_exp([]) == 1
    for k, (pair, power) in enumerate(zip(pairs, powers)):
        assert params.multi_exp([pair]) == power, pair
        assert params.multi_exp(pairs[k:]) == math.prod(powers[k:]) % p, pair


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


def test_prod_takes_a_comb_only_for_full_length_or_256_bit_powers_of_a_fixed_base(
    monkeypatch,
):
    params = PROD_GROUP_3072
    (_, full), (_, short) = params._comb_widths
    g, h = params.g, _election_key("prod3072")
    calls = _count_pow_calls(monkeypatch)
    for base in (g, h):
        for e in (full.start, params.q - 1, full.stop - 1, short.start, short.stop - 1):
            params.exp(base, e, fixed=True)
    assert calls == []
    # The full-length table has four blocks, the 256-bit one a single block.
    shapes = [groups._comb(params.p, g, cols) for cols, _ in params._comb_widths]
    assert [(comb.span, len(comb.tables)) for comb in shapes] == [(96, 4), (32, 1)]
    # Too short for either table, between the two widths, too long, unmarked.
    for e in (short.start - 1, short.stop, full.start - 1, full.stop):
        assert params.exp(g, e, fixed=True) == pow(g, e, params.p)
    assert params.exp(g, params.q - 1) == pow(g, params.q - 1, params.p)
    assert len(calls) == 5


def _decrypt_slot(params, m, r):
    """Encrypt m under the 2-trustee key, then decrypt it jointly: both
    partial decryptions, then their batched proof checks in
    `threshold_decrypt`."""
    key, shares = _trustees("prod3072")
    ct = encrypt(params, key.h, m, r)
    partials = partial_decrypt(params, shares, ct)
    commitments = {share.index: share.h for share in shares}
    [plaintext] = threshold_decrypt(params, [(ct, partials)], commitments, decode_bound=1)
    return plaintext


def _record_tables(monkeypatch):
    """A weak reference to each comb table built from now on."""
    built = []
    build = groups._Comb.__init__
    monkeypatch.setattr(
        groups._Comb,
        "__init__",
        lambda comb, p, base, cols: built.append(weakref.ref(comb)) or build(comb, p, base, cols),
    )
    return built


def test_prod_decryption_takes_no_full_length_builtin_pow(monkeypatch):
    params = PROD_GROUP_3072
    _decrypt_slot(params, 0, params.q - 1)  # builds the g and election-key tables
    built = _record_tables(monkeypatch)
    calls = _count_pow_calls(monkeypatch)
    assert _decrypt_slot(params, 1, params.q - 2) == 1
    full = params._comb_widths[0][1]
    assert calls and [e for _, e, _ in calls if e in full] == []
    # One c1 table serves both partial decryptions; the batched proof checks build none.
    assert len(built) == 1


@pytest.mark.parametrize("trustees, tables", [(2, 1), (1, 0)])
def test_prod_partial_decrypt_owns_its_c1_table(monkeypatch, trustees, tables):
    """Two shares share one c1 table, which is gone once the call returns;
    one share takes builtin `pow` and builds none."""
    params = PROD_GROUP_3072
    key, shares = _trustees("prod3072")
    ct = encrypt(params, key.h, 1, params.q - 7)
    partial_decrypt(params, shares, ct)  # builds the g tables of the proofs
    built = _record_tables(monkeypatch)
    partials = partial_decrypt(params, shares[:trustees], ct)
    assert [pd.d for pd in partials] == [pow(ct.c1, s.x, params.p) for s in shares[:trustees]]
    assert len(built) == tables
    assert [ref() for ref in built] == [None] * tables


@functools.cache
def _prod_voter():
    registry = Registry(PROD_GROUP_3072)
    return registry, enroll_voter(registry, "voter0", derive_rng("exp-tests", "enroll"))


def _cast_ballot(params, choice):
    """Compose one 2-slot ballot under the 2-trustee key, check it as a
    cast does and return it."""
    registry, cred = _prod_voter()
    key = _election_key("prod3072")
    rng = derive_rng("exp-tests", "ballot", choice)
    sb = compose_ballot(params, cred, key, encode_choice(choice, 2), timestamp=1, rng=rng)
    assert verify_ballot(params, sb, registry, key)
    return sb


def test_prod_ballot_takes_no_256_bit_builtin_pow_of_g_or_the_election_key(monkeypatch):
    params = PROD_GROUP_3072
    fixed_bases = (params.g, _election_key("prod3072"))
    calls = _count_pow_calls(monkeypatch)
    _cast_ballot(params, 0)
    assert calls
    short = range(1 << 31, 1 << 256)
    assert [(b, e) for b, e, _ in calls if b in fixed_bases and e in short] == []


# Exponents of at most 256 bits; a wrapped one lies within this of q.
SHORT = 1 << (groups._SHORT_COLS * groups._COMB_ROWS)


@functools.cache
def _member_and_non_member():
    """A prod3072 subgroup member with no table, and p minus it, which lies
    outside the subgroup: p = 3 (mod 4), so -1 is a non-residue."""
    params = PROD_GROUP_3072
    member = params.exp(params.g, 12345)
    return member, params.p - member


def test_wrapped_exponents_at_the_edges_match_pow():
    params = PROD_GROUP_3072
    q = params.q
    member, non_member = _member_and_non_member()
    assert params.is_element(member) and not params.is_element(non_member)
    for e in (q - SHORT - 1, q - SHORT, q - 1, q):
        for base in (member, non_member):
            assert params.exp(base, e) == pow(base, e, params.p), (base, e)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_wrapped_exponents_match_pow(data):
    params = PROD_GROUP_3072
    base = data.draw(st.sampled_from(_member_and_non_member()))
    e = data.draw(st.integers(min_value=params.q - SHORT, max_value=params.q - 1))
    assert params.exp(base, e) == pow(base, e, params.p)


def test_a_large_group_other_than_p_2q_1_takes_no_wrapped_route(monkeypatch):
    # 2^521 - 1 is prime; with q = p - 1 membership is a full-length power.
    params = GroupParams(p=2**521 - 1, q=2**521 - 2, g=3)
    assert len(params._wrapped_exponents) == 0
    calls = _count_pow_calls(monkeypatch)
    params.exp(3, params.q - 1)
    assert calls == [(3, params.q - 1, params.p)]


def test_prod_ballot_with_a_wrapped_challenge_takes_no_long_builtin_pow(monkeypatch):
    params = PROD_GROUP_3072
    sb = _cast_ballot(params, 0)
    challenges = [e for sp in sb.encrypted.wellformed.slots for e in (sp.e0, sp.e1)]
    assert max(challenges) >= SHORT
    calls = _count_pow_calls(monkeypatch)
    assert verify_ballot(params, sb, _prod_voter()[0], _election_key("prod3072"))
    assert calls and [e for _, e, _ in calls if e >= SHORT] == []


def test_prod_wrapped_challenge_keeps_the_cast_batch_short(monkeypatch):
    """The wrapped ballot's cast check is one batch whose multi-exponentiations
    take no exponent over 400 bits: 128-bit weights times 256-bit
    challenges, plus their sums.  A wrapped challenge e crosses its equation
    as q - e; kept, it would take a chain of over 3,000 squarings."""
    params = PROD_GROUP_3072
    sb = _cast_ballot(params, 0)
    assert max(e for sp in sb.encrypted.wellformed.slots for e in (sp.e0, sp.e1)) >= SHORT
    exponents = []
    multi_exp = GroupParams.multi_exp

    def spy(self, pairs):
        pairs = list(pairs)
        exponents.extend(e for _, e in pairs)
        return multi_exp(self, pairs)

    monkeypatch.setattr(GroupParams, "multi_exp", spy)
    assert verify_ballot(params, sb, _prod_voter()[0], _election_key("prod3072"))
    assert exponents and max(e.bit_length() for e in exponents) <= 400


def test_decrypting_slots_keeps_the_g_and_election_key_tables():
    params = PROD_GROUP_3072
    _decrypt_slot(params, 0, 5)
    _cast_ballot(params, 0)
    misses = groups._comb.cache_info().misses
    for k in range(groups._COMB_TABLES + 1):
        assert _decrypt_slot(params, k % 2, params.q - 3 - k) == k % 2
    encrypt(params, _election_key("prod3072"), 1, params.q - 2)
    # The next ballot finds g and the key in both widths.
    _cast_ballot(params, 1)
    assert groups._comb.cache_info().misses == misses


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


# A prod3072 example costs up to about 0.5 s: 4 examples in tier-1, and a
# fiftieth of the loaded profile's count where that is more (20 under ci).
@pytest.mark.parametrize(
    "params",
    [TEST_GROUP, PROD_GROUP_3072, GroupParams(p=2**63 + 29, q=2**63 + 28, g=3)],
    ids=["test", "prod3072", "p64"],
)
@settings(max_examples=max(4, settings().max_examples // 50), deadline=None)
@given(data=st.data())
def test_powers_match_pow(params, data):
    """Up to 5 exponents in any order: up to 2 as long as q, so that the
    list takes a table or not, and up to 3 more, each as long as q, 256 bits
    long, within 2^256 below q, 0 or 1; of a subgroup member or any base."""
    p, q = params.p, params.q
    full = st.integers(min_value=1 << (q.bit_length() - 1), max_value=q - 1)
    exponent = st.one_of(
        full,
        st.integers(min_value=1 << 255, max_value=SHORT - 1),
        st.integers(min_value=max(q - SHORT, 0), max_value=q - 1),
        st.sampled_from([0, 1]),
    )
    member = params.exp(params.g, 12345)
    base = data.draw(st.one_of(st.sampled_from([params.g, member]), st.integers(1, p - 1)))
    drawn = data.draw(st.lists(full, max_size=2)) + data.draw(st.lists(exponent, max_size=3))
    exponents = data.draw(st.permutations(drawn))
    assert params.powers(base, exponents) == [pow(base, e, p) for e in exponents]


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


# `batch_verdicts` raises each base once, to its net exponent over every
# equation of the batch: a fixed member's mod q through its comb, every other
# base's size mod p - 1, the positive and the negative ones in a
# `multi_exp` each.  A failed batch is bisected.  Its verdicts must be those
# of every equation evaluated by builtin pow.
@functools.cache
def _batch_bases():
    """Named prod3072 bases: g and an election key, both fixed members; a
    member and a non-member without tables; and p minus the key, passed as
    fixed though it lies outside the subgroup."""
    params = PROD_GROUP_3072
    member, non_member = _member_and_non_member()
    key = _election_key("prod3072")
    return {
        "g": params.g, "key": key, "member": member, "non-member": non_member,
        "negated key": params.p - key,
    }


_Q, _P = PROD_GROUP_3072.q, PROD_GROUP_3072.p
# Long exponents: full length, wrapped (within 2^256 below q), q, p - 1 and
# past it.  At 3072 bits each costs builtin pow about 90 ms (2-vCPU Xeon VM),
# so the cases draw them from this list and `_pow` keeps every power.
_FULL = (1 << 3070) + 0x5DEECE66D
_LONG = [_FULL, _Q - 7, _Q - 1, _Q, _P - 1, _P + 4, 2 * _P - 3]


@functools.cache
def _pow(base, exponent):
    return pow(base, exponent, _P)


def _value(pairs):
    return math.prod(_pow(b, e) for b, e in pairs) % _P


def _unreachable(params, claim):
    raise AssertionError("a claim the batch admits was checked exactly")


def _assert_batch_matches_pow(spec):
    """spec: systems, each a list of equations (lhs, rhs, off) with sides of
    (base name, exponent) pairs.  Each equation's rhs gains a last base that
    makes it hold, or, when off, fail by a factor g, a member, so that the
    system still joins the batch.  Each verdict is its own system's, and no
    system is checked exactly."""
    params = PROD_GROUP_3072
    bases = _batch_bases()
    fixed = {bases[name] for name in ("g", "key", "negated key")}
    systems, expected = [], []
    for system in spec:
        equations, holds = [], True
        for lhs, rhs, off in system:
            lhs = tuple((bases[name], e) for name, e in lhs)
            rhs = tuple((bases[name], e) for name, e in rhs)
            last = _value(lhs) * pow(_value(rhs), -1, _P) * params.g**off % _P
            rhs += ((last, 1),)
            holds &= _value(lhs) == _value(rhs)
            marked = (tuple((b, e, b in fixed) for b, e in side) for side in (lhs, rhs))
            equations.append(tuple(marked))
        systems.append(tuple(equations))
        expected.append(holds)
    assert groups.batch_verdicts(params, systems, lambda _, s: s, _unreachable) == expected


# A 300-bit exponent, for the cases where length does not matter.
_MID = (1 << 299) + 0x5DEECE66D

BATCHES = {
    "bases on both sides and across systems": [
        [([("member", _MID), ("g", _MID)], [("member", 77), ("non-member", _MID)], 0)],
        [
            ([("non-member", 5), ("key", _MID)], [("g", _Q - 1), ("member", _MID)], 0),
            ([("member", 3), ("g", 9)], [("non-member", 6), ("key", 2)], 0),
        ],
    ],
    "exponents past p - 1": [
        [([("non-member", 2 * _P - 3), ("member", _P + 4)], [("non-member", _P + 4)], 0)],
        [([("negated key", _P + 4), ("g", _P - 1)], [("non-member", _MID)], 0)],
    ],
    "wrapped exponents on members and non-members": [
        [([("member", _Q - 7), ("g", _Q - 1)], [("non-member", _Q - 7)], 0)],
        [([("negated key", _Q - 1)], [("non-member", _MID), ("key", _Q - 7)], 0)],
    ],
    "net exponents that cancel": [
        [([("non-member", _FULL), ("member", 5)], [("non-member", _FULL)], 0)],
        [([("g", _MID), ("key", 3)], [("g", _MID), ("member", _Q - 7)], 0)],
    ],
    "one false equation among true ones": [
        [([("member", _MID)], [("non-member", _Q - 7)], 0)],
        [
            ([("g", 5)], [("member", 7)], 0),
            ([("non-member", _MID)], [("g", _FULL), ("member", 9)], 1),
        ],
        [([("key", _FULL)], [], 0)],
    ],
    "two false equations": [
        [([("member", _MID)], [("non-member", _Q - 7)], 1)],
        [([("g", 5)], [("member", 7)], 0)],
        [
            ([("key", 3)], [("g", _FULL)], 0),
            ([("non-member", _MID)], [("member", 9)], 1),
        ],
        [([("negated key", _P + 4)], [("g", _MID)], 0)],
    ],
    "every equation false": [
        [([("member", _MID)], [("non-member", _Q - 7)], 1)],
        [([("g", 5), ("key", _FULL)], [("member", 7)], 1)],
        [([("non-member", 2 * _P - 3)], [], 1)],
    ],
}


@pytest.mark.parametrize("case", BATCHES)
def test_prod_netted_batch_matches_pow(case):
    _assert_batch_matches_pow(BATCHES[case])


# A prod3072 example costs about 0.2 s once its long powers are kept: 5
# examples in tier-1, and a twentieth of the loaded profile's count where
# that is more (50 under ci).
@settings(max_examples=max(5, settings().max_examples // 20), deadline=None)
@given(data=st.data())
def test_netted_batch_verdicts_match_pow(data):
    """Up to 3 systems of up to 2 equations, each side up to 2 pairs drawn
    from the named bases, so that bases repeat on both sides and across
    systems, and maybe a pair on both sides, whose net exponent cancels;
    exponents 0, 1, up to 2^128 or long; about one equation in four false,
    so that some batches have one false system, some several and some
    only false ones."""
    exponents = st.one_of(st.integers(min_value=0, max_value=1 << 128), st.sampled_from(_LONG))
    pairs = st.lists(st.tuples(st.sampled_from(list(_batch_bases())), exponents), max_size=2)
    spec = []
    for _ in range(data.draw(st.integers(1, 3))):
        system = []
        for _ in range(data.draw(st.integers(1, 2))):
            lhs, rhs = data.draw(pairs), data.draw(pairs)
            if data.draw(st.booleans()):
                both = data.draw(pairs)
                lhs, rhs = lhs + both, both + rhs
            system.append((lhs, rhs, int(data.draw(st.integers(0, 3)) == 0)))
        spec.append(system)
    _assert_batch_matches_pow(spec)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_one_false_claim_among_n_costs_at_most_2_log_n_plus_1_batches(monkeypatch, n):
    """n claims of one equation each, on members without tables, the k-th
    false for each k in turn: the batch and its bisection take at most
    2 * ceil(log2 n) + 1 batches and name exactly the k-th, and no admitted
    claim is checked exactly.  A claim without equations takes its own
    check."""
    params = PROD_GROUP_3072
    bases = [params.exp(params.g, 1000 + i) for i in range(n)]
    sizes, check = [], groups._batch_holds

    def spy(params, equations, member):
        sizes.append(len(equations))
        return check(params, equations, member)

    monkeypatch.setattr(groups, "_batch_holds", spy)
    for bad in range(n):
        claims = [
            ((((b, i + 1, False),), ((b, i + 1 + (i == bad), False),)),)
            for i, b in enumerate(bases)
        ]
        sizes.clear()
        verdicts = groups.batch_verdicts(params, claims, lambda _, c: c, _unreachable)
        assert verdicts == [i != bad for i in range(n)]
        assert sizes[0] == n and len(sizes) <= 2 * math.ceil(math.log2(n)) + 1
    assert groups.batch_verdicts(params, [True, False], lambda *_: None, lambda _, c: c) == [
        True, False
    ]


def test_a_failed_batch_splits_long_powers_off_then_halves_them(monkeypatch):
    """A long power, a full-length exponent of a base without a comb, costs
    a batch a chain of over 3,000 squarings.  The k-th of 16 claims false,
    for each k, among others: the batches on its path check at most 3
    times the first batch's equations and 3 times its long powers,
    wherever it stands, and after the first no batch holds both.
    - 16 claims of one equation behind a true one of 16, no long power:
      each split halves the equations;
    - 16 claims of one long power, each behind a true claim of one short
      equation: the short claims split off and pass in one batch, then the
      long ones halve;
    - 16 claims of one short equation, each behind a true claim of one
      long power: the long claims pass in one batch, the short ones halve."""
    params = PROD_GROUP_3072
    bases = [params.exp(params.g, 2000 + i) for i in range(32)]
    long, half = params.q // 3, params.p.bit_length() // 2
    batches, check = [], groups._batch_holds

    def spy(params, equations, member):
        powers = [sum(e.bit_length() > half for _, e, _ in lhs + rhs) for lhs, rhs in equations]
        batches.append((len(equations), sum(powers), powers.count(0)))
        return check(params, equations, member)

    def claim(base, exponent, false=False):
        return ((((base, exponent, False),), ((base, exponent + false, False),)),)

    heavy = tuple(eq for b in bases[16:] for eq in claim(b, 3))
    monkeypatch.setattr(groups, "_batch_holds", spy)
    for bad in range(16):
        pairs = list(zip(bases[:16], bases[16:]))
        cases = {
            "equations": ([heavy] + [claim(b, 1, i == bad) for i, b in enumerate(bases[:16])],
                          bad + 1),
            "long false": ([c for i, (b, d) in enumerate(pairs)
                            for c in (claim(d, 1), claim(b, long + i, i == bad))], 2 * bad + 1),
            "short false": ([c for i, (b, d) in enumerate(pairs)
                             for c in (claim(d, long + i), claim(b, 1, i == bad))], 2 * bad + 1),
        }
        for case, (claims, false) in cases.items():
            batches.clear()
            verdicts = groups.batch_verdicts(params, claims, lambda _, c: c, _unreachable)
            assert verdicts == [i != false for i in range(len(claims))], case
            (equations, powers, _), *later = batches
            assert equations == 32 and sum(n for n, _, _ in batches) <= 3 * equations, case
            assert sum(n for _, n, _ in batches) <= 3 * powers, case
            assert not any(n and short for _, n, short in later), case
