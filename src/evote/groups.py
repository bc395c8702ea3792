"""Cyclic-group arithmetic and exponential ElGamal.

Messages live in the exponent (g^m), so multiplying ciphertexts adds
plaintexts.  Every decryption, and the verifier's check of one, divides c2
by the ciphertext's blinds in `unblind`; decoding scans 0..decode_bound.
Includes re-encryption and an additive n-of-n split of the election secret.

Every modular exponentiation in the package goes through GroupParams.exp.
On large groups, powers of a recurring base use Lim-Lee comb tables sized to
the exponent.  g and each election key have a full-length table and a
256-bit one, the size of every Fiat-Shamir nonce and challenge, in one small
cache.  `GroupParams.powers` raises one base to several exponents, as
`partial_decrypt` raises a c1 to every trustee's share, from a full-length
table that lives only for that call.  Every other power is one builtin `pow`
call.  `multi_exp` makes a product of powers by sliding windows on one
chain of squarings, each window's width chosen from its exponent's length.
When p = 2q + 1 and q has over 128 bits (`GroupParams.batches`),
`batch_verdicts` decides claims (the equations b^z = t*y^e of a proof or a
signature, a mix stage's re-encryptions x*b^r = y) in small-exponent
batches of net exponents, bisecting a failed one.  A check holds a failure
that rests on a proof back as a `Pending` claim, and `settle` decides a
check's, or a whole board's, in one call; elsewhere claims decide at once.

`fan_out` maps a function over independent jobs, shared out across the
host's CPUs by forked children on a group above `_COMB_MIN_P`, and serially
anywhere else, with the same results in the same order.  It makes the
tally's partial decryptions (one job per ciphertext), a mix stage's
re-encryptions (one per item) and a batch's two `multi_exp` products when
a side has a full-length power that no comb serves.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import marshal
import math
import os
import random
import sys
import threading
import typing
from dataclasses import dataclass, fields, is_dataclass

from .canonical import Record, digest
from .errors import (
    DecodeRangeError,
    DuplicateShareError,
    InvalidPartialProof,
    MissingShareError,
)

# RFC 3526 group 15: 3072-bit MODP safe prime, generator 2.  p = 2q+1 with q
# prime, and p = 7 (mod 8) makes 2 a quadratic residue, so 2 generates the
# order-q subgroup used here.
_RFC3526_3072_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)


# Lim-Lee comb ("More Flexible Exponentiation with Precomputation", CRYPTO
# 1994): an exponent of up to ROWS * cols bits is read as a ROWS x cols bit
# matrix, and the columns are split into blocks of `span` columns.  Each
# block has a table of the 2^ROWS products of its row bases, so one power
# costs span - 1 squarings and up to cols multiplications.  A table's width
# is its column count, and its block count follows from the width:
# - full length, enough columns for ROWS rows to cover p, in BLOCKS blocks:
#   at 3072 bits, 384 columns cost 95 squarings + 384 multiplications
#   against about 3,600 mulmods for builtin `pow`, from 1,024 entries (about
#   0.44 MB);
# - SHORT_COLS, for exponents of up to 256 bits, in one block: 31 squarings
#   + 32 multiplications against about 300, from 256 entries (about 0.1 MB).
_COMB_ROWS = 8
_COMB_BLOCKS = 4
_SHORT_COLS = 32
# Below this modulus size builtin `pow` is as fast as the interpreted comb.
_COMB_MIN_P = 1 << 63
# Tables kept at once: g and the election key in both widths, with room to
# spare.
_COMB_TABLES = 8

# Bytes of each weight of a small-exponent batch.
_WEIGHT_BYTES = 16


def _window_width(bits: int) -> int:
    """The sliding-window width w for an exponent of `bits` bits: the one
    that minimizes the multiplications, about bits / (w + 1) for the
    windows plus 2^(w - 1) for the table of odd powers; a tie takes the
    narrower."""
    widths = range(1, max(bits, 1).bit_length() + 1)
    return min(widths, key=lambda w: bits / (w + 1) + (1 << (w - 1)))


def _comb_cols(p: int) -> int:
    """Columns of the full-length comb modulo p: ROWS rows of them cover
    every bit of p, and they split evenly into BLOCKS blocks."""
    return -(-p.bit_length() // (_COMB_ROWS * _COMB_BLOCKS)) * _COMB_BLOCKS


class _Comb:
    """Fixed-base comb table `cols` columns wide for one base modulo one p."""

    def __init__(self, p: int, base: int, cols: int):
        self.p = p
        self.cols = cols
        blocks = _COMB_BLOCKS if cols > _SHORT_COLS else 1
        self.span = span = cols // blocks
        # powers[k] = base^(2^(k * span)); row r of block j uses k = r*blocks + j.
        powers = [base % p]
        for _ in range(_COMB_ROWS * blocks - 1):
            x = powers[-1]
            for _ in range(span):
                x = x * x % p
            powers.append(x)
        self.tables = []
        for j in range(blocks):
            table = [1]
            for r in range(_COMB_ROWS):
                row_base = powers[r * blocks + j]
                table += [t * row_base % p for t in table]
            self.tables.append(table)

    def power(self, exponent: int) -> int:
        p, span, cols = self.p, self.span, self.cols
        mask = (1 << cols) - 1
        rows = [(exponent >> (r * cols)) & mask for r in reversed(range(_COMB_ROWS))]
        acc = 1
        for k in reversed(range(span)):
            acc = acc * acc % p
            for j, table in enumerate(self.tables):
                column = j * span + k
                index = 0
                for row in rows:
                    index = (index << 1) | ((row >> column) & 1)
                if index:
                    acc = acc * table[index] % p
        return acc


@functools.lru_cache(maxsize=_COMB_TABLES)
def _comb(p: int, base: int, cols: int) -> _Comb:
    return _Comb(p, base, cols)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity (Cohen,
    "A Course in Computational Algebraic Number Theory", Algorithm 1.4.10)."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        # (2/n) = -1 exactly when n = 3 or 5 (mod 8).
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        # Reciprocity flips the sign when a and n are both 3 (mod 4).
        if a & n & 2:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


@dataclass(frozen=True)
class GroupParams(Record):
    """Prime-order-q subgroup of Z*_p.

    Invariants: q divides p-1, g generates the subgroup (g != 1, g^q = 1).
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if (self.p - 1) % self.q != 0:
            raise ValueError("q must divide p-1")
        if self.g == 1 or not self.is_element(self.g):
            raise ValueError("g must generate the order-q subgroup")

    def exp(self, base: int, exponent: int, fixed: bool = False) -> int:
        """base^exponent mod p; a negative exponent inverts first.

        `fixed` marks a base that recurs, g or an election key.  On a group
        of at least 64 bits, a power of a marked base with a full-length
        exponent uses that base's full-length comb table, and one with 32 to
        256 bits its 256-bit table; each table is built on first use, in one
        small cache.  Any other power never builds one: exponents between
        the two widths, negative ones and every power of an unmarked base.
        """
        if self.p > _COMB_MIN_P and fixed:
            for cols, exponents in self._comb_widths:
                if exponent in exponents:
                    return _comb(self.p, base, cols).power(exponent)
        return pow(base, exponent, self.p)

    def powers(self, base: int, exponents: list[int]) -> list[int]:
        """`exp(base, e)` for each e in `exponents`, in order.  On a group of
        at least 64 bits, when two or more exponents are full length, one
        full-length comb table of base serves them; it is built here and
        dropped on return.  At 3072 bits a table takes about 95 ms to build
        and 13 ms a power, and builtin `pow` about 90 ms (CPython 3.11, 2-vCPU
        Xeon VM), so one exponent takes `pow`."""
        if self.p > _COMB_MIN_P:
            cols, full = self._comb_widths[0]
            if sum(e in full for e in exponents) > 1:
                comb = _Comb(self.p, base, cols)
                return [comb.power(e) if e in full else self.exp(base, e) for e in exponents]
        return [self.exp(base, e) for e in exponents]

    def multi_exp(self, pairs) -> int:
        """The product of base^exponent mod p over (base, exponent) pairs,
        exponents non-negative, by interleaved sliding windows (Möller,
        "Algorithms for multi-exponentiation", SAC 2001).  Each exponent is
        cut into odd windows of at most `_window_width` of its length bits,
        each read from a table of its base's odd powers, and every window's
        multiplication lands on one chain of squarings that all the powers
        share."""
        p = self.p
        # steps[k]: the odd powers multiplied in k squarings before the end,
        # so that each is raised to 2^k.
        steps: dict[int, list[int]] = {}
        for base, exponent in pairs:
            width = _window_width(exponent.bit_length())
            odd = [base % p]
            if width > 1:
                square = odd[0] * odd[0] % p
                for _ in range((1 << (width - 1)) - 1):
                    odd.append(odd[-1] * square % p)
            shift = 0
            while exponent:
                zeros = (exponent & -exponent).bit_length() - 1
                exponent >>= zeros
                shift += zeros
                steps.setdefault(shift, []).append(odd[(exponent & ((1 << width) - 1)) >> 1])
                exponent >>= width
                shift += width
        acc = 1
        for k in reversed(range(max(steps, default=-1) + 1)):
            acc = acc * acc % p
            for factor in steps.get(k, ()):
                acc = acc * factor % p
        return acc

    @functools.cached_property
    def _comb_widths(self) -> tuple[tuple[int, range], tuple[int, range]]:
        """(cols, exponents it takes) of the full-length table, then of the
        256-bit one.  A table takes exponents from `cols` bits up, since
        shorter ones are cheaper with builtin `pow` or a narrower table, to
        ROWS * cols bits, the most its bit matrix holds."""
        return tuple(
            (cols, range(1 << (cols - 1), 1 << (cols * _COMB_ROWS)))
            for cols in (_comb_cols(self.p), _SHORT_COLS)
        )

    @property
    def batches(self) -> bool:
        """p = 2q + 1, and q is longer than a batch's weights.  Not cached:
        a cached_property writes the instance's __dict__, which slows every
        later attribute read of the group by about a third (CPython 3.11)."""
        return self.p == 2 * self.q + 1 and self.q.bit_length() > 8 * _WEIGHT_BYTES

    @functools.cached_property
    def _wrapped_exponents(self) -> range:
        """Exponents longer than 256 bits but within 2^256 below q, such as
        a slot challenge e - e_fake that wrapped mod q: a subgroup member
        takes them as e - q in `batch_verdicts`.  Empty unless
        p = 2q + 1, where `is_element` is a Jacobi symbol rather than a
        full-length power."""
        if self.p != 2 * self.q + 1:
            return range(0)
        short = 1 << (_SHORT_COLS * _COMB_ROWS)
        return range(max(self.q - short, short), self.q)

    def is_scalar(self, x: int) -> bool:
        return 0 <= x < self.q

    def is_element(self, x: int) -> bool:
        """x lies in the order-q subgroup: 1 <= x < p and x^q = 1.  When
        p = 2q + 1 that subgroup is the quadratic residues, so by Euler's
        criterion x^q = 1 exactly when the Jacobi symbol (x/p) is 1, which
        costs about 1 ms at 3072 bits against a full-length power."""
        if not 1 <= x < self.p:
            return False
        if self.p == 2 * self.q + 1:
            return _jacobi(x, self.p) == 1
        return self.exp(x, self.q) == 1


# Small group for tests and worked examples: order-11 subgroup of Z*_23.
TEST_GROUP = GroupParams(p=23, q=11, g=2)

# Production profile matching a 3072-bit key-length requirement.
PROD_GROUP_3072 = GroupParams(
    p=_RFC3526_3072_P, q=(_RFC3526_3072_P - 1) // 2, g=2
)

GROUP_PROFILES = {"test": TEST_GROUP, "prod3072": PROD_GROUP_3072}
# A config's `group`: the name of one of the profiles.
GroupName = typing.Literal[tuple(GROUP_PROFILES)]


@dataclass(frozen=True)
class Ciphertext(Record):
    c1: int
    c2: int


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


@dataclass(frozen=True)
class TrusteeKeyShare:
    """One trustee's additive share x_i with public commitment h_i = g^x_i."""

    index: int
    x: int
    h: int


@dataclass(frozen=True)
class ElectionKey:
    """Joint public key h = prod(h_i); decrypting needs every trustee's share."""

    h: int


@dataclass(frozen=True)
class PartialDecryption:
    trustee_index: int
    d: int
    proof: "object"  # zkp.DecryptionProof; typed loosely to avoid a cycle


def rand_scalar(params: GroupParams, rng: random.Random) -> int:
    """Uniform in [1, q): a zero draw is retried."""
    x = rng.randrange(params.q)
    while x == 0:
        x = rng.randrange(params.q)
    return x


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """Fresh key pair with sk uniform in [1, q-1]; a zero draw is retried."""
    sk = rand_scalar(params, rng)
    return KeyPair(sk=sk, pk=params.exp(params.g, sk, fixed=True))


def encrypt(params: GroupParams, pk: int, m: int, r: int) -> Ciphertext:
    """(g^r, g^m * pk^r).  r = 0 is rejected: it would make the ciphertext
    distinguishable after re-encryption and leaks g^m directly."""
    if r == 0:
        raise ValueError("encryption randomness must be nonzero")
    if not params.is_scalar(r):
        raise ValueError("randomness out of scalar range")
    if m < 0:
        raise ValueError("plaintext exponent must be non-negative")
    c1 = params.exp(params.g, r, fixed=True)
    c2 = (params.exp(params.g, m, fixed=True) * params.exp(pk, r, fixed=True)) % params.p
    return Ciphertext(c1, c2)


def decode_exponent(params: GroupParams, target: int | None, decode_bound: int) -> int:
    """The m <= decode_bound with g^m = target, by linear scan; a None target has none."""
    if target is None:
        raise DecodeRangeError("c1 is 0 mod p, so no plaintext decodes")
    acc = 1
    for m in range(decode_bound + 1):
        if acc == target:
            return m
        acc = (acc * params.g) % params.p
    raise DecodeRangeError(f"no exponent <= {decode_bound} matches")


def unblind(params: GroupParams, ct: Ciphertext, blinds) -> int | None:
    """g^m = c2 / prod(blinds) mod p, for blinds c1^sk or the partials c1^x_i;
    None when the product is 0 mod p, as when c1 is: it has no inverse."""
    product = math.prod(blinds) % params.p
    return None if product == 0 else ct.c2 * params.exp(product, -1) % params.p


def decrypt(params: GroupParams, sk: int, ct: Ciphertext, decode_bound: int) -> int:
    return decode_exponent(params, unblind(params, ct, [params.exp(ct.c1, sk)]), decode_bound)


def reencrypt(params: GroupParams, pk: int, ct: Ciphertext, r_prime: int) -> Ciphertext:
    """Re-randomize without the secret key: (c1*g^r', c2*pk^r')."""
    c1 = (ct.c1 * params.exp(params.g, r_prime, fixed=True)) % params.p
    c2 = (ct.c2 * params.exp(pk, r_prime, fixed=True)) % params.p
    return Ciphertext(c1, c2)


def reencrypts_to(
    params: GroupParams, pk: int, ct: Ciphertext, r: int, target: Ciphertext
) -> bool:
    """reencrypt(params, pk, ct, r) == target, without building the record."""
    p = params.p
    return (
        ct.c1 * params.exp(params.g, r, fixed=True) % p == target.c1
        and ct.c2 * params.exp(pk, r, fixed=True) % p == target.c2
    )


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A job's result that `fan_out` has not got yet.
_MISSING = object()


def fan_out(params: GroupParams, fn, jobs) -> list:
    """`[fn(*job) for job in jobs]`, in order, shared out across the CPUs
    this process may use when that pays: on a group above `_COMB_MIN_P`,
    with two or more jobs and CPUs, where `os.fork` exists and the process
    runs one thread.  Anywhere else it is that serial map.

    Each extra CPU gets one child, forked, so that it starts with this
    process's modules and warm comb tables.  Child k pins itself to one CPU,
    so a `fan_out` inside its jobs runs serially; it runs every width-th job
    from the k-th, sends the results back through a pipe by `marshal` and
    leaves by `os._exit`.  The parent runs the share from job 0 meanwhile,
    then reads and reaps every child, in a `finally`.  A share that a child
    did not send, and the parent's own from a job that raised, run again in
    the parent in job order, so an exception is raised where the serial map
    raises it.  Results are built of ints, strs, bytes, None, tuples, lists
    and module-level dataclasses of those."""
    jobs = list(jobs)
    width = min(_cpus(), len(jobs)) if params.p > _COMB_MIN_P else 1
    if width < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(*job) for job in jobs]
    results, sources, pids = [_MISSING] * len(jobs), [], []
    try:
        for k in range(1, width):
            r, w = os.pipe()
            sources.append(open(r, "rb"))
            with open(w, "wb") as sink:
                if not (pid := os.fork()):
                    code = 1
                    try:
                        if hasattr(os, "sched_setaffinity"):
                            cpus = sorted(os.sched_getaffinity(0))
                            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                        sink.write(marshal.dumps([_to_wire(fn(*job)) for job in jobs[k::width]]))
                        sink.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        try:
            for i in range(0, len(jobs), width):
                results[i] = fn(*jobs[i])
        except Exception:  # raised again below, where the serial map raises it
            pass
        shares = [source.read() for source in sources]
    finally:
        for source in sources:
            source.close()
        sent = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 for pid in pids]
    for k, (share, ok) in enumerate(zip(shares, sent), 1):
        if ok:
            results[k::width] = map(_from_wire, marshal.loads(share))
    return [fn(*job) if result is _MISSING else result for result, job in zip(results, jobs)]


def _to_wire(value):
    """`value` as `marshal` takes it: a dataclass as {(module, class name): its fields}."""
    if is_dataclass(value):
        cls = type(value)
        state = tuple(_to_wire(getattr(value, f.name)) for f in fields(value))
        return {(cls.__module__, cls.__name__): state}
    if type(value) in (tuple, list):
        return type(value)(map(_to_wire, value))
    return value


def _from_wire(value):
    """The value that `_to_wire` gave `value`."""
    if type(value) is dict:
        [((module, name), state)] = value.items()
        return getattr(sys.modules[module], name)(*map(_from_wire, state))
    if type(value) in (tuple, list):
        return type(value)(map(_from_wire, value))
    return value


def batch_verdicts(params: GroupParams, claims, equations, exact) -> list[bool]:
    """Whether each claim holds: `exact(params, claim)` is its own check,
    `equations(params, claim)` its equations prod(lhs) = prod(rhs), sides of
    (base, exponent >= 0, fixed) triples (`fixed` marks a comb base), or None.

    On a group that batches, the admitted claims go to one batch; a failed
    batch of more than one is split in two, each batched with fresh weights
    (Pastuszak, Michalek, Pieprzyk and Seberry, PKC 2000), and a claim that
    fails alone is false, since a true batch always passes.  When the first
    half passes, the second holds the false claim, so it is split without a
    batch of its own; a false claim in the first that passed, at most 2^-128
    likely, would leave a true one in the second rejected.  A batch's cost
    is set by its `_long_powers`, each a full-length chain of squarings, so
    a failed batch whose claims have them and have none splits between
    those claims first, the ones without first; else into halves of about
    equal long powers, or of about equal equation counts where no claim has
    one.  Admitted: bases in [1, p), each lhs / rhs a member
    (odd-exponent bases multiply to a quadratic residue), as soundness
    needs.  `exact` decides the rest, and all on a group that does not batch.
    """
    if not params.batches:
        return [exact(params, claim) for claim in claims]
    p, member = params.p, functools.cache(params.is_element)

    def admitted(lhs, rhs) -> bool:
        triples = lhs + rhs
        odd = math.prod(b for b, e, _ in triples if e & 1)
        return all(0 < b < p for b, _, _ in triples) and _jacobi(odd, p) == 1

    def split(ks: list[int], failed: bool = False) -> dict[int, bool]:
        """The verdicts of claims `ks`, whose batch is run unless it is
        known to have `failed`."""
        if not failed:
            joined = list(dict.fromkeys(itertools.chain.from_iterable(systems[k] for k in ks)))
            if not ks or _batch_holds(params, joined, member):
                return dict.fromkeys(ks, True)
        if len(ks) == 1:
            return {ks[0]: False}
        short = [k for k in ks if not long(k)]
        if 0 < len(short) < len(ks):
            first, second = short, [k for k in ks if long(k)]
        else:
            sizes = list(itertools.accumulate(long(k) or len(systems[k]) for k in ks))
            half = min(bisect.bisect_left(sizes, sizes[-1] / 2) + 1, len(ks) - 1)
            first, second = ks[:half], ks[half:]
        proved = split(first)
        return proved | split(second, failed=all(proved.values()))

    systems = [equations(params, claim) for claim in claims]
    batched = [k for k, s in enumerate(systems) if s and all(itertools.starmap(admitted, s))]
    long = functools.cache(lambda k: _long_powers(params, systems[k]))
    proved = split(batched)
    return [proved[k] if k in proved else exact(params, claim) for k, claim in enumerate(claims)]


def _long_powers(params: GroupParams, system) -> int:
    """How many of a system's powers take a full-length chain of squarings in
    its batch: those of a base without a comb (not `fixed`) to an exponent
    longer than half of p, other than a wrapped one."""
    half, wrapped = params.p.bit_length() // 2, params._wrapped_exponents
    return sum(
        not mark and exponent.bit_length() > half and exponent not in wrapped
        for lhs, rhs in system for _, exponent, mark in lhs + rhs
    )


def _batch_holds(params: GroupParams, equations: list, member) -> bool:
    """One small-exponent batch (Bellare, Garay and Rabin, EUROCRYPT 1998):
    with 128-bit weights w hashed from p, g and every equation, prod
    (lhs / rhs)^w = 1 holds for a false equation with probability at most
    2^-128 per hash trial.  Each base is raised once, to its net exponent,
    left less right; a member takes a wrapped exponent e as e - q, and a
    fixed member its net exponent mod q through its comb, every other base
    its size mod p - 1, by `multi_exp` (positive ones, then negative).  When
    a side has an exponent longer than half of p, a full-length power that
    no comb serves (as a partial decryption's c1^z has), `fan_out` makes
    the two products at once; shorter sides, as a cast ballot's or a mix
    stage's, are cheaper made one after the other."""
    p, q, wrapped = params.p, params.q, params._wrapped_exponents
    seed = digest("evote/groups/batch-weights", p, params.g, equations)
    net, fixed = {}, set()
    for k, (lhs, rhs) in enumerate(equations):
        w = int.from_bytes(digest(seed, k)[:_WEIGHT_BYTES], "big")
        for weight, triples in ((w, lhs), (-w, rhs)):
            for base, exponent, mark in triples:
                if mark:
                    fixed.add(base)
                if exponent in wrapped and member(base):
                    exponent -= q
                net[base] = net.get(base, 0) + weight * exponent
    acc, sides = 1, ([], [])  # the positive net exponents, then the negative ones
    for base, exponent in net.items():
        if base in fixed and member(base):
            acc = acc * params.exp(base, exponent % q, fixed=True) % p
        elif exponent:
            sides[exponent < 0].append((base, abs(exponent) % (p - 1)))
    half = p.bit_length() // 2
    if any(exponent.bit_length() > half for side in sides for _, exponent in side):
        positive, negative = fan_out(params, params.multi_exp, [(side,) for side in sides])
    else:
        positive, negative = map(params.multi_exp, sides)
    return acc * positive % p == negative


class Pending(typing.NamedTuple):
    """A failure that stands unless its claim holds, for `settle`."""

    equations: tuple | None
    decide: typing.Callable[[], bool]
    failure: object


def fails_unless(params: GroupParams, failure, equations, exact, items, *args) -> list:
    """`failure` unless `exact(params, item, *args)` holds for every item:
    on a group that does not batch, decided at once, [] or [failure]; else
    [Pending] with the items' distinct `equations(params, item, *args)`."""
    if not params.batches:  # a loop, not all() over a generator: cheaper per call
        for item in items:
            if not exact(params, item, *args):
                return [failure]
        return []
    systems = [equations(params, item, *args) for item in items]
    joined = None if None in systems else tuple(dict.fromkeys(itertools.chain(*systems)))
    return [Pending(joined, lambda: all(exact(params, item, *args) for item in items), failure)]


def settle(params: GroupParams, *checks: list) -> list[list]:
    """Each list of failures with its Pending ones decided, all in one
    `batch_verdicts` call: one stays, as its failure, if its claim is false."""
    pending = [f for failures in checks for f in failures if type(f) is Pending]
    proved = iter(
        batch_verdicts(params, pending, lambda _, f: f.equations, lambda _, f: f.decide())
    )
    return [[f.failure if type(f) is Pending else f for f in failures
             if type(f) is not Pending or not next(proved)] for failures in checks]


def combine(a: Ciphertext, b: Ciphertext, params: GroupParams) -> Ciphertext:
    """Componentwise product; decrypts to the sum of the plaintexts."""
    return Ciphertext((a.c1 * b.c1) % params.p, (a.c2 * b.c2) % params.p)


def threshold_keygen(
    params: GroupParams, n: int, rng: random.Random
) -> tuple[ElectionKey, list[TrusteeKeyShare]]:
    """In-process key ceremony: n additive shares, joint key h = prod g^x_i.

    Equivalent single secret is sum(x_i) mod q; losing any share loses it.
    """
    if n < 1:
        raise ValueError("trustee count must be at least 1")
    shares = []
    h = 1
    for i in range(1, n + 1):
        x = rand_scalar(params, rng)
        h_i = params.exp(params.g, x, fixed=True)
        shares.append(TrusteeKeyShare(index=i, x=x, h=h_i))
        h = (h * h_i) % params.p
    return ElectionKey(h=h), shares


def partial_decrypt(
    params: GroupParams, shares: list[TrusteeKeyShare], ct: Ciphertext
) -> list[PartialDecryption]:
    """Each share's d_i = c1^x_i, in share order, plus a proof that d_i used
    the committed share.  One `powers` call makes every d_i."""
    from .zkp import prove_correct_decryption

    ds = params.powers(ct.c1, [share.x for share in shares])
    return [
        PartialDecryption(share.index, d, prove_correct_decryption(params, share.x, ct, d))
        for share, d in zip(shares, ds)
    ]


def threshold_decrypt(
    params: GroupParams,
    decryptions: list[tuple[Ciphertext, list[PartialDecryption]]],
    commitments: dict[int, int],
    decode_bound: int,
) -> list[int]:
    """m decoded from `unblind` of each (ct, partials), in order.

    commitments maps trustee index -> h_i, and its keys are the trustees, as
    for the verifier: each supplies one partial whose proof verifies, or the
    plaintext is lost, and a partial from any other index is refused.  One
    `zkp.holds` call checks every proof.
    """
    from .zkp import decryption_statement, holds

    ordered = []
    for ct, partials in decryptions:
        seen: dict[int, PartialDecryption] = {}
        for pd in partials:
            if pd.trustee_index in seen:
                raise DuplicateShareError(f"trustee {pd.trustee_index} supplied twice")
            seen[pd.trustee_index] = pd
        if stray := seen.keys() - commitments.keys():
            raise InvalidPartialProof(f"trustee {min(stray)} has no commitment")
        if missing := commitments.keys() - seen.keys():
            raise MissingShareError(f"trustee {min(missing)} missing; secret unrecoverable")
        ordered.append((ct, [seen[index] for index in sorted(seen)]))
    verdicts = iter(holds(params, [
        decryption_statement(params, commitments[pd.trustee_index], ct, pd.d, pd.proof)
        for ct, pds in ordered for pd in pds
    ]))
    plaintexts = []
    for ct, pds in ordered:
        for pd, ok in zip(pds, verdicts):
            if not ok:
                raise InvalidPartialProof(f"trustee {pd.trustee_index} proof rejected")
        target = unblind(params, ct, [pd.d for pd in pds])
        plaintexts.append(decode_exponent(params, target, decode_bound))
    return plaintexts
