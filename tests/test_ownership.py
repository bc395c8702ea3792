"""Each concern has one owner, checked on the source tree.

- `groups.py` owns every exponentiation: no other module calls `pow` or
  names the comb (a private name with "comb" in it: `_Comb`, its caches
  and its constants).
- `groups.py` decides subgroup membership (`GroupParams.is_element`): no
  other module names `_jacobi` or raises a value to `q`.
- `groups.unblind` owns unblinding a decryption (c2 / the product of its
  blinds): `bulletin.py` and `tally.py` make no inverse, neither
  `exp(x, -1)` nor `pow(x, -1, ...)`.
- `zkp.holds` owns every verification equation: in `zkp.py` and
  `registry.py`, the result of an `exp(...)` call is compared only in its
  one-statement check `zkp._holds`, and only zkp's exact check `_exact`
  calls that.  A name bound to such a result counts as the result.
  `zkp.py` reads no `.batches`, and no module defines or calls a
  `verify_sig`, so every proof and signature check takes one call shape on
  every group.
- `mixnet.verify_mix` is the one mix check: only it builds the claim that a
  stage's opened links re-encrypt (it alone names `_link_equations`,
  `_links_hold` and `fails_unless` in `mixnet.py`, and no other module names
  the first two), and `mixnet.py` reads no `.batches`, so a chain of stages
  takes one path on every group.
- `groups.settle` decides every held-back failure: only it calls a
  pending failure's `decide`, and only it and `zkp.holds` call
  `batch_verdicts`, so no check runs a batch of its own.  No function in
  `src/` takes a `batch` parameter.
- `bulletin.py` owns the entry kinds: no other module spells one out.
- `canonical.py` owns every source of randomness, so that everything is
  seeded: no other module calls `random.Random(...)` or a module-level
  `random.*` function, or uses `secrets`, `os.urandom` or `time`.
- `canonical.py` owns the bytes a record keeps: no other module names the
  attribute that keeps them or touches an instance's `__dict__` (or `vars`).
- `canonical.from_json` owns the types of JSON input: `cli.py`, a function
  that calls `json.loads` and a config class (one based on `Config` or with
  a `from_dict`) apply no `isinstance` and compare no `type(...)`.
- Every setting has a reader: each field of a class based on `Config` is
  read as an attribute (`.name`) somewhere in `src/`.
- `groups.fan_out` owns every child process: no other function names
  `os.fork`, `os.pipe`, `os._exit` or `os.waitpid`.
- Module state is constant: no function declares `global` or changes a
  name bound at module level in place (an item or attribute assignment or
  deletion, or a call such as `.append()` or `.clear()`).  The process-wide
  caches are `functools` decorators.
"""

import ast
import re
from pathlib import Path

import pytest

import evote
from evote.bulletin import KINDS
from evote.canonical import Config
from evote.groups import Ciphertext

SRC = Path(evote.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _called(node: ast.AST, name: str) -> bool:
    """True iff some call inside `node` is to `name` or to `<obj>.name`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def _exp_comparisons(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each comparison of an exp result."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted = {
            target.id
            for stmt in ast.walk(fn)
            if isinstance(stmt, ast.Assign) and _called(stmt.value, "exp")
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        for cmp in ast.walk(fn):
            if isinstance(cmp, ast.Compare) and (
                _called(cmp, "exp")
                or any(isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(cmp))
            ):
                found.append((fn.name, cmp.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_groups_calls_pow(path):
    if path.name != "groups.py":
        assert not _called(ast.parse(path.read_text()), "pow")


def _names(tree: ast.Module) -> list[str]:
    """Each name, attribute and import the module spells."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name)
    return found


def _comb_names(tree: ast.Module) -> list[str]:
    """Each private name containing "comb" that the module reads, sets or
    imports; `combine` is public and does not count."""
    return [name for name in _names(tree) if re.fullmatch(r"_\w*comb\w*", name, re.IGNORECASE)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_groups_names_the_comb(path):
    if path.name != "groups.py":
        assert _comb_names(ast.parse(path.read_text())) == []


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_q(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "q") or (
        isinstance(node, ast.Attribute) and node.attr == "q"
    )


def _membership_decisions(tree: ast.Module) -> list[str]:
    """Each use of `_jacobi`, and each `exp(x, q)`, `pow(x, q, ...)` or
    `x ** q`, where q is the name `q` or an attribute `.q`."""
    found = [name for name in _names(tree) if name == "_jacobi"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) >= 2 and _is_q(node.args[1]):
            if (name := _callee(node)) in ("exp", "pow"):
                found.append(f"{name}(x, q)")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_q(node.right):
            found.append("x ** q")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_groups_decides_membership(path):
    if path.name != "groups.py":
        assert _membership_decisions(ast.parse(path.read_text())) == []


def _is_minus_one(node: ast.AST) -> bool:
    try:
        return ast.literal_eval(node) == -1
    except ValueError:
        return False


def _inverses(tree: ast.Module) -> list[str]:
    """Each `exp(x, -1)` or `pow(x, -1, ...)`."""
    return [
        f"{_callee(node)}(x, -1)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _callee(node) in ("exp", "pow")
        and len(node.args) >= 2
        and _is_minus_one(node.args[1])
    ]


@pytest.mark.parametrize("name", ["bulletin.py", "tally.py"])
def test_only_groups_unblinds(name):
    assert _inverses(ast.parse((SRC / name).read_text())) == []


@pytest.mark.parametrize(
    "name, owners", [("zkp.py", {"_holds"}), ("registry.py", set())], ids=["zkp", "registry"]
)
def test_exp_results_are_compared_only_in_holds(name, owners):
    found = _exp_comparisons(ast.parse((SRC / name).read_text()))
    assert {fn for fn, _ in found} == owners, found


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The function around each call to `name` or `<obj>.name`, in source
    order, or "<module>" for a call outside every function."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _callee(child) == name:
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _readers(tree: ast.Module, name: str) -> list[str]:
    """The function around each read of the name `name`, as `_callers`
    names them."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name:
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


LINK_CLAIM = ("_link_equations", "_links_hold")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_verify_mix_checks_reencryptions(path):
    tree = ast.parse(path.read_text())
    if path.name == "mixnet.py":
        owners = {name: ["verify_mix"] for name in LINK_CLAIM}
        assert {name: _readers(tree, name) for name in LINK_CLAIM} == owners
        assert _callers(tree, "fails_unless") == ["verify_mix"]
        assert "batches" not in _names(tree)
    else:
        assert [name for name in _names(tree) if name in LINK_CLAIM] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_holds_checks_one_statement(path):
    tree = ast.parse(path.read_text())
    owners = ["_exact"] if path.name == "zkp.py" else []
    assert sorted(set(_callers(tree, "_holds"))) == owners


# The functions that may call `batch_verdicts`, by module.
BATCHERS = {"groups.py": ["settle"], "zkp.py": ["holds"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_settle_decides_pending_failures(path):
    tree = ast.parse(path.read_text())
    assert _callers(tree, "decide") == (["settle"] if path.name == "groups.py" else [])
    assert _callers(tree, "batch_verdicts") == BATCHERS.get(path.name, [])


def _batch_parameters(tree: ast.Module) -> list[str]:
    """Each function or lambda that takes a parameter named `batch`."""
    return [
        getattr(fn, "name", "<lambda>")
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "batch" in [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_batch_parameter(path):
    assert _batch_parameters(ast.parse(path.read_text())) == []


def test_holds_takes_one_path_on_every_group():
    assert "batches" not in _names(ast.parse((SRC / "zkp.py").read_text()))


def _uses(tree: ast.Module, name: str) -> list[str]:
    """"def" for each function named `name`, then the caller of each call
    to it, as `_callers` names them."""
    defined = [
        "def"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    ]
    return defined + _callers(tree, name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_checks_a_signature_alone(path):
    assert _uses(ast.parse(path.read_text()), "verify_sig") == []


def _kind_literals(tree: ast.Module) -> list[str]:
    """Each string constant that names an entry kind, outside `__all__`
    (where "Receipt" names the `ballot.Receipt` class)."""
    exported = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in KINDS and id(node) not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bulletin_names_entry_kinds(path):
    if path.name != "bulletin.py":
        assert _kind_literals(ast.parse(path.read_text())) == []


def _unseeded_sources(tree: ast.Module) -> list[str]:
    """Each call to `random.<name>(...)`, import from `random`, import of
    `secrets` or `time`, and use of `os.urandom`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if getattr(node.func.value, "id", None) == "random":
                found.append(f"random.{node.func.attr}")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in ("secrets", "time")]
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("random", "secrets", "time") or any(
                a.name == "urandom" for a in node.names
            ):
                found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr == "urandom":
            found.append("os.urandom")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_canonical_draws_randomness(path):
    if path.name != "canonical.py":
        assert _unseeded_sources(ast.parse(path.read_text())) == []


# The attribute in which a record keeps its bytes.
KEPT_BYTES = "_encoding"


def test_kept_bytes_names_the_attribute_a_record_sets():
    ct = Ciphertext(1, 2)
    assert KEPT_BYTES not in vars(ct)
    raw = ct.to_bytes()
    assert vars(ct)[KEPT_BYTES] is raw


def _kept_bytes_uses(tree: ast.Module) -> list[str]:
    """Each name, attribute, import or string that spells the attribute
    keeping a record's bytes, and each use of `__dict__` or `vars`."""
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    return [name for name in _names(tree) + strings if name in (KEPT_BYTES, "__dict__", "vars")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_canonical_keeps_record_bytes(path):
    if path.name != "canonical.py":
        assert _kept_bytes_uses(ast.parse(path.read_text())) == []


def _type_tests(node: ast.AST) -> int:
    """How many `isinstance(...)` calls and comparisons of a `type(...)`
    call `node` holds."""
    return sum(
        (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "isinstance")
        or (
            isinstance(sub, ast.Compare)
            and any(
                isinstance(side, ast.Call) and getattr(side.func, "id", None) == "type"
                for side in (sub.left, *sub.comparators)
            )
        )
        for sub in ast.walk(node)
    )


def _is_config(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and (
        any(getattr(base, "id", None) == "Config" for base in node.bases)
        or any(getattr(stmt, "name", None) == "from_dict" for stmt in node.body)
    )


def _json_type_tests(tree: ast.Module) -> dict[str, int]:
    """The type tests in each function that calls `json.loads` and in each
    config class, by name, where there are any."""
    readers = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and _called(node, "loads")) or _is_config(node)
    ]
    return {node.name: _type_tests(node) for node in readers if _type_tests(node)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_from_json_tests_the_types_of_json_input(path):
    tree = ast.parse(path.read_text())
    if path.name == "cli.py":
        assert _type_tests(tree) == 0
    if path.name != "canonical.py":
        assert _json_type_tests(tree) == {}


def _config_fields(trees: list[ast.Module]) -> dict[str, list[str]]:
    """The fields declared in each class based on `Config`, by class name."""
    return {
        cls.name: [
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(getattr(base, "id", None) == "Config" for base in cls.bases)
    }


def _unread_config_fields(trees: list[ast.Module]) -> list[str]:
    """`Class.field` for each field of a class based on `Config` that no
    tree reads as an attribute."""
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{cls}.{name}"
        for cls, names in _config_fields(trees).items()
        for name in names
        if name not in read
    ]


def test_every_config_field_is_read():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    configs = {cls.__name__ for cls in Config.__subclasses__() if cls.__module__.startswith("evote.")}
    assert set(_config_fields(trees)) == configs == {"ElectionConfig", "SimConfig"}
    assert _unread_config_fields(trees) == []


# Methods that change a list, dict or set in place.
MUTATORS = frozenset((
    "append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "add", "discard", "sort", "reverse",
))


def _stored(node: ast.AST) -> set[str]:
    """Each name that `node` assigns."""
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _module_names(tree: ast.Module) -> set[str]:
    """The names the module binds at its top level."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        else:
            names |= _stored(stmt)
    return names


def _module_state_writes(tree: ast.Module) -> list[str]:
    """`function: what` for each `global` and each in-place change, inside a
    function, of a module-level name that the function does not rebind."""
    shared = _module_names(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)} | _stored(fn)

        def module_level(node) -> bool:
            return isinstance(node, ast.Name) and node.id in shared - local

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(f"{fn.name}: global {', '.join(node.names)}")
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and not isinstance(
                node.ctx, ast.Load
            ):
                if module_level(node.value):
                    found.append(f"{fn.name}: {ast.unparse(node)} changed")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATORS and module_level(node.func.value):
                    found.append(f"{fn.name}: {ast.unparse(node.func)}()")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_state_is_constant(path):
    assert _module_state_writes(ast.parse(path.read_text())) == []


# The calls that start, feed, end and reap a child process.
PROCESS_CALLS = frozenset(("fork", "pipe", "_exit", "waitpid"))


def _process_calls(tree: ast.Module) -> list[str]:
    """`function: name` for each attribute or import named in PROCESS_CALLS,
    the function as `_callers` names it."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = getattr(child, "attr", None) if isinstance(child, ast.Attribute) else (
                child.name if isinstance(child, ast.alias) else None
            )
            if name in PROCESS_CALLS:
                found.append(f"{owner}: {name}")
            visit(child, owner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fan_out_starts_a_child(path):
    found = set(_process_calls(ast.parse(path.read_text())))
    assert found == ({f"fan_out: {name}" for name in PROCESS_CALLS} if path.name == "groups.py"
                     else set())


def test_the_guards_see_a_violation():
    bad = ast.parse(
        "def verify(params, y, t, e, z):\n"
        "    lhs = params.exp(params.g, z, True)\n"
        "    return lhs == t * params.exp(y, e) % params.p\n"
        "def key(x):\n"
        "    return pow(2, x, 23)\n"
        "KIND = 'BallotCast'\n"
        "__all__ = ['Receipt']\n"
        "import time\n"
        "from os import urandom\n"
        "rng = random.Random(time.time())\n"
        "pick = random.choice([urandom(4), os.urandom(4)])\n"
        "from .groups import _Comb, combine\n"
        "table = groups._comb(p, c1, cols)\n"
        f"raw = ballot.{KEPT_BYTES}\n"
        f"object.__setattr__(ballot, '{KEPT_BYTES}', raw)\n"
        "vars(ballot)['digest'] = ballot.__dict__.get('digest')\n"
        "from .groups import _jacobi\n"
        "member = params.exp(y, params.q) == 1 or pow(y, q, p) == 1 or y ** q == 1\n"
        "fine = params.exp(y, q - 1), params.q * 2\n"
        "target = c2 * params.exp(blind, -1) % p, pow(blind, -1, p), exp(y, 1)\n"
        "def load(line):\n"
        "    row = json.loads(line)\n"
        "    return isinstance(row, dict) and type(row['seq']) is int\n"
        "class Limits(Config):\n"
        "    low: float = 0\n"
        "    high: float = 1\n"
        "    def __post_init__(self):\n"
        "        assert type(self.low) in (int, float)\n"
        "class Sim:\n"
        "    @classmethod\n"
        "    def from_dict(cls, d):\n"
        "        return cls(**d) if type(d) is dict else None\n"
        "def check(x):\n"
        "    return isinstance(x, int)\n"
        "CACHE = {}\n"
        "def remember(key, value, seen):\n"
        "    global HITS\n"
        "    CACHE[key] = value\n"
        "    CACHE.clear()\n"
        "    seen.append(key)\n"
        "    table.size = 2\n"
        "def shadowed(CACHE):\n"
        "    CACHE[1] = 2\n"
        "def stage_ok(params, pk, slots, batch=None):\n"
        "    claim = _link_equations, _links_hold\n"
        "    return params.batches or fails_unless(params, 'bad', *claim, [slots], pk)\n"
        "held = groups.fails_unless(params, 'bad', mixnet._link_equations, _links_hold, [], pk)\n"
        "def holds(params, statements):\n"
        "    verdicts = batch_verdicts(params, statements, _equations, _exact)\n"
        "    return [ok or pending.decide() for ok, pending in zip(verdicts, statements)]\n"
        "check = lambda params, statements, batch: holds(params, statements)\n"
        "def verify_sig(params, vk, message, sig):\n"
        "    return _holds(params, *sig_statement(params, vk, message, sig))\n"
        "def check_block(params, vk, block):\n"
        "    return verify_sig(params, vk, block.signed_message(), block.forger_signature)\n"
        "from os import pipe\n"
        "def spawn(job):\n"
        "    if not os.fork():\n"
        "        os._exit(job())\n"
        "    return os.waitpid(-1, 0)\n"
    )
    assert _exp_comparisons(bad) == [("verify", 3)]
    assert _called(bad, "pow")
    assert sorted(_comb_names(bad)) == ["_Comb", "_comb"]
    assert _kind_literals(bad) == ["BallotCast"]
    assert _readers(bad, "_link_equations") == ["stage_ok"]
    assert _readers(bad, "_links_hold") == ["stage_ok", "<module>"]
    assert {name for name in _names(bad) if name in LINK_CLAIM} == set(LINK_CLAIM)
    assert _callers(bad, "fails_unless") == ["stage_ok", "<module>"]
    assert "batches" in _names(bad)
    assert _callers(bad, "decide") == ["holds"]
    assert _callers(bad, "batch_verdicts") == ["holds"]
    assert _batch_parameters(bad) == ["stage_ok", "<lambda>"]
    assert _callers(bad, "_holds") == ["verify_sig"]
    assert _uses(bad, "verify_sig") == ["def", "check_block"]
    assert sorted(_unseeded_sources(bad)) == [
        "os", "os.urandom", "random.Random", "random.choice", "time"
    ]
    assert sorted(_kept_bytes_uses(bad)) == ["__dict__", KEPT_BYTES, KEPT_BYTES, "vars"]
    assert sorted(_membership_decisions(bad)) == ["_jacobi", "exp(x, q)", "pow(x, q)", "x ** q"]
    assert sorted(_inverses(bad)) == ["exp(x, -1)", "pow(x, -1)"]
    assert _json_type_tests(bad) == {"load": 2, "Limits": 1, "Sim": 1}
    assert _type_tests(bad) == 5
    assert _unread_config_fields([bad]) == ["Limits.high"]
    assert _process_calls(bad) == [
        "<module>: pipe", "spawn: fork", "spawn: _exit", "spawn: waitpid"
    ]
    assert sorted(_module_state_writes(bad)) == [
        "remember: CACHE.clear()", "remember: CACHE[key] changed", "remember: global HITS",
        "remember: table.size changed",
    ]
