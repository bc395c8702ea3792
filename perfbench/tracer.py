"""Span tracer for the evote modules, installed from outside the program.

While a Tracer is installed, every public function of each layer module,
and the public methods of the stateful classes the benchmark drives, runs
inside a span.  The name ``pow`` in each ``evote.*`` module's globals
points at a counter, so every 3-argument ``pow`` (one modular
exponentiation, "modexp") is charged to the innermost open span.

Per span name the tracer keeps: calls, inclusive seconds, self seconds
(inclusive minus the wrapped child calls inside it) and modexps charged
to it or to spans nested in it.  Stats are keyed by the benchmark phase
that was open ("setup", "cast", "tally", ...), so the same function can be
read separately per phase, for example ``verify_mix`` in the tally and in
``universal_verify``.

Nothing under ``src/`` is changed; ``uninstall`` restores every name.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import sys
from time import perf_counter

# The layers, in dependency order.  `cli` is covered by the untimed parity
# check instead.
LAYERS = (
    "canonical",
    "groups",
    "zkp",
    "registry",
    "ballot",
    "mixnet",
    "tally",
    "bulletin",
    "ballotcoin",
)

# Stateful classes whose public methods are spans too.
TRACED_CLASSES = {
    "tally": ("Election",),
    "bulletin": ("Board",),
    "ballotcoin": ("Chain",),
}

# Leaf encoders called once per integer; a span around each would cost more
# than the work it times, so their time stays in the caller's self time.
UNTRACED = {"canonical.enc_int", "canonical.enc_bytes", "canonical.enc_str"}

_builtin_pow = builtins.pow


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "modexp", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.modexp = 0
        self.items = 0  # span-specific size: bytes appended, leaves compared


# Per-call sizes read from the arguments: payload bytes, chains compared.
SIZES = {
    "bulletin.Board.append": lambda args, kwargs: len(args[2]),
    "ballotcoin.fork_choice": lambda args, kwargs: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.phase = "none"
        self.modexp = 0
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable and point each module's `pow` at the
        counter.  Every evote module, the package itself and `cli` included,
        gets the wrapped objects for the names it imported."""
        modules = {name: importlib.import_module(f"evote.{name}") for name in LAYERS}
        importlib.import_module("evote.cli")
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                span = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or span in UNTRACED
                ):
                    continue
                wrappers[id(fn)] = self._wrap(span, fn, SIZES.get(span))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{short}.{cls_name}.{attr}"
                    size = SIZES.get(span)
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__, size))
                    elif inspect.isfunction(raw):
                        new = self._wrap(span, raw, size)
                    else:
                        continue
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)
        evote_modules = [
            m for n, m in sys.modules.items() if n == "evote" or n.startswith("evote.")
        ]
        for mod in evote_modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
            self._saved.append((mod, "pow", namespace.get("pow")))
            mod.pow = self._pow

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _pow(self, base, exp, mod=None):
        if mod is not None:
            self.modexp += 1
        return _builtin_pow(base, exp, mod)

    def _wrap(self, name: str, fn, size=None):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, self.modexp]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (self.phase, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - frame[0]
                st.modexp += self.modexp - frame[1]
                if size is not None:
                    st.items += size(args, kwargs)

        return span

    # -- reading -----------------------------------------------------------

    def stat(self, name: str, phase: str | None = None) -> Stat:
        """Stats of one span name, summed over all phases or one phase."""
        out = Stat()
        for (ph, nm), st in self.stats.items():
            if nm == name and (phase is None or ph == phase):
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
                out.modexp += st.modexp
                out.items += st.items
        return out
