"""Per-layer tracing of the cayburge package from outside.

``Tracer.install()`` replaces the public functions of each module (one
layer per module; public means not starting with an underscore) and the
public methods of its classes by wrappers.
A function is rebound in its defining module and in every cayburge
module that imported it with ``from ... import``, so calls inside the
package go through the wrapper too.  Nothing under ``src/`` changes.

Time accounting: at every point in time exactly one layer is "current",
the innermost wrapped call on the stack, or the harness when the stack
is empty.  Elapsed time is charged to the current layer at each switch,
so each layer's self time excludes the time covered by other layers'
calls, and the self times add up to the traced wall time.  A wrapped
generator becomes current only inside each ``next()``, so time spent in
its consumer is not charged to it.  A call into the layer that is
already current is only counted; it takes no clock reading, which keeps
per-object calls (hundreds of thousands per pass) cheap.

A wrapped function that calls itself recursively runs its inner calls
unwrapped: ``compositions`` and ``weak_compositions`` recurse once per
part, and only their outermost call yields items to a caller.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

from oracle import fubini

PACKAGE = "cayburge"
LAYERS = ("kernel", "words", "burge", "lomat", "identities", "cli")
HARNESS = "harness"
MARK = "__perfbench_original__"

# Dunder methods of the kernel's polynomial and series classes that are
# arithmetic; other dunders (construction, equality, hashing, repr) are
# not counted as operations.
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__call__"}
# Public methods that read a value instead of computing a new one.
ACCESSORS = {"coefficient", "integer_coefficients", "items"}
# Constructors counted as objects built, not timed: one call per object.
CONSTRUCTORS = {
    ("lomat", "LinOrderMatrix"): "__post_init__",
    ("identities", "CheckResult"): "__init__",
}
# Generators whose row_sums_spec argument, when given, selects a filtered
# variant that is keyed separately (its key gets a "+rows" suffix).
ROW_FILTERED = {"burge.enumerate_mat", "lomat.enumerate_signed"}


def _is_check(name: str) -> bool:
    return name.startswith("check_") or name == "pairing_check"


class TracedGenerator:
    """Iterator that makes its generator's layer current during each next()."""

    __slots__ = ("tracer", "gen", "key", "layer", "on_exhausted")

    def __init__(self, tracer, gen, key, layer, on_exhausted=None):
        self.tracer = tracer
        self.gen = gen
        self.key = key
        self.layer = layer
        self.on_exhausted = on_exhausted

    def __iter__(self):
        return self

    def __next__(self):
        t = self.tracer
        stack = t.stack
        outer = t.layer
        switch = outer != self.layer
        if switch:
            t.switch(self.layer)
        stack.append(self.key)
        try:
            item = next(self.gen)
        except StopIteration:
            if self.on_exhausted is not None:
                self.on_exhausted()
            raise
        finally:
            stack.pop()
            if switch:
                t.switch(outer)
        t.items[(self.key, stack[-1] if stack else None)] += 1
        return item

    def close(self):
        self.gen.close()


class Tracer:
    """Span stack, per-layer self time and counters for one traced pass."""

    def __init__(self):
        self.stack: list[str] = []
        self.layer = HARNESS
        self.mark = perf_counter()
        self.self_s = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        self.calls: Counter = Counter()  # (key, caller key or None) -> calls
        self.items: Counter = Counter()  # (generator key, consumer key or None) -> items
        self.span_s: Counter = Counter()  # key -> inclusive seconds, timed calls only
        self.burge_candidates = 0
        self.wrapped: list[tuple[object, str, object, object]] = []  # (owner, attr, original, wrapper)

    # -- time accounting ---------------------------------------------------

    def switch(self, layer: str) -> float:
        now = perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        self.layer = layer
        return now

    def reset(self) -> None:
        """Zero every counter and restart the clock; wrappers stay installed."""
        if self.stack:
            raise RuntimeError("reset inside a traced call")
        self.layer = HARNESS
        self.mark = perf_counter()
        self.self_s = dict.fromkeys(self.self_s, 0.0)
        self.calls.clear()
        self.items.clear()
        self.span_s.clear()
        self.burge_candidates = 0

    def stop(self) -> None:
        """Charge the time since the last switch to the current layer."""
        self.switch(self.layer)

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn, key: str, layer: str, always_timed: bool):
        tracer = self
        is_gen = inspect.isgeneratorfunction(fn)
        filtered = key in ROW_FILTERED
        signature = inspect.signature(fn) if filtered or key == "burge.enumerate_burge" else None

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            caller = stack[-1] if stack else None
            if caller == key:
                return fn(*args, **kwargs)
            k = key
            on_exhausted = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if filtered and bound.get("row_sums_spec") is not None:
                    k = key + "+rows"
                if key == "burge.enumerate_burge":
                    on_exhausted = tracer._burge_candidates_hook(bound["n"])
            tracer.calls[(k, caller)] += 1
            if is_gen:
                return TracedGenerator(tracer, fn(*args, **kwargs), k, layer, on_exhausted)
            outer = tracer.layer
            if outer == layer and not always_timed:
                stack.append(k)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            start = tracer.switch(layer)
            stack.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.span_s[k] += tracer.switch(outer) - start

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    def _burge_candidates_hook(self, n: int):
        # enumerate_burge(n) tests every (u, v): u weakly increasing (one
        # per composition of n, 2^(n-1) of them) and v any Cayley word
        # (Fubini(n) of them).  Added only when the generator is exhausted.
        candidates = 2 ** (n - 1) * fubini(n) if n >= 1 else 1

        def hook():
            self.burge_candidates += candidates

        return hook

    def install(self) -> None:
        """Wrap every layer's public functions and methods, in all bindings."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue  # a layer that no longer exists reports zeros
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap_function(
                        obj, f"{layer}.{name}", layer, always_timed=_is_check(name)
                    )
                    replace[id(obj)] = wrapper
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(PACKAGE):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self.wrapped.append((mod, name, value, wrapper))

    def _wrap_class(self, layer: str, cls) -> None:
        constructor = CONSTRUCTORS.get((layer, cls.__name__))
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") and name not in ACCESSORS
            if not (public or name in ARITHMETIC or name == constructor):
                continue
            if isinstance(attr, classmethod):
                fn = attr.__func__
            elif inspect.isfunction(attr):
                fn = attr
            else:
                continue  # properties, constants, nested types
            key = f"{layer}.{cls.__name__}.{name}"
            wrapper = self._wrap_function(fn, key, layer, always_timed=False)
            new = classmethod(wrapper) if isinstance(attr, classmethod) else wrapper
            setattr(cls, name, new)
            self.wrapped.append((cls, name, attr, new))

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self.wrapped):
            setattr(owner, name, original)
        self.wrapped.clear()

    # -- reading the counters ------------------------------------------------

    def call_count(self, key: str, caller: str | None = "*") -> int:
        if caller == "*":
            return sum(v for (k, _), v in self.calls.items() if k == key)
        return self.calls[(key, caller)]

    def item_count(self, key: str, consumer: str | None = "*") -> int:
        if consumer == "*":
            return sum(v for (k, _), v in self.items.items() if k == key)
        return self.items[(key, consumer)]


def installed() -> list[str]:
    """Names of wrapped functions or methods currently bound in the package."""
    found = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith(PACKAGE):
            continue
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{name}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr_name, attr in vars(value).items():
                    fn = attr.__func__ if isinstance(attr, classmethod) else attr
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{name}.{attr_name}")
    return found
