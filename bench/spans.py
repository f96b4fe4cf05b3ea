"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each layer module of
``epsmult`` (module functions, methods, class methods, and explicit
``__init__``/``__call__``) and rebinds the wrapper at every site that holds
the original object: the defining module, every other ``epsmult`` module
that imported it (``epsmult.multiplicity.colength`` as well as
``epsmult.colength.colength``), the package namespace, and every class
attribute (operator aliases such as ``MonomialIdeal.__mul__`` included).
``restore`` puts the originals back.

A span's self time is its duration minus the time covered by the spans it
caused.  Spans are aggregated as they close, so a traced pass keeps only
one record per function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    # -- spans -------------------------------------------------------------

    def _span(self, key: str, fn, before=None, after=None):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
            except BaseException:
                stats[key].errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat = stats[key]
                stat.calls += 1
                stat.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, key: str):
        """Counters recorded at the boundary of a few spans."""
        counters = self.counters
        if key == "ideals.minimal_vectors":

            def before(args):
                vectors = list(args[0])
                counters["ideals.minimal_vectors.cands_in"] += len(vectors)
                return (vectors,) + args[1:]

            def after(args, result):
                counters["ideals.minimal_vectors.gens_out"] += len(result)

            return before, after
        if key == "colength.colength":
            return None, self._adder("colength.monomials")
        if key == "okounkov.count_staircase_in_simplex":
            return None, self._adder("okounkov.points")
        if key == "families.__call__":

            def before(args):
                family, n = args[0], int(args[1])
                if n > 0:
                    counters["families.lookups"] += 1
                    # a cached index is served without computing
                    counters["families.hits"] += n in family._cache
                return args

            return before, None
        return None, None

    def _adder(self, name: str):
        counters = self.counters

        def after(args, result):
            counters[name] += result

        return after

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in self.layers:
            module = sys.modules[f"epsmult.{layer}"]
            for fn in _public_functions(module):
                key = f"{layer}.{fn.__name__}"
                wrappers[id(fn)] = self._span(key, fn, *self._hooks(key))
        epsmult_modules = [
            m for name, m in sorted(sys.modules.items()) if name == "epsmult" or name.startswith("epsmult.")
        ]
        for module in epsmult_modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, name, wrappers[id(value)])
                elif inspect.isclass(value) and value.__module__.startswith("epsmult."):
                    if module.__name__ != value.__module__:
                        continue  # patch each class once, where it is defined
                    for attr, member in list(vars(value).items()):
                        inner = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                        if id(inner) in wrappers:
                            wrapped = wrappers[id(inner)]
                            if isinstance(member, classmethod):
                                wrapped = classmethod(wrapped)
                            elif isinstance(member, staticmethod):
                                wrapped = staticmethod(wrapped)
                            self._rebind(value, attr, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer and per-function figures of everything recorded since reset."""
        out: dict[str, float] = {}
        for layer in self.layers:
            stats = [s for k, s in self.stats.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(s.calls for s in stats)
            out[f"{layer}.self_s"] = sum(s.self_s for s in stats)
            out[f"{layer}.errors"] = sum(s.errors for s in stats)

        def stat(key):
            return self.stats.get(key) or Stat()

        mv = stat("ideals.minimal_vectors")
        cands = self.counters["ideals.minimal_vectors.cands_in"]
        gens = self.counters["ideals.minimal_vectors.gens_out"]
        out.update(
            {
                "ideals.minimal_vectors.calls": mv.calls,
                "ideals.minimal_vectors.self_s": mv.self_s,
                "ideals.minimal_vectors.cands_in": cands,
                "ideals.minimal_vectors.gens_out": gens,
                "ideals.minimal_vectors.kept_ratio": gens / cands if cands else 0.0,
            }
        )
        for name in ("product", "saturate", "intersect", "colon"):
            out[f"ideals.{name}.self_s"] = stat(f"ideals.{name}").self_s
        for key in (
            "colength.colength",
            "colength.difference_max_degree",
            "okounkov.count_staircase_in_simplex",
            "semigroups.count",
            "semigroups.k_fold_sum_count",
        ):
            out[f"{key}.calls"] = stat(key).calls
            out[f"{key}.self_s"] = stat(key).self_s
        out["colength.monomials"] = self.counters["colength.monomials"]
        out["okounkov.points"] = self.counters["okounkov.points"]
        lookups = self.counters["families.lookups"]
        out["families.cache_hit_ratio"] = self.counters["families.hits"] / lookups if lookups else 0.0
        return out


def _public_functions(module):
    """Public functions and methods defined in `module`'s own source file."""
    source = module.__file__
    for name, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_"):
            yield value
        elif inspect.isclass(value) and value.__module__ == module.__name__ and not name.startswith("_"):
            for attr, member in vars(value).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                public = not attr.startswith("_") or attr in ("__init__", "__call__")
                # dataclass-generated methods are compiled from strings, not the module file
                if inspect.isfunction(fn) and public and fn.__code__.co_filename == source:
                    yield fn
