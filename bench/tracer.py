"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each public function of the layer modules by a
timing wrapper, under every name another ``pdeficiency`` module imported it
as.  Calls inside one module stay unwrapped: they do not cross a layer
boundary.  The few functions whose calls feed a counter also get a wrapper in
their own module that counts but records no span.  Neither the per-element
permutation helpers of ``quotient`` nor the methods of the value classes
(``Word``, ``FiniteQuotient``, ``IntMatrix``, ...) are wrapped, so their time
counts to the layer that called them.

Every wrapped call is a span ``(op, id, parent, layer, name, start, end)``.
Spans stay in memory until the run writes them out.  A layer's self time is
its spans' time minus the time of their child spans.
"""

import gc
import importlib
import inspect
import itertools
import time

LAYERS = ("cli", "invariants", "quotient", "rewrite", "abelian", "words", "presentation")
# Off the measured path: fuchsian only builds inputs, verification is not run.
OTHER_MODULES = ("fuchsian", "verification")
# Counted on every call, also from inside their own module.
COUNTED = ("schreier", "subgroup_presentation", "smith_normal_form", "maximal_root",
           "is_prime")
# Called once per element or letter: wrapping them would cost more than they do.
UNWRAPPED = ("perm_identity", "perm_mul", "perm_inv", "perm_pow", "perm_order",
             "perm_cycles", "format_perm")

COUNTERS = (
    "quotient.assignments", "quotient.kernels", "rewrite.kernels",
    "rewrite.schreier_builds", "rewrite.relator_letters", "abelian.snf_calls",
    "abelian.snf_entries", "words.root_calls", "words.root_letters",
    "words.prime_calls", "presentation.parse_chars",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.prime_s = 0.0
        self.gc_s = 0.0
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [0]
        self._tables = set()
        self._patches = []
        self._gc_start = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"pdeficiency.{name}")
                   for name in LAYERS + OTHER_MODULES}
        for layer in LAYERS:
            home = modules[layer]
            for name, fn in vars(home).copy().items():
                if name.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn) \
                        or fn.__module__ != home.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules.values():
                    if mod is not home and vars(mod).get(name) is fn:
                        self._patch(mod, name, wrapper)
                if name in COUNTED:
                    self._patch(home, name, self._wrap_counter(name, fn))
        # the benchmark calls cli.main: its span is the root of each operation
        self._patch(modules["cli"], "main", self._wrap("cli", "main", modules["cli"].main))
        gc.callbacks.append(self._on_gc)

    def _patch(self, mod, name, wrapper) -> None:
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def begin_op(self) -> None:
        self.op += 1
        self._tables = set()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        count = getattr(self, "_count_" + name, None)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, layer, name, start, end))
            if count is not None:
                count(args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counter(self, name, fn):
        count = getattr(self, "_count_" + name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            count(args, kwargs, result, clock() - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, layer, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            budget = args[3] if len(args) > 3 else kwargs.get("budget")
            used = budget.assignments_used if budget is not None else 0
            gen = fn(*args, **kwargs)
            while True:
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((self.op, sid, parent, layer, name, start, end))
                    if budget is not None:
                        counts["quotient.assignments"] += budget.assignments_used - used
                        used = budget.assignments_used
                counts["quotient.kernels"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters, by wrapped function name --------------------------------

    def _count_schreier(self, args, kwargs, result, seconds) -> None:
        self.counts["rewrite.schreier_builds"] += 1
        tables = result.table.tables
        if tables not in self._tables:
            self._tables.add(tables)
            self.counts["rewrite.kernels"] += 1

    def _count_subgroup_presentation(self, args, kwargs, result, seconds) -> None:
        self.counts["rewrite.relator_letters"] += sum(len(r) for r in result.relators)

    def _count_smith_normal_form(self, args, kwargs, result, seconds) -> None:
        self.counts["abelian.snf_calls"] += 1
        self.counts["abelian.snf_entries"] += args[0].rows * args[0].cols

    def _count_maximal_root(self, args, kwargs, result, seconds) -> None:
        self.counts["words.root_calls"] += 1
        self.counts["words.root_letters"] += len(args[0])

    def _count_is_prime(self, args, kwargs, result, seconds) -> None:
        self.counts["words.prime_calls"] += 1
        self.prime_s += seconds

    def _count_parse_presentation(self, args, kwargs, result, seconds) -> None:
        self.counts["presentation.parse_chars"] += len(args[0])

    # -- aggregation ---------------------------------------------------------

    def self_seconds(self, start: int, stop: int) -> dict:
        """Self time per layer over spans[start:stop], which must hold whole
        operations."""
        spans = self.spans[start:stop]
        layer_of = {s[1]: s[3] for s in spans}
        out = dict.fromkeys(LAYERS, 0.0)
        for _, _, parent, layer, _, start, end in spans:
            out[layer] += end - start
            if parent:
                out[layer_of[parent]] -= end - start
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span, times in microseconds from the
        first span."""
        t0 = self.spans[0][5] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tlayer\tname\tstart_us\tdur_us\n")
            for op, sid, parent, layer, name, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{layer}\t{name}\t"
                         f"{(start - t0) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\n")
