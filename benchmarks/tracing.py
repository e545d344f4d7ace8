"""Spans around calls into vpal's public functions, recorded from the benchmark's side.

The tracer leaves ``src/`` untouched. It replaces each traced function with a
wrapper in every vpal module that holds it: ``from .factor import factorize``
binds the name separately in each importing module, and calls inside one
module look up that module's globals at call time, so both are caught. The
one traced method is patched on its class. ``ConstraintPair.accepts`` and
``ProcedureResult.accepts`` stay unwrapped: a slow ``classify`` item calls
them about a million times.

Each span records name, start, end, parent span and item id. A span's self
time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from vpal import cli, digits, factor, oracle, order, procedure

# (owner, attribute, span name, optional count taken from the return value)
TRACED: list[tuple[Any, str, str, Callable[[Any], int] | None]] = [
    *((digits, fn, f"digits.{fn}", None) for fn in (
        "decimal_string", "parse_decimal", "digit_count", "digits_of",
        "reverse_digits", "repunit", "repeat_concat",
    )),
    (factor, "factorize", "factor.factorize", None),
    (factor, "factor_repunit", "factor.factor_repunit", None),
    (factor, "is_probable_prime", "factor.is_probable_prime", None),
    (order, "multiplicative_order", "order.multiplicative_order", None),
    (order, "repunit_order", "order.repunit_order", None),
    (procedure, "crucial_primes", "procedure.crucial_primes", None),
    (procedure, "solve_characteristic", "procedure.solve_characteristic", None),
    (procedure, "constraint_entry", "procedure.constraint_entry", None),
    (procedure, "run_procedure", "procedure.run_procedure", lambda r: len(r.solutions)),
    (procedure.ProcedureResult, "minimal_period", "procedure.minimal_period", lambda r: r is None),
    (oracle, "oracle_is_vpal_concat", "oracle.oracle_is_vpal_concat", None),
    (cli, "main", "cli.main", None),
]

# Span fields, kept as lists for speed.
NAME, START, END, PARENT, ITEM, CHILD, RAISED = range(7)


class Tracer:
    """Installs wrappers, keeps spans in memory, and sums them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.returned: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._cache = order.repunit_order
        self._cache_start = self._cache_end = self._cache.cache_info()

    def _wrap(self, name: str, fn: Callable, count: Callable[[Any], int] | None) -> Callable:
        spans, stack, returned = self.spans, self._stack, self.returned

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if count is not None:
                returned[name] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._cache_start = self._cache.cache_info()
        modules = [m for key, m in sys.modules.items() if key == "vpal" or key.startswith("vpal.")]
        for owner, attr, name, count in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        self._cache_end = self._cache.cache_info()
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def metrics(self, item_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer sums over every recorded span; ``item_seconds`` is the items' total wall time."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        failed: dict[str, int] = defaultdict(int)
        failed_s: dict[str, float] = defaultdict(float)
        order_factorize_s = 0.0
        for span in self.spans:
            name, duration = span[NAME], span[END] - span[START]
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - span[CHILD]
            if span[RAISED]:
                failed[name] += 1
                failed_s[name] += duration
            if name == "factor.factorize" and span[PARENT] >= 0 \
                    and self.spans[span[PARENT]][NAME] == "order.multiplicative_order":
                order_factorize_s += duration
        covered = sum(self_s.values())
        hits = self._cache_end.hits - self._cache_start.hits
        lookups = hits + self._cache_end.misses - self._cache_start.misses
        digits_s = sum(s for name, s in self_s.items() if name.startswith("digits."))
        return {
            "procedure.minimal_period.s": (total["procedure.minimal_period"], "s"),
            "procedure.minimal_period.capped": (self.returned["procedure.minimal_period"], "count"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "procedure.run_procedure.self_s": (self_s["procedure.run_procedure"], "s"),
            "procedure.constraint_entry.self_s": (self_s["procedure.constraint_entry"], "s"),
            "procedure.solve_characteristic.s": (total["procedure.solve_characteristic"], "s"),
            "procedure.solutions": (self.returned["procedure.run_procedure"], "count"),
            "procedure.crucial_primes.s": (total["procedure.crucial_primes"], "s"),
            "order.multiplicative_order.calls": (calls["order.multiplicative_order"], "count"),
            "order.multiplicative_order.self_s": (self_s["order.multiplicative_order"], "s"),
            "order.multiplicative_order.factorize_s": (order_factorize_s, "s"),
            "order.repunit_order.calls": (calls["order.repunit_order"], "count"),
            "order.repunit_order.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "factor.factorize.calls": (calls["factor.factorize"], "count"),
            "factor.factorize.self_s": (self_s["factor.factorize"], "s"),
            "factor.factorize.failed": (failed["factor.factorize"], "count"),
            "factor.factorize.failed_s": (failed_s["factor.factorize"], "s"),
            "factor.factor_repunit.calls": (calls["factor.factor_repunit"], "count"),
            "factor.factor_repunit.self_s": (self_s["factor.factor_repunit"], "s"),
            "factor.is_probable_prime.calls": (calls["factor.is_probable_prime"], "count"),
            "factor.is_probable_prime.s": (total["factor.is_probable_prime"], "s"),
            "oracle.oracle_is_vpal_concat.calls": (calls["oracle.oracle_is_vpal_concat"], "count"),
            "oracle.oracle_is_vpal_concat.self_s": (self_s["oracle.oracle_is_vpal_concat"], "s"),
            "digits.s": (digits_s, "s"),
            "trace.spans": (len(self.spans), "count"),
            "trace.layer_share": (covered / item_seconds if item_seconds else 0.0, "ratio"),
        }
