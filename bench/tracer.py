"""Outside-in tracer for the hitchinforge layers.

The tracer replaces chosen public functions and methods with timing
wrappers from outside the library, so the program itself carries no
instrumentation.  A function imported by name into several modules
(``cli`` imports ``trace_set`` and ``tau``, ``lattices`` imports ``tau``
and so on) is replaced in every ``hitchinforge.*`` namespace that holds
it, and a method is replaced under every class attribute that aliases it
(``__rmul__ = __mul__``).

Self time excludes the time spent in wrapped callees: each active call
keeps an accumulator on a stack, and a finished call adds its duration to
its caller's accumulator.  Spans (task id, parent, start, end) are kept
only for task-level and layer-entry calls; hot scalar and matrix
boundaries are kept as per-name aggregates so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("exactnum", "qforms", "quatalg", "symrep", "lattices", "g2core",
          "bender", "modp", "cli")

MEMBERSHIP_PREDICATES = ("in_slnz", "in_su_sqrt_d", "in_su_quat", "in_sp",
                         "in_so_q", "in_g2z", "in_sl_quat", "preserves_form")


def _trace_set_of_generators_name(args, kwargs) -> str:
    word_length = kwargs.get("word_length", args[2] if len(args) > 2 else None)
    return "modp.closure" if word_length is None else "modp.trace_set_words"


def _count_closure(counters: dict, result, args) -> None:
    order = result if isinstance(result, int) else result[0]
    counters["modp.closure.elements"] += order
    counters["modp.closure.products"] += order * len(args[0])


def _count_gamma(counters: dict, result, args) -> None:
    counters["quatalg.gamma_enumerate.elements"] += len(result)


def _count_containment(counters: dict, result, args) -> None:
    counters["lattices.containment.checked"] += result.total


# (metric name or name chooser, module, attribute path, span?, result counter)
# A name chooser picks the metric from the call's arguments; a result
# counter adds what a successful call returned to the work counters.
WRAPPED: tuple = (
    ("exactnum.FieldElem.mul", "exactnum", "FieldElem.__mul__", False, None),
    ("exactnum.FieldElem.inverse", "exactnum", "FieldElem.inverse", False, None),
    ("exactnum.ExactMatrix.mul", "exactnum", "ExactMatrix.__mul__", False, None),
    ("exactnum.ExactMatrix.mul", "exactnum", "ExactMatrix.__rmul__", False, None),
    ("exactnum.ExactMatrix.det", "exactnum", "ExactMatrix.det", False, None),
    ("exactnum.ExactMatrix.inverse", "exactnum", "ExactMatrix.inverse", False, None),
    ("symrep.tau", "symrep", "tau", True, None),
    ("symrep.so_form_from_cocycle", "symrep", "so_form_from_cocycle", True, None),
    ("qforms.hilbert_symbol", "qforms", "hilbert_symbol", False, None),
    ("qforms.hilbert_symbol_oracle", "qforms", "hilbert_symbol_oracle", False, None),
    ("qforms.form_invariants", "qforms", "form_invariants", True, None),
    ("quatalg.gamma_enumerate", "quatalg", "gamma_enumerate", True, _count_gamma),
    ("lattices.containment_check", "lattices", "containment_check", True,
     _count_containment),
    *(("lattices.membership", "lattices", name, True, None)
      for name in MEMBERSHIP_PREDICATES),
    ("g2core.in_g2", "g2core", "in_g2", True, None),
    ("bender.b0_family", "bender", "b0_family", True, None),
    ("bender.relator_ok", "bender", "relator_ok", True, None),
    ("bender.density_certificate", "bender", "density_certificate", True, None),
    ("modp.closure", "modp", "group_closure", True, _count_closure),
    ("modp.closure", "modp", "group_closure_and_traces", True, _count_closure),
    (_trace_set_of_generators_name, "modp", "trace_set_of_generators", True, None),
    ("modp.so4_generators", "modp", "so4_generators", True, None),
    ("modp.omega4_elements", "modp", "omega4_elements", True, None),
    ("modp.separation_certificate", "modp", "separation_certificate", True, None),
    ("cli.run", "cli", "run", True, None),
)

# Object counters: constructors wrapped to count only, never timed.
COUNTED: tuple = (
    ("exactnum.FieldElem.objects", "exactnum", "FieldElem.__init__"),
    ("modp.FqElem.objects", "modp", "FqElem.__post_init__"),
)

TIMED_NAMES = tuple(dict.fromkeys(
    name for name, *_ in WRAPPED if isinstance(name, str))) + (
    "modp.trace_set_words",)


class Tracer:
    """Wraps the names in WRAPPED and COUNTED while installed; records
    calls, self and total time per name, counters, per-layer errors and
    spans.  ``restore`` puts every original object back."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.spans: list[tuple] = []
        self.task_id = "setup"
        self._stack: list[float] = []       # child-time accumulators
        self._open_spans: list[int] = []    # ids of open spans
        self._patches: list[tuple] = []     # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"hitchinforge.{layer}")
        for name, module, path, span, count in WRAPPED:
            owner, attr, original = self._resolve(module, path)
            self._patch_everywhere(owner, attr, original, self._timed(
                name, module, original, span, count))
        for name, module, path in COUNTED:
            owner, attr, original = self._resolve(module, path)
            self._patch_everywhere(owner, attr, original,
                                   self._counted(name, original))

    @staticmethod
    def _resolve(module: str, path: str):
        owner = sys.modules[f"hitchinforge.{module}"]
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        return owner, attr, original

    def _patch_everywhere(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            targets = [(owner, a) for a, v in list(vars(owner).items())
                       if v is original]
        else:
            targets = [(mod, a)
                       for mod_name, mod in list(sys.modules.items())
                       if mod is not None and (mod_name == "hitchinforge"
                                               or mod_name.startswith("hitchinforge."))
                       for a, v in list(vars(mod).items()) if v is original]
        if (owner, attr) not in targets:
            raise RuntimeError(f"{attr} is not bound on {owner!r}")
        for target, name in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def patched(self) -> list[tuple]:
        """(owner, attribute, original) for every replacement made."""
        return list(self._patches)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, layer: str, fn: Callable, span: bool,
               count: Optional[Callable]) -> Callable:
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        errors, counters = self.errors, self.counters
        choose = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metric = choose(args, kwargs) if choose else name
            span_id = self._open(metric) if span else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                calls[metric] += 1
                self_s[metric] += elapsed - child
                total_s[metric] += elapsed
                if stack:
                    stack[-1] += elapsed
                if span:
                    self._close(span_id, start, elapsed)
            if count is not None:
                count(counters, result, args)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([span_id, parent, self.task_id, name, 0.0, 0.0])
        self._open_spans.append(span_id)
        return span_id

    def _close(self, span_id: int, start: float, elapsed: float) -> None:
        self._open_spans.pop()
        self.spans[span_id][4] = start
        self.spans[span_id][5] = start + elapsed

    def task(self, task_id: str, fn: Callable):
        """Run one benchmark task as a root span of its own."""
        self.task_id = task_id
        span_id = self._open("task")
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self._close(span_id, start, elapsed)
