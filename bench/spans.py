"""Per-layer spans taken from outside the library.

``Tracer.install`` wraps every public function of the measured ``addbasis``
modules, plus the public ``PrefixBitset`` methods, and rebinds each wrapper
at every module that holds the original (``from .sumset import pair_sumset``
copies the name, so patching only the defining module would miss those
calls).  Spans are aggregated in memory per ``(name, parent)``; a span's self
time is its duration minus the time of the wrapped calls it made.

Work counters are *computed* from each call's arguments and result, not
measured inside the library.  The time spent computing them is kept out of
every span's self time and reported separately.

Generator functions (``iter_bits``, ``family_blocks``) are not wrapped: their
body runs while the caller iterates, so that time is the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("setexpr", "bitset", "sumset", "analysis", "order", "verify", "report", "cli")
BITSET_METHODS = (
    "to_list",
    "count_range",
    "popcount",
    "restrict",
    "is_full",
    "complement_mask",
    "first_gap",
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [name, time of wrapped children]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.work: dict[str, int] = {}
        self.counter_s = 0.0
        self._bindings: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, object]] = []
        self._recording = [True]  # off while counters call back into the library

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.work.clear()
        self.counter_s = 0.0

    def _count(self, key: str, amount: int) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        stack = self.stack
        spans = self.spans
        recording = self._recording
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[1]
                t2 = t1
                if ok and counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    recording[0] = False
                    try:
                        counter(bound.arguments, result)
                    finally:
                        recording[0] = True
                    t2 = clock()
                    self.counter_s += t2 - t1
                if parent is not None:
                    parent[1] += t2 - t0
            return result

        return traced

    # -- computed work counters ---------------------------------------------

    def _pair_sumset(self, args, result) -> None:
        bound = args["bound"]
        window = (1 << (bound + 1)) - 1
        shifts = min((args["p"].mask & window).bit_count(), (args["q"].mask & window).bit_count())
        self._count("sumset.pair_sumset.shifts", shifts)
        self._count("sumset.pair_sumset.words", shifts * ((bound + 1 + 63) // 64))

    def _representation_count(self, args, result) -> None:
        h, n = args["h"], args["n"]
        if h >= 3:
            prefix = sys.modules["addbasis.setexpr"].materialize(args["expr"], n)
            self._count("sumset.representation_count.dp_cells", (h - 2) * prefix.mask.bit_count() * n)
        else:
            self._count("sumset.representation_count.dp_cells", 0)

    def _to_list(self, args, result) -> None:
        self._count("bitset.to_list.bits", len(result))

    def _materialize(self, args, result) -> None:
        self._count("setexpr.materialize.bits", args["bound"] + 1)

    # -- installation -----------------------------------------------------

    def _targets(self):
        counters = {
            "sumset.pair_sumset": self._pair_sumset,
            "sumset.representation_count": self._representation_count,
            "bitset.to_list": self._to_list,
            "setexpr.materialize": self._materialize,
        }
        for short in MODULES:
            mod = sys.modules[f"addbasis.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{short}.{attr}"
                yield name, obj, counters.get(name)
        cls = sys.modules["addbasis.bitset"].PrefixBitset
        for attr in BITSET_METHODS:
            name = f"bitset.{attr}"
            yield name, vars(cls)[attr], counters.get(name)

    def install(self) -> None:
        """Wrap every target and rebind it wherever the original is bound."""
        if self._bindings:
            return
        if not self._plan:
            for name, fn, counter in self._targets():
                self._plan.append((fn, self.wrap(name, fn, counter)))
        by_id = {id(fn): wrapper for fn, wrapper in self._plan}
        owners = [m for n, m in sys.modules.items() if n == "addbasis" or n.startswith("addbasis.")]
        owners.append(sys.modules["addbasis.bitset"].PrefixBitset)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(owner, attr, wrapper)
                    self._bindings.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in self._bindings:
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- summaries --------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total and self time per wrapped name, summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += self_s
        return out

    def root_s(self) -> float:
        """Time covered by spans that had no wrapped parent."""
        return sum(rec[1] for (_, parent), rec in self.spans.items() if parent is None)
