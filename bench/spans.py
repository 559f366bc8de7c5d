"""Tracing for the benchmark's per-layer numbers, installed from outside ``src``.

``Tracer.install`` replaces each public function named in ``SPANS`` by a
wrapper that records a span ``(name, start, end, parent)``.  A name is
replaced in every ``hgbern`` module that binds it: ``from .x import f``
copies ``f`` into the importing module, so wrapping only the home module
would miss the calls made through the copies.  ``COUNTED`` functions get a
wrapper that only adds a count computed from the call's arguments, because
timing them from outside would swamp them (the enumerators yield millions of
items).  ``MemoStore`` methods are patched on the class.

Spans stay in memory; ``write_spans`` saves them once a pass is over.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# function spans: (home module, attribute)
SPANS = [
    ("cli", "main"),
    ("cli", "run_sweep"),
    ("hbnum", "hb"),
    ("hbnum", "hb_higher"),
    ("hbnum", "classical"),
    ("exactnum", "cauchy_product"),
    ("altforms", "hb_descent_nested"),
    ("altforms", "hb_explicit_comp"),
    ("altforms", "hb_trudi"),
    ("altforms", "mr"),
    ("altforms", "hb_explicit_binom"),
    ("altforms", "hb_descent_step"),
    ("altforms", "hb_higher_convolution"),
    ("hessenberg", "hb_higher_det"),
    ("hessenberg", "toeplitz_hessenberg_det"),
    ("contfrac", "convergent_rec"),
    ("contfrac", "convergent_closed"),
    ("contfrac", "approximation_defect"),
    ("contfrac", "identity_even"),
    ("contfrac", "identity_odd"),
    ("contfrac", "classical_identity"),
    ("congruence", "ordp"),
    ("congruence", "kummer_classical"),
    ("congruence", "hb_kummer_pair"),
    ("congruence", "hb_factorial_congruence"),
]
# method spans on hbnum.MemoStore
STORE_SPANS = ["load", "audit", "save"]
# functions that only count, from their arguments
COUNTED = [("exactnum", "enumerate_compositions"), ("exactnum", "enumerate_partition_vectors")]

# Work each workload must show; a traced run with zero calls here fails.
EXPECTED_CALLS = {
    "sweep": [
        "cli.main", "cli.run_sweep", "hbnum.hb", "hbnum.hb_higher",
        "exactnum.cauchy_product", "altforms.hb_descent_nested",
        "altforms.hb_explicit_comp", "altforms.hb_trudi", "altforms.mr",
        "altforms.hb_explicit_binom", "altforms.hb_descent_step",
        "altforms.hb_higher_convolution", "hessenberg.hb_higher_det",
        "hessenberg.toeplitz_hessenberg_det",
        "exactnum.enumerate_compositions", "exactnum.enumerate_partition_vectors",
    ],
    "deep": [
        "cli.main", "cli.run_sweep", "hbnum.hb_higher", "exactnum.cauchy_product",
        "hessenberg.hb_higher_det", "hessenberg.toeplitz_hessenberg_det",
    ],
    "warm": [
        "hbnum.MemoStore.load", "hbnum.MemoStore.audit", "hbnum.MemoStore.save",
        "hbnum.hb", "hbnum.hb_higher", "exactnum.cauchy_product",
        "contfrac.convergent_rec", "contfrac.approximation_defect",
        "congruence.hb_kummer_pair", "congruence.ordp",
    ],
    "cf-kummer": [
        "hbnum.hb", "hbnum.classical", "contfrac.convergent_rec",
        "contfrac.convergent_closed", "contfrac.approximation_defect",
        "contfrac.identity_even", "contfrac.identity_odd",
        "contfrac.classical_identity", "congruence.ordp",
        "congruence.kummer_classical", "congruence.hb_kummer_pair",
        "congruence.hb_factorial_congruence",
    ],
}


def _partition_counts(upto: int) -> list[int]:
    """p(0)..p(upto), the number of integer partitions."""
    p = [1] + [0] * upto
    for part in range(1, upto + 1):
        for total in range(part, upto + 1):
            p[total] += p[total - part]
    return p


class Tracer:
    """Span recorder and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.value_bits_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._partitions = _partition_counts(128)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.value_bits_max = 0

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[name + ".calls"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _note_value(self, value) -> None:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > self.value_bits_max:
            self.value_bits_max = bits

    def _extra(self, name: str, inner):
        """Wrappers that add computed counts on top of the span."""
        counts, note = self.counts, self._note_value
        if name == "exactnum.cauchy_product":

            def cauchy(xs, ys):
                limit = min(len(xs), len(ys))
                counts["exactnum.cauchy_product.terms"] += limit * (limit + 1) // 2
                return inner(xs, ys)

            return cauchy
        if name in ("hbnum.hb", "hbnum.hb_higher"):

            def valued(*args, **kwargs):
                value = inner(*args, **kwargs)
                note(value)
                return value

            return valued
        return inner

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the listed names in every loaded hgbern module."""
        from hgbern import hbnum

        modules = [m for k, m in sys.modules.items() if k == "hgbern" or k.startswith("hgbern.")]
        for home, attr in SPANS + COUNTED:
            name = f"{home}.{attr}"
            original = getattr(importlib.import_module(f"hgbern.{home}"), attr)
            if (home, attr) in COUNTED:
                replacement = self._counted(name, original)
            else:
                replacement = self._extra(name, self._wrap(name, original))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, replacement)
        store_cls = hbnum.MemoStore
        for method in STORE_SPANS:
            wrapped = self._wrap(f"hbnum.MemoStore.{method}", getattr(store_cls, method))
            self._patch(store_cls, method, wrapped)
        self._patch_store_counters(store_cls)

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted(self, name: str, fn):
        counts, partitions = self.counts, self._partitions

        if name == "exactnum.enumerate_compositions":

            def counted(spec):
                counts[name + ".items"] += spec.count()
                return fn(spec)

        else:

            def counted(m):
                if m >= len(partitions):
                    partitions[:] = _partition_counts(2 * m)
                counts[name + ".items"] += partitions[m]
                return fn(m)

        return functools.wraps(fn)(counted)

    def _patch_store_counters(self, store_cls) -> None:
        counts, note = self.counts, self._note_value
        get, put, load, save = store_cls.get, store_cls.put, store_cls.load, store_cls.save

        def counting_get(store, key):
            value = get(store, key)
            counts["hbnum.store.misses" if value is None else "hbnum.store.hits"] += 1
            return value

        def counting_put(store, key, value):
            note(value)
            if key not in store:
                counts["hbnum.store.entries"] += 1
            put(store, key, value)

        def counting_load(store, *args, **kwargs):
            loaded = load(store, *args, **kwargs)
            counts["hbnum.store.entries"] += loaded
            return loaded

        def counting_save(store):
            save(store)
            counts["hbnum.MemoStore.save.bytes"] += store.path.stat().st_size

        self._patch(store_cls, "get", counting_get)
        self._patch(store_cls, "put", counting_put)
        self._patch(store_cls, "load", counting_load)
        self._patch(store_cls, "save", counting_save)

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Calls, self times and counts of the finished pass, by metric name;
        self times are multiplied by `scale`."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter[str] = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[name + ".self_s"] += (end - start - child_time[index]) * scale
        out: dict[str, float] = dict(self.counts)
        out.update(self_s)
        out["hbnum.value_bits_max"] = self.value_bits_max
        return out

    def self_time_total(self) -> float:
        """Sum of every span's self time, which is the time covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
