"""In-memory span tracer for the layers of ``cstar_rank``.

``Tracer.install`` wraps the public functions and methods of each layer
module (plus the arithmetic operators of its classes).  A wrapped function is
replaced in *every* ``cstar_rank`` module that imported it, so calls between
layers (``stable_rank.is_unimodular`` as well as ``hilbert_module.is_unimodular``)
are seen.  Every call records a span: name, start, end, parent span and the
benchmark operation it belongs to.  Self time is the span's duration minus
the time its child spans cover.  Spans stay in memory and are written once,
when the run ends.

A span is named ``<layer>.<attribute>``: methods of different classes in one
layer that share a name (``ModuleSpace.random_element`` and
``CornerSpace.random_element``) add up under one name.  A method whose name is
also a free function of its layer (``ModuleSpace.gram`` behind the free
``gram``) is left unwrapped, so the two never nest under one name.

Besides calls and self time the tracer keeps a few counters at the same
boundaries:

* ``stable_rank.bass_reduce.attempts``: candidate draws, counted as the
  ``is_unimodular`` calls made directly by ``bass_reduce``;
  ``.successes``: ``bass_reduce`` calls that returned a reduction.
* ``hilbert_module.is_full.cold_calls``: the first ``is_full`` call for a space
  and tolerance in the process (by value for hashable spaces, by object for
  unhashable ones, as the library caches them).
* ``hilbert_module.is_full.computed_temp_bytes``: for each cold call, the size
  of the brute-force matrix ``(r s)^2 x s^2`` (complex128) per block of shape
  ``(r, s)``.  Computed from shapes, not measured.
* ``hilbert_module.gen_oracle.computed_matrix_bytes``: for each call of
  ``gen_oracle`` or ``generation_margin`` on a ``k``-tuple, the size of the
  span map ``(r s) x (k r^2)`` (complex128) per block.  Computed from shapes.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

#: Modules of the package traced as layers, in dependency order.
LAYERS = ("sampling", "algebra", "hilbert_module", "stable_rank", "cli")

#: Operator methods traced besides the public names.
ARITHMETIC = frozenset(
    ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__matmul__")
)

#: Spans kept for the span file; counts and self times cover every span.
SPAN_CAP = 200_000

COMPLEX_BYTES = 16


def block_pairs(space):
    """Per-block ``(r, s)``: compressed shape for corners, block shape otherwise."""
    shapes = getattr(space, "compressed_shapes", None)
    return tuple(shapes if shapes is not None else space.block_shapes)


def is_full_temp_bytes(space) -> int:
    total = 0
    for r, s in block_pairs(space):
        if s == 0:
            continue
        if r == 0:
            break
        total += COMPLEX_BYTES * (r * s) ** 2 * s * s
    return total


def gen_oracle_bytes(t) -> int:
    k = len(t)
    return sum(
        COMPLEX_BYTES * (r * s) * (k * r * r) for r, s in block_pairs(t.space) if r * s
    )


class Tracer:
    """Wraps the layers while installed; keeps per-name calls and self time."""

    def __init__(self, default_tol=1e-9):
        self.default_tol = default_tol
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = {}
        self.spans = []  # [op, name, start, end, parent index]
        self.record_spans = True
        self.op = None
        self._stack = []  # frames: [name, child seconds, span index]
        self._patches = []
        self._seen_full = {}
        self._enter_hooks = {
            "hilbert_module.is_full": self._on_is_full,
            "hilbert_module.gen_oracle": self._on_gen_oracle,
            "hilbert_module.generation_margin": self._on_gen_oracle,
        }

    # -- counters ------------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_is_full(self, args, kwargs):
        space = args[0] if args else kwargs["space"]
        tol = args[1] if len(args) > 1 else kwargs.get("tol", self.default_tol)
        try:
            hash(space)
            key = (space, tol)
        except TypeError:
            key = (id(space), tol)
        if key not in self._seen_full:
            self._seen_full[key] = space  # holds the object so its id stays unique
            self.count("hilbert_module.is_full.cold_calls")
            self.count("hilbert_module.is_full.computed_temp_bytes", is_full_temp_bytes(space))

    def _on_gen_oracle(self, args, kwargs):
        t = args[0] if args else kwargs["t"]
        self.count("hilbert_module.gen_oracle.computed_matrix_bytes", gen_oracle_bytes(t))

    def _on_exit(self, name, ok, parent):
        if name == "hilbert_module.is_unimodular":
            if parent is not None and parent[0] == "stable_rank.bass_reduce":
                self.count("stable_rank.bass_reduce.attempts")
        elif name == "stable_rank.bass_reduce" and ok:
            self.count("stable_rank.bass_reduce.successes")

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        on_enter = self._enter_hooks.get(name)

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            parent = stack[-1] if stack else None
            index = -1
            if tracer.record_spans and len(tracer.spans) < SPAN_CAP:
                index = len(tracer.spans)
                tracer.spans.append(
                    [tracer.op, name, 0.0, 0.0, parent[2] if parent else -1]
                )
            frame = [name, 0.0, index]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if index >= 0:
                    span = tracer.spans[index]
                    span[2] = start
                    span[3] = end
                tracer._on_exit(name, ok, parent)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer; call ``uninstall`` before installing again."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import cstar_rank.cli  # noqa: F401  (the CLI is a layer too)

        package = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cstar_rank" or n.startswith("cstar_rank."))
        ]
        for layer in LAYERS:
            mod = sys.modules.get(f"cstar_rank.{layer}")
            if mod is None:
                continue
            free = {
                attr: obj
                for attr, obj in vars(mod).items()
                if not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            }
            for attr, obj in free.items():
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for m in package:
                    for name, value in list(vars(m).items()):
                        if value is obj:
                            self._patch(m, name, wrapper)
            classes = [
                obj for obj in vars(mod).values()
                if isinstance(obj, type) and obj.__module__ == mod.__name__
            ]
            for cls in classes:
                for attr, raw in list(vars(cls).items()):
                    if attr in free or (attr.startswith("_") and attr not in ARITHMETIC):
                        continue
                    name = f"{layer}.{attr}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._wrap(name, raw)
                    else:
                        continue
                    self._patch(cls, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the cumulative calls, self times and counters."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }

    def merge(self, summary: dict):
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, (calls, self_s) in summary["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in summary["counters"].items():
            self.count(key, value)

    def write_spans(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "fields": ["op", "name", "start_s", "end_s", "parent"],
            "names": names,
            "truncated_at": SPAN_CAP if len(self.spans) >= SPAN_CAP else None,
            "spans": [
                [op, index[name], round(start - t0, 7), round(end - t0, 7), parent]
                for op, name, start, end, parent in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def diff(later: dict, earlier: dict) -> dict:
    """Per-name difference of two snapshots."""
    stats = {}
    for name, (calls, self_s) in later["stats"].items():
        c0, s0 = earlier["stats"].get(name, (0, 0.0))
        stats[name] = [calls - c0, self_s - s0]
    counters = {
        k: v - earlier["counters"].get(k, 0) for k, v in later["counters"].items()
    }
    return {"stats": stats, "counters": counters}
