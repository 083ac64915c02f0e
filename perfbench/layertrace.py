"""Per-layer tracing of qgraph from outside the package.

`Tracer.install()` replaces each traced public function of a qgraph
module with a timing wrapper, in every qgraph module namespace that
binds it (so `cli`'s own imported name is traced too), and
`Tracer.uninstall()` puts the originals back.  Nothing under `src/` is
edited.

Each thread keeps its own span stack, because `sim.simulate` samples on
a thread pool: a span's self time is its duration minus the time of the
spans it caused in the same thread.  Calls are not kept one by one but
aggregated per layer into a count, an inclusive total and a self total,
and per (caller, callee) pair into an inclusive total, so the per-sample
kernel costs two clock reads and a few additions per call.

A traced function that a later version of qgraph no longer has is
recorded as absent, never raised as an error.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter

# qgraph modules whose public functions (their `__all__`) are traced; a
# layer is labelled "<module without leading underscore>.<function>"
MODULES = ("graphs", "noise", "spectral", "feller", "control", "treepaths", "sim", "_kernels", "cli")

# traced although not listed in the module's `__all__`
EXTRA = {"_kernels": ("ou_paths",), "cli": ("main",)}


class _ThreadState(threading.local):
    """Span stack and aggregates of one thread.

    threading.local runs __init__ again, with the same arguments, the
    first time each new thread touches the object; every thread's
    aggregates are registered so that a snapshot can merge them.
    """

    def __init__(self, registry: list, lock: threading.Lock):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str | None, str], float] = {}
        with lock:
            registry.append((self.stats, self.edges))


class Tracer:
    """Aggregating span tracer for the public functions of qgraph."""

    def __init__(self, probes: dict | None = None):
        # probes: label -> callable(bound_arguments, result, counters)
        self.probes = probes or {}
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []
        self._local = _ThreadState(self._threads, self._lock)
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self.traced: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        probe = self.probes.get(label)
        signature = inspect.signature(fn) if probe else None
        st = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = st.stack[-1][0] if st.stack else None
            frame = [label, 0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][1] += dt
                rec = st.stats.get(label)
                if rec is None:
                    rec = st.stats[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                key = (caller, label)
                st.edges[key] = st.edges.get(key, 0.0) + dt
            if probe is not None:
                self._run_probe(probe, signature, args, kwargs, result)
            return result

        return traced

    def _run_probe(self, probe, signature, args, kwargs, result) -> None:
        # a probe reads arguments and results by name; if a later qgraph
        # renames them the probe records nothing rather than failing the job
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with self._lock:
                probe(bound.arguments, result, self.counters)
        except (AttributeError, KeyError, TypeError):
            pass

    def install(self) -> None:
        """Wrap every traced function in every qgraph namespace binding it."""
        targets = []
        for mod_name in MODULES:
            prefix = mod_name.lstrip("_")
            try:
                module = importlib.import_module(f"qgraph.{mod_name}")
            except ImportError:
                continue  # its layers are reported absent
            names = list(getattr(module, "__all__", ())) + list(EXTRA.get(mod_name, ()))
            for name in dict.fromkeys(names):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):  # classes and constants are not layers
                    targets.append((f"{prefix}.{name}", fn))
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qgraph" or name.startswith("qgraph."))
        ]
        self.traced = []
        for label, fn in targets:
            wrapper = self._wrap(label, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, fn))
            self.traced.append(label)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for stats, edges in self._threads:
                stats.clear()
                edges.clear()
            self.counters.clear()

    def snapshot(self) -> dict:
        """Layer stats merged over threads: label -> calls, s, self_s."""
        layers: dict[str, dict] = {}
        edges: dict[str, float] = {}
        with self._lock:
            for stats, thread_edges in self._threads:
                for label, (calls, total, own) in list(stats.items()):
                    agg = layers.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
                    agg["calls"] += calls
                    agg["s"] += total
                    agg["self_s"] += own
                for (caller, callee), total in list(thread_edges.items()):
                    key = f"{caller or '<root>'} -> {callee}"
                    edges[key] = edges.get(key, 0.0) + total
            counters = dict(self.counters)
        return {"layers": layers, "edges": edges, "counters": counters}

    def layer_value(self, snap: dict, label: str, stat: str) -> float | None:
        """One stat of one layer; None when the layer is absent."""
        if label not in self.traced:
            return None
        return snap["layers"].get(label, {}).get(stat, 0)
