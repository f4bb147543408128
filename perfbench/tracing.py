"""In-memory spans around the calls each marketgraph layer makes.

The tracer wraps module attributes from outside the package: no file under
``src/`` changes.  Every wrapped call records one span (name, start, end,
parent) into flat arrays; ``pair_indices`` is only counted, because it runs
~100k times per pipeline and a span each would dominate the trace.
``install`` swaps the wrappers in and ``restore`` puts the original objects
back, so an untraced run never pays for tracing.
"""

from __future__ import annotations

import os
import types
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name); a module that calls a function through
# its own imported name needs its own entry.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "ingest_prices", "cli.ingest"),
    ("cli", "write_matrix_csv", "cli.write"),
    ("cli", "write_edges_csv", "cli.write"),
    ("cli", "write_indicators_csv", "cli.write"),
    ("cli", "write_meta", "cli.write"),
    ("cli", "read_matrix_csv", "cli.read"),
    ("cli", "read_indicators_csv", "cli.read"),
    ("cli", "log_returns", "preprocessing"),
    ("cli", "sample_covariance", "preprocessing"),
    ("cli", "correlation_from_covariance", "preprocessing"),
    ("cli", "remove_market_factor", "preprocessing"),
    ("cli", "normalize_columns", "preprocessing"),
    ("cli", "distance_matrix", "preprocessing"),
    ("cli", "compute_indicators", "analytics"),
    ("cli", "strategy_s1", "analytics"),
    ("cli", "strategy_s2", "analytics"),
    ("cli", "learn_connected_mle", "solvers.learn"),
    ("cli", "learn_k_component", "solvers.learn"),
    ("cli", "learn_smooth_graph", "solvers.learn"),
    ("cli", "learn_time_varying", "solvers.learn"),
    ("cli", "laplacian_from_weights", "laplacian.from_weights"),
    ("cli", "simulate_factor_market", "synthetic"),
    ("cli", "random_k_component_graph", "synthetic"),
    ("cli", "sample_gmrf", "synthetic"),
    ("solvers", "solve_l_subproblem", "solvers.solve_l_subproblem"),
    ("solvers", "_spg", "solvers.spg"),
    ("solvers", "laplacian_from_weights", "laplacian.from_weights"),
    ("solvers", "laplacian_adjoint", "laplacian.adjoint"),
    ("solvers", "degrees_from_weights", "laplacian.degree_ops"),
    ("solvers", "dual_to_pairs", "laplacian.degree_ops"),
    # num_components reaches spectral_summary through the laplacian module
    ("laplacian", "spectral_summary", "laplacian.spectral"),
    ("analytics", "spectral_summary", "laplacian.spectral"),
]
COUNTED = [
    ("laplacian", "pair_indices"),
    ("solvers", "pair_indices"),
    ("cli", "pair_indices"),
    ("synthetic", "pair_indices"),
]
# numpy.linalg as seen from marketgraph.solvers only
FACTOR = ("cholesky", "inv", "eigh")


class Tracer:
    """Spans and counters of one process; install, run, restore."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def spanned(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs inside it."""
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out
            finally:
                self._close(idx)

        return wrapper

    def counted(self, key: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the attributes of ``modules`` (short name -> module object)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        counters = self.counters

        def ingested(args, kwargs, out):
            counters["cli.ingest.bytes"] += _size(args[0])

        def written(args, kwargs, out):
            # write_meta(outdir, ...) writes outdir/meta.json; the others take the file path
            path = args[0]
            counters["cli.write.bytes"] += _size(os.path.join(path, "meta.json") if os.path.isdir(path) else path)

        def l_step(args, kwargs, out):
            # learn_k_component passes its spectral subspace on every outer step
            if kwargs.get("null_basis") is not None:
                counters["solvers.kcomp_outer"] += 1

        hooks = {"cli.ingest": ingested, "cli.write": written, "solvers.solve_l_subproblem": l_step}
        for mod, attr, name in SPANS:
            module = modules[mod]
            fn = getattr(module, attr)
            if name == "solvers.spg":
                fn = self._spg_wrapper(fn)
            self._set(module, attr, self.spanned(name, fn, hooks.get(name)))
        for mod, attr in COUNTED:
            module = modules[mod]
            self._set(module, attr, self.counted("laplacian.pair_indices.calls", getattr(module, attr)))

        solvers = modules["solvers"]
        linalg = _module_copy(np.linalg)
        for attr in FACTOR:
            setattr(linalg, attr, self.spanned(f"solvers.factor.{attr}", getattr(np.linalg, attr)))
        proxy = _module_copy(solvers.np)
        proxy.linalg = linalg
        self._set(solvers, "np", proxy)

    def _spg_wrapper(self, spg):
        """Counts SPG iterations and wraps the objective in its own span."""
        counters = self.counters

        def traced_spg(fun, *args, **kwargs):
            out = spg(self.spanned("solvers.objective", fun), *args, **kwargs)
            counters["solvers.spg_iters"] += out[3]
            if not out[4]:
                counters["solvers.spg_unconverged"] += 1
            return out

        return traced_spg

    def restore(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to :meth:`window` later."""
        return len(self.start), Counter(self.counters)

    def window(self, mark: tuple[int, Counter]) -> tuple[dict, Counter]:
        """Spans (as arrays) and counter increments since ``mark``."""
        lo, counts = mark
        spans = {
            "name": np.frombuffer(self.name_id, dtype=np.int64)[lo:].copy(),
            "start": np.frombuffer(self.start, dtype=np.int64)[lo:].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[lo:].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[lo:] - lo,
        }
        delta = Counter(self.counters)
        delta.subtract(counts)
        return spans, delta

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _module_copy(module) -> types.ModuleType:
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    return copy


def _size(path) -> int:
    return os.stat(path).st_size


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap one
    another; each child is clipped to its parent's interval.  ``parent`` is
    -1 (or any negative index) for a root span.
    """
    dur = (end - start).astype(np.float64)
    covered = np.zeros_like(dur)
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    overlap = np.minimum(end[child], end[par]) - np.maximum(start[child], start[par])
    np.add.at(covered, par, np.maximum(overlap, 0))
    return dur - covered


def layer_metrics(spans: dict, counters: Counter, names: list[str]) -> dict[str, float]:
    """Per-layer counts and seconds of one traced iteration."""
    name = spans["name"]
    dur = (spans["end"] - spans["start"]) / 1e9
    own = self_times(spans["start"], spans["end"], spans["parent"]) / 1e9

    def select(*prefixes):
        ids = [i for i, n in enumerate(names) if any(n == p or n.startswith(p + ".") for p in prefixes)]
        return np.isin(name, ids)

    def calls(*prefixes):
        return int(select(*prefixes).sum())

    def seconds(*prefixes):
        return float(dur[select(*prefixes)].sum())

    spg = select("solvers.spg")
    has_parent = spans["parent"] >= 0
    in_l_step = np.zeros_like(spg)
    in_l_step[has_parent] = select("solvers.solve_l_subproblem")[spans["parent"][has_parent]]
    obj_evals = calls("solvers.objective")
    iters = counters["solvers.spg_iters"]
    out = {
        "laplacian.pair_indices.calls": counters["laplacian.pair_indices.calls"],
        "laplacian.from_weights.calls": calls("laplacian.from_weights"),
        "laplacian.from_weights.s": seconds("laplacian.from_weights"),
        "laplacian.adjoint.calls": calls("laplacian.adjoint"),
        "laplacian.adjoint.s": seconds("laplacian.adjoint"),
        "laplacian.degree_ops.calls": calls("laplacian.degree_ops"),
        "laplacian.degree_ops.s": seconds("laplacian.degree_ops"),
        "laplacian.spectral.calls": calls("laplacian.spectral"),
        "laplacian.spectral.s": seconds("laplacian.spectral"),
        "solvers.factor.calls": calls("solvers.factor"),
        "solvers.factor.s": seconds("solvers.factor"),
    }
    for attr in FACTOR:
        out[f"solvers.factor.{attr}.calls"] = calls(f"solvers.factor.{attr}")
        out[f"solvers.factor.{attr}.s"] = seconds(f"solvers.factor.{attr}")
    out.update({
        "solvers.al_rounds": int((spg & in_l_step).sum()),
        "solvers.kcomp_outer": counters["solvers.kcomp_outer"],
        "solvers.spg_calls": int(spg.sum()),
        "solvers.spg_unconverged": counters["solvers.spg_unconverged"],
        "solvers.spg_iters": iters,
        "solvers.obj_evals": obj_evals,
        "solvers.accept_ratio": iters / obj_evals if obj_evals else 0.0,
        "solvers.self_s": float(own[select("solvers.learn", "solvers.solve_l_subproblem",
                                           "solvers.spg", "solvers.objective")].sum()),
        "preprocessing.calls": calls("preprocessing"),
        "preprocessing.s": seconds("preprocessing"),
        "analytics.calls": calls("analytics"),
        "analytics.s": seconds("analytics"),
        "cli.ingest.calls": calls("cli.ingest"),
        "cli.ingest.s": seconds("cli.ingest"),
        "cli.ingest.bytes": counters["cli.ingest.bytes"],
        "cli.write.files": calls("cli.write"),
        "cli.write.bytes": counters["cli.write.bytes"],
        "cli.write.s": seconds("cli.write"),
        "cli.read.files": calls("cli.read"),
        "cli.read.s": seconds("cli.read"),
        "cli.self_s": float(own[select("cli.main")].sum()),
        "synthetic.s": seconds("synthetic"),
    })
    return out
