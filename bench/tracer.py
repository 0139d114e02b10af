"""In-memory spans and counts around the public functions of `stabpair`.

`install` replaces each public function of every module at each name its
callers look it up by (`pairstab` and `energy` import `act`, `convex_hull`,
`contains`, ... by name), plus the polytope constructor, which times the
hulls inside `minkowski_sum` and `dilate`, the halfspace description, the
batch evaluators and the optimizer `energy` calls.  `uninstall` puts the
originals back.  Spans record name, parent, start and end; counts record
work done.  Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

MODULES = ("exactgeom", "polyrep", "pairstab", "energy", "igusa", "varieties")
LAYERS = MODULES + ("cli",)
# functions that share one span name, so that nesting among them counts once
SHARED_NAMES = {
    "varieties.rnc_example": "varieties.build",
    "varieties.rnc_resultant": "varieties.build",
    "varieties.rnc_hyperdiscriminant": "varieties.build",
    "varieties.normalized_pair": "varieties.build",
    "energy.gaussian_inner": "energy.inner",
    "energy.gaussian_norm_sq": "energy.inner",
}


class Tracer:
    """Spans as [name, parent span or None, start, end, child seconds, nested]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.enabled = False
        self._local = threading.local()
        self._patches = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = defaultdict(int)
        return local

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `name` may be a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            state = tracer._state()
            parent = state.stack[-1] if state.stack else None
            rec = [span_name, parent, time.perf_counter(), 0.0, 0.0,
                   state.active[span_name] > 0]
            tracer.spans.append(rec)
            state.stack.append(rec)
            state.active[span_name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec[3] = end
                state.stack.pop()
                state.active[span_name] -= 1
                if parent is not None:
                    parent[4] += end - rec[2]
            if after is not None:
                after(tracer.counts, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, after))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost only) and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, _parent, start, end, child, nested in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child
            if not nested:
                row["total_s"] += end - start
        return dict(out)

    def layer_self(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.summary().items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += row["self_s"]
        return totals

    def edges(self) -> list:
        """Aggregated span tree: (parent name, name, calls, seconds, self seconds)."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for name, parent, start, end, child, _nested in self.spans:
            row = agg[(parent[0] if parent is not None else None, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(
            agg.items(), key=lambda kv: -kv[1][1])]


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to a call: a traced no-op against a plain one."""
    probe = Tracer()
    probe.enabled = True
    plain = (lambda: None)
    traced = probe.wrap("probe", plain)
    best = []
    for fn in (plain, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return (best[1] - best[0]) / calls


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _hull_counts(counts, _result, args, _kwargs):
    self = args[0]
    counts["hull_points_in"] += len(args[1])
    counts["hull_vertices_out"] += len(self.vertices)


def _support_points(counts, result, _args, _kwargs):
    counts["support_points"] += len(result)


def _act_terms(counts, result, _args, _kwargs):
    terms = getattr(result, "terms", None)
    if terms is not None:
        counts["act_terms_out"] += len(terms)


def _optimizer_evals(counts, result, _args, _kwargs):
    counts["optimizer_evals"] += result.nfev


def _height_samples(counts, result, _args, _kwargs):
    counts["height_samples"] += result.samples
    counts["height_resampled"] += result.resampled


def _act_name(polyrep):
    def name(args, kwargs):
        sigma = args[0] if args else kwargs["sigma"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        if isinstance(p, polyrep.FormalPower):
            return "polyrep.act_formal"
        exact = (isinstance(sigma, polyrep.GroupElement) and sigma.is_exact
                 and isinstance(p, polyrep.SparsePolynomial) and p.has_exact_coefficients())
        return "polyrep.act_exact" if exact else "polyrep.act_float"
    return name


# (module where the name is looked up, function name) -> count hook
AFTER = {
    ("pairstab", "support"): _support_points,
    ("igusa", "height"): _height_samples,
    ("varieties", "height"): _height_samples,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of every module at every binding site."""
    import importlib

    mods = {m: importlib.import_module(f"stabpair.{m}") for m in MODULES}
    mods["cli"] = importlib.import_module("stabpair.cli")
    polyrep = mods["polyrep"]
    for home in MODULES:
        module = mods[home]
        for fname in module.__all__:
            fn = getattr(module, fname)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            full = f"{home}.{fname}"
            name = _act_name(polyrep) if full == "polyrep.act" else SHARED_NAMES.get(full, full)
            for site, site_module in mods.items():
                if getattr(site_module, fname, None) is fn:
                    after = AFTER.get((site, fname))
                    if full == "polyrep.act":
                        after = _act_terms
                    tracer.patch(site_module, fname, name, after)
    tracer.patch(mods["cli"], "main", "cli.main")
    tracer.patch(mods["energy"], "minimize", "energy.minimize", _optimizer_evals)
    geom = mods["exactgeom"].LatticePolytope
    tracer.patch(geom, "__init__", "exactgeom.hull", _hull_counts)
    tracer.patch(geom, "halfspaces", "exactgeom.halfspaces")
    for cls in (polyrep.SparsePolynomial, polyrep.BlackBoxPolynomial):
        tracer.patch(cls, "evaluate_batch", "polyrep.evaluate_batch")
