"""Span recorder for traced jobs, and the per-layer metrics built from it.

The recorder wraps the public functions of each ``shallowwell`` module
from outside, at every name a module binds them to (so calls through
``cli.energy_series`` or ``perturbation.contract`` are seen), plus
``Potential.evaluate``. Each span holds an id, its parent's id, the
layer-qualified name, the binding module, start, end, the exception type
if one escaped, and a few call attributes. Spans stay in memory until
the job ends.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import Counter

LAYERS = (
    "potential",
    "quadrature",
    "perturbation",
    "greens",
    "oracles",
    "resummation",
    "variational",
    "cli",
)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# span name -> attributes taken from (args, kwargs, result) of a call
_ATTRS = {
    "quadrature.contract": lambda a, kw, r: {
        "nodes": _arg(a, kw, 0, "g").size,
        "odd": _arg(a, kw, 2, "k") % 2,
    },
    "quadrature.integrate": lambda a, kw, r: {"nodes": _arg(a, kw, 0, "g").size},
    "potential.evaluate": lambda a, kw, r: {"points": getattr(_arg(a, kw, 1, "x"), "size", 1)},
    "oracles.shooting_sweep": lambda a, kw, r: {
        "batch": len(r),
        "passes": max((res.iterations for res in r), default=0),
    },
    "variational.minimize": lambda a, kw, r: {
        "family": getattr(_arg(a, kw, 0, "tf_kind"), "__name__", _arg(a, kw, 0, "tf_kind"))
    },
}


class Recorder:
    """Collects spans from every thread of one job process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, via: str, fn):
        attrs = _ATTRS.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to the span that waits for it
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            error, extra = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, parent, name, via, start, end, error, extra])
            if attrs is not None:
                spans[-1][7] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of LAYERS at every binding in the package."""
        modules = {m: importlib.import_module(f"shallowwell.{m}") for m in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if n[0] != "_"]
            for n in names:
                fn = getattr(mod, n)
                public = callable(fn) and not isinstance(fn, type)
                if public and getattr(fn, "__module__", None) == mod.__name__:
                    targets[id(fn)] = (fn, f"{layer}.{n}")
        potential_cls = modules["potential"].Potential
        potential_cls.evaluate = self.wrap("potential.evaluate", "potential", potential_cls.evaluate)
        for modname, mod in list(sys.modules.items()):
            if modname != "shallowwell" and not modname.startswith("shallowwell."):
                continue
            via = modname.rsplit(".", 1)[-1]
            wrapped = {}

            def replace(value):
                if id(value) not in targets:  # targets keeps each function alive
                    return value
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(targets[id(value)][1], via, value)
                return wrapped[id(value)]

            space = vars(mod)
            for key, value in list(space.items()):
                space[key] = replace(value)
                if isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                    for k, v in list(value.items()):
                        value[k] = replace(v)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""

    def noop():
        return None

    traced = Recorder().wrap("probe", "probe", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# ---------------------------------------------------------------------------
# per-layer metrics (parent side)

#: per-layer metric name -> unit, in the order they are reported
PER_LAYER = {
    "quadrature.contract.calls": "count",
    "quadrature.contract.s": "s",
    "quadrature.contract.nodes": "count",
    "quadrature.contract.odd.s": "s",
    "quadrature.contract.even.s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.s": "s",
    "quadrature.integrate.nodes": "count",
    "quadrature.build_grid.calls": "count",
    "quadrature.build_grid.s": "s",
    "perturbation.energy_series.calls": "count",
    "perturbation.energy_series.s": "s",
    "perturbation.chain.calls": "count",
    "perturbation.moment.calls": "count",
    "perturbation.evaluate_terms.s": "s",
    "perturbation.contracts_per_series": "count",
    "greens.e4_finite_beta.s": "s",
    "greens.divergent_block.s": "s",
    "oracles.shooting_sweep.calls": "count",
    "oracles.shooting_sweep.s": "s",
    "oracles.passes": "count",
    "oracles.pass_s": "s",
    "oracles.batch": "count",
    "variational.minimize.gaussian.s": "s",
    "variational.minimize.expsqrt.s": "s",
    "variational.rayleigh_quotient.calls": "count",
    "variational.rayleigh_quotient.s": "s",
    "variational.rayleigh_quotient.failed": "count",
    "variational.rq_per_minimize": "count",
    "variational.integrate.nodes": "count",
    "resummation.pade_with_asymptote.s": "s",
    "resummation.evaluate_pade.calls": "count",
    "potential.evaluate.calls": "count",
    "potential.evaluate.s": "s",
    "potential.evaluate.points": "count",
    "cli.load_config.s": "s",
    "cli.self_s": "s",
    "cli.compare.overlap": "ratio",
}


def _covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total, reach = 0.0, start
    for s, e in sorted(children):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_layers(spans) -> dict:
    """Call counts, span seconds and attribute sums of one job's spans."""
    by_id = {sp[0]: sp for sp in spans}
    children = {}
    for sp in spans:
        children.setdefault(sp[1], []).append(sp)

    def under(sp, name):
        parent = by_id.get(sp[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    n, t, a = Counter(), Counter(), Counter()
    for sp in spans:
        sid, _, name, via, start, end, error, extra = sp
        dur = end - start
        n[name] += 1
        t[name] += dur
        if name.startswith("cli."):
            kids = [(c[4], c[5]) for c in children.get(sid, ())]
            t["cli.self"] += dur - _covered(start, end, kids)
        if name == "cli.cmd_compare":
            t["cli.compare.children"] += sum(c[5] - c[4] for c in children.get(sid, ()))
            t["cli.compare.wall"] += dur
        if name == "variational.rayleigh_quotient" and error == "NonNormalizable":
            n["variational.rayleigh_quotient.failed"] += 1
        if extra is None:
            continue
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                a[f"{name}.{key}"] += value
        if name == "quadrature.contract":
            t["quadrature.contract." + ("odd" if extra["odd"] else "even")] += dur
            if under(sp, "perturbation.energy_series"):
                n["series_contracts"] += 1
        elif name == "quadrature.integrate" and via == "variational":
            a["variational.integrate.nodes"] += extra["nodes"]
        elif name == "variational.minimize":
            t[f"variational.minimize.{extra['family']}"] += dur
    return {"n": dict(n), "t": dict(t), "a": dict(a)}


def pass_layers(jobs) -> dict:
    """Per-layer metrics of one pass, from the job_layers of its jobs."""
    n, t, a = Counter(), Counter(), Counter()
    for job in jobs:
        n.update(job["n"])
        t.update(job["t"])
        a.update(job["a"])
    m = {}
    for metric in PER_LAYER:
        base, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            m[metric] = n[base]
        elif leaf == "s":
            m[metric] = float(t[base])
    m.update(
        {
            "quadrature.contract.nodes": a["quadrature.contract.nodes"],
            "quadrature.integrate.nodes": a["quadrature.integrate.nodes"],
            "perturbation.contracts_per_series": _ratio(
                n["series_contracts"], n["perturbation.energy_series"]
            ),
            "oracles.passes": a["oracles.shooting_sweep.passes"],
            "oracles.pass_s": _ratio(
                t["oracles.shooting_sweep"], a["oracles.shooting_sweep.passes"]
            ),
            "oracles.batch": _ratio(
                a["oracles.shooting_sweep.batch"], n["oracles.shooting_sweep"]
            ),
            "variational.rayleigh_quotient.failed": n["variational.rayleigh_quotient.failed"],
            "variational.rq_per_minimize": _ratio(
                n["variational.rayleigh_quotient"], n["variational.minimize"]
            ),
            "variational.integrate.nodes": a["variational.integrate.nodes"],
            "potential.evaluate.points": a["potential.evaluate.points"],
            "cli.self_s": t["cli.self"],
            "cli.compare.overlap": _ratio(t["cli.compare.children"], t["cli.compare.wall"]),
        }
    )
    return m
