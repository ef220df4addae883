"""Per-layer tracing applied from outside the package.

While installed, every public function and public method of the package
modules is replaced by a wrapper that records a span (name, start, end,
parent, thread) in memory.  Functions called per point or per ODE step get a
call counter instead of a span, so tracing does not dominate their cost.
Three private helpers are hooked as well, for the counts they alone see; each
hook is optional, and a helper that no longer exists is reported as absent.

Spans are kept in a list and written out when the benchmark ends.  A span's
self time is its duration minus the union of its direct children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("cli", "ellipsoid", "certify", "conley_zehnder", "symplectic",
          "bodies", "clarke", "dynamics", "bott", "util")

# called per point, per matrix or per ODE step: counted, never spanned
COUNT_ONLY = {
    "symplectic.apply_J", "symplectic.omega", "symplectic.standard_J",
    "symplectic.SymplecticPath.evaluate_batch", "symplectic.SymplecticPath.__call__",
    "bodies.ConvexBody.gauge2", "bodies.ConvexBody.grad_gauge2",
    "bodies.ConvexBody.hess_gauge2", "bodies.ConvexBody.quadric",
    "bodies.ConvexBody.H", "bodies.ConvexBody.grad_H", "bodies.ConvexBody.hess_H",
    "bodies.ConvexBody.reeb_field", "bodies.ConvexBody.project_to_surface",
    "bodies.ConvexBody.on_surface",
}

# optional private hooks: (module, attribute)
PRIVATE_HOOKS = (("ellipsoid", "_scaled_spectrum"),
                 ("conley_zehnder", "_perturbed"),
                 ("dynamics", "_newton_polish"))
# the per-layer metrics each hook feeds, reported absent with it
HOOKED_METRICS = {
    "ellipsoid._scaled_spectrum": ("ellipsoid.values_enumerated", "ellipsoid.useful_ratio"),
    "conley_zehnder._perturbed": ("conley_zehnder.ladder_frac",),
    "dynamics._newton_polish": ("dynamics.newton.attempts", "dynamics.newton.converged",
                                "dynamics.orbits_per_attempt"),
    "dynamics.solve_ivp": ("dynamics.rhs_evals",),
}

# fallback warnings of the program, matched on their message text
WARNING_COUNTERS = (
    ("clarke.tail_advisories", "top quarter of modes"),
    ("clarke.doubling_advisories", "doubling the mode count"),
    ("dynamics.energy_reprojections", "energy drift"),
    ("conley_zehnder.single_rung_accepts", "only one perturbation resolved"),
    ("ellipsoid.float_merge_ambiguous", "merged within tol"),
    ("bodies.pinching_disagreements", "optimizer starts disagree"),
)


class Tracer:
    """Span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, thread)
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []  # (owner, attr, original)
        self._ladder_spans: set = set()
        self._lock = threading.Lock()  # counters are also bumped from pool threads
        self.modules = {name: importlib.import_module(f"reeb_spectra.{name}") for name in LAYERS}
        self._all_modules = [importlib.import_module("reeb_spectra"), *self.modules.values()]

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap_span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
            if after is not None:
                with tracer._lock:
                    after(args, kwargs, result, stack)
            return result

        return wrapper

    def _wrap_count(self, name, fn, amount=None):
        counters, lock = self.counters, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with lock:
                counters[name + ".calls"] += 1
                if amount is not None:
                    counters[amount[0]] += amount[1](args, kwargs, result)
            return result

        return wrapper

    # -- per-function extras -------------------------------------------------

    def _extras(self):
        c = self.counters

        def outermost(stack, name):
            return all(n != name for _, n in stack)

        def spectrum_entries(args, kwargs, result, stack):
            if outermost(stack, "ellipsoid.action_spectrum"):
                c["ellipsoid.action_spectrum.entries"] += len(result)
            if args and getattr(args[0], "exact", False) and not _inside_ellipsoid(stack):
                c["ellipsoid.values_returned"] += len(result)

        def returned(args, kwargs, result, stack):
            if args and getattr(args[0], "exact", False) and not _inside_ellipsoid(stack):
                c["ellipsoid.values_returned"] += len(result)

        def support_points(args, kwargs, result, stack):
            w = args[1] if len(args) > 1 else kwargs["w"]
            c["bodies.support.points"] += max(1, getattr(w, "size", 0) // args[0].dim)

        def psi_points(args, kwargs, result, stack):
            c["clarke.psi_with_grad.points"] += args[1].grid_size

        def orbits_found(args, kwargs, result, stack):
            if outermost(stack, "dynamics.find_closed_orbits"):
                c["dynamics.orbits_reported"] += len(result)

        return {
            "ellipsoid.action_spectrum": spectrum_entries,
            "ellipsoid.spectral_invariants": returned,
            "ellipsoid.invariant_window": returned,
            "bodies.ConvexBody.support": support_points,
            "clarke.psi_with_grad": psi_points,
            "dynamics.find_closed_orbits": orbits_found,
        }

    def _parallel_map(self, fn_orig):
        """Span around the pool call, and one child span per item run in a
        worker thread, so item-seconds and pool wall-seconds are both known."""
        tracer = self

        @functools.wraps(fn_orig)
        def parallel_map(fn, items):
            items = list(items)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            # items run the caller's closure, so their time belongs to its layer
            item_name = (stack[-1][1].split(".", 1)[0] if stack else "util") + ".pool_item"
            with tracer._lock:
                tracer.counters["util.parallel_map.items"] += len(items)

            def item(x):
                st = tracer._stack()
                base = list(st)
                st[:] = [(sid, "util.parallel_map")]
                iid = next(tracer._ids)
                st.append((iid, item_name))
                t0 = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    t1 = time.perf_counter()
                    tracer.spans.append((iid, sid, item_name, t0, t1, threading.get_ident()))
                    st[:] = base

            stack.append((sid, "util.parallel_map"))
            t0 = time.perf_counter()
            try:
                return fn_orig(item, items)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, "util.parallel_map", t0, t1,
                                     threading.get_ident()))

        return parallel_map

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in self._all_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        extras = self._extras()
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name in COUNT_ONLY:
                        wrapper = self._wrap_count(name, obj)
                    elif name == "util.parallel_map":
                        wrapper = self._parallel_map(obj)
                    else:
                        wrapper = self._wrap_span(name, obj, extras.get(name))
                    self._replace_everywhere(obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj, extras)
        self._install_hooks()
        self._install_solver_counter()

    def _install_class(self, layer, cls, extras):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in COUNT_ONLY:
                if attr in ("evaluate_batch", "__call__"):
                    amount = ("symplectic.matrices_evaluated", _matrices)
                    wrapper = self._wrap_count(name, obj, amount)
                else:
                    wrapper = self._wrap_count(name, obj)
            elif attr == "__init__" and cls.__name__ == "ConvexBody":
                wrapper = self._wrap_span("bodies.construct", obj)
            elif attr.startswith("_"):
                continue
            else:
                wrapper = self._wrap_span(name, obj, extras.get(name))
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, wrapper)

    def _install_hooks(self):
        c = self.counters
        tracer = self

        def scaled(args, kwargs, result, stack):
            if result is not None:
                c["ellipsoid.values_enumerated"] += len(result[0])

        def perturbed(args, kwargs, result, stack):
            for sid, name in reversed(stack):
                if name == "conley_zehnder.cz_index":
                    tracer._ladder_spans.add(sid)
                    break

        def newton(args, kwargs, result, stack):
            c["dynamics.newton.attempts"] += 1
            c["dynamics.newton.converged"] += result is not None

        after = {"_scaled_spectrum": scaled, "_perturbed": perturbed, "_newton_polish": newton}
        for layer, attr in PRIVATE_HOOKS:
            mod = self.modules[layer]
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn):
                self.absent.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap_span(f"{layer}.{attr}", fn, after[attr])
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def _install_solver_counter(self):
        dyn = self.modules["dynamics"]
        solve = getattr(dyn, "solve_ivp", None)
        if solve is None:
            self.absent.append("dynamics.solve_ivp")
            return
        c, lock = self.counters, self._lock

        @functools.wraps(solve)
        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            with lock:
                c["dynamics.rhs_evals"] += int(sol.nfev)
            return sol

        self._patches.append((dyn, "solve_ivp", solve))
        dyn.solve_ivp = counted

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- warnings --------------------------------------------------------------

    def count_warnings(self, caught) -> None:
        """Count recorded warnings by category and show each one as usual."""
        for w in caught:
            text = str(w.message)
            for counter, needle in WARNING_COUNTERS:
                if needle in text:
                    self.counters[counter] += 1
                    break
            else:
                self.counters["other_warnings"] += 1
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    # -- aggregation ---------------------------------------------------------------

    def summary(self, rounds: int) -> dict:
        """Per-layer metrics, as totals per traced round."""
        rounds = max(rounds, 1)
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append(s)

        def layer_of(name):
            return name.split(".", 1)[0]

        def ancestors(s):
            p = s[1]
            while p is not None and p in by_id:
                yield by_id[p]
                p = by_id[p][1]

        busy_name = Counter()
        layer_busy = Counter()
        layer_self = Counter()
        for s in self.spans:
            name, dur = s[2], s[4] - s[3]
            anc = list(ancestors(s))
            if all(a[2] != name for a in anc):
                busy_name[name] += dur
            layer = layer_of(name)
            if all(layer_of(a[2]) != layer for a in anc):
                layer_busy[layer] += dur
            layer_self[layer] += dur - _covered(s[3], s[4], children.get(s[0], ()))

        c = self.counters
        cz_calls = sum(1 for s in self.spans if s[2] == "conley_zehnder.cz_index"
                       and all(a[2] != s[2] for a in ancestors(s)))
        item_s = sum(v for k, v in busy_name.items() if k.endswith(".pool_item"))
        pool_s = busy_name["util.parallel_map"]
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = layer_busy[layer] / rounds
            m[f"{layer}.self_s"] = layer_self[layer] / rounds
        for name in ("ellipsoid.spectral_invariants", "ellipsoid.invariant_window",
                     "ellipsoid.action_spectrum", "certify.besse_by_invariants",
                     "certify.zoll_by_pinching", "conley_zehnder.cz_index",
                     "conley_zehnder.morse_index_from_path", "bodies.construct",
                     "bodies.ConvexBody.support", "bodies.ConvexBody.pinching_radii",
                     "clarke.psi_with_grad", "clarke.minimize",
                     "dynamics.monodromy_and_index"):
            short = name.replace("bodies.ConvexBody.", "bodies.")
            m[f"{short}.busy_s"] = busy_name[name] / rounds
        m["ellipsoid.action_spectrum.entries"] = c["ellipsoid.action_spectrum.entries"] / rounds
        m["cli.stdout_bytes"] = c["cli.stdout_bytes"] / rounds
        m["conley_zehnder.cz_index.calls"] = cz_calls / rounds
        m["symplectic.matrices_evaluated"] = c["symplectic.matrices_evaluated"] / rounds
        m["bodies.support.points"] = c["bodies.support.points"] / rounds
        m["bodies.hess_gauge2.calls"] = c["bodies.ConvexBody.hess_gauge2.calls"] / rounds
        m["clarke.psi_with_grad.calls"] = sum(
            1 for s in self.spans if s[2] == "clarke.psi_with_grad") / rounds
        m["clarke.psi_with_grad.points"] = c["clarke.psi_with_grad.points"] / rounds
        if "dynamics.solve_ivp" not in self.absent:
            m["dynamics.rhs_evals"] = c["dynamics.rhs_evals"] / rounds
        m["dynamics.flow_with_monodromy.calls"] = sum(
            1 for s in self.spans if s[2] == "dynamics.flow_with_monodromy") / rounds
        m["util.workers"] = self.modules["util"].max_workers()
        m["util.parallel_map.items"] = c["util.parallel_map.items"] / rounds
        m["util.pool_concurrency"] = item_s / pool_s if pool_s else 0.0
        m["bott.calls"] = sum(1 for s in self.spans if layer_of(s[2]) == "bott" and all(
            layer_of(a[2]) != "bott" for a in ancestors(s))) / rounds
        for counter, _ in WARNING_COUNTERS:
            m[counter] = c[counter] / rounds
        # optional hooks: reported only when the helper exists
        if "ellipsoid._scaled_spectrum" not in self.absent:
            m["ellipsoid.values_enumerated"] = c["ellipsoid.values_enumerated"] / rounds
            enumerated = c["ellipsoid.values_enumerated"]
            m["ellipsoid.useful_ratio"] = (c["ellipsoid.values_returned"] / enumerated
                                           if enumerated else 0.0)
        if "conley_zehnder._perturbed" not in self.absent:
            m["conley_zehnder.ladder_frac"] = len(self._ladder_spans) / cz_calls if cz_calls else 0.0
        if "dynamics._newton_polish" not in self.absent:
            attempts = c["dynamics.newton.attempts"]
            m["dynamics.newton.attempts"] = attempts / rounds
            m["dynamics.newton.converged"] = c["dynamics.newton.converged"] / rounds
            m["dynamics.orbits_per_attempt"] = (c["dynamics.orbits_reported"] / attempts
                                                if attempts else 0.0)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, thread in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "thread": thread}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters), "absent": self.absent}) + "\n")


def _matrices(args, kwargs, result):
    return len(result) if getattr(result, "ndim", 0) == 3 else 1


def _inside_ellipsoid(stack) -> bool:
    return any(name.startswith("ellipsoid.") for _, name in stack)


def _covered(lo, hi, spans) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    ivs = sorted((max(lo, s[3]), min(hi, s[4])) for s in spans)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
