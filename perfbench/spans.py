"""In-memory span tracer that wraps plap's public entry points from outside.

Every wrapped call becomes a span (name, start, end, parent span, op id),
kept in memory until ``dump``.  A span's self time is its duration minus
the time its child spans and counted leaf calls cover.  Hot leaf calls
(the radial profile) are aggregated into a call counter and a time sum
instead of spans.  Concave-term and evolution calls open a span only at
the boundary into their layer; calls they make into the same layer run
untraced, and those on another object (a mollified term's base) are
counted.
"""

import inspect
import json
import sys
import time

LEAF = "leaf"
SPAN = "span"
COUNT = "count"
BOUNDARY = "boundary"


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []         # (name, start, end, parent index, op, self seconds)
        self.counts = {}
        self.leaf_s = {}
        self.unknowns = []
        self._stack = []        # open spans: [name, start, child seconds, index]
        self._depth = {}        # layer -> nesting depth of BOUNDARY calls
        self._owner = {}        # layer -> first argument of the open boundary call
        self._next = 0

    # ------------------------------------------------------------ wrappers
    def _call_span(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        rec = [name, 0.0, 0.0, self._next]
        self._next += 1
        stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - rec[1]
            if parent is not None:
                parent[2] += dur
            self.spans.append((name, rec[1], end, parent[3] if parent else None,
                               self.op, dur - rec[2]))

    def wrap(self, kind, name, fn):
        tracer = self
        counts, leaf_s = self.counts, self.leaf_s

        if kind == SPAN:
            def wrapper(*args, **kwargs):
                return tracer._call_span(name, fn, args, kwargs)
        elif kind == LEAF:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    counts[name] = counts.get(name, 0) + 1
                    leaf_s[name] = leaf_s.get(name, 0.0) + dt
                    if tracer._stack:
                        tracer._stack[-1][2] += dt
        elif kind == COUNT:
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
        else:
            layer = name.split(".")[0]
            nested = layer + ".nested"

            def wrapper(*args, **kwargs):
                depth = tracer._depth.get(layer, 0)
                tracer._depth[layer] = depth + 1
                try:
                    if depth:
                        # a call on another object (a base term), not a self-call
                        if depth == 1 and args[0] is not tracer._owner.get(layer):
                            counts[nested] = counts.get(nested, 0) + 1
                        return fn(*args, **kwargs)
                    tracer._owner[layer] = args[0] if args else None
                    return tracer._call_span(name, fn, args, kwargs)
                finally:
                    tracer._depth[layer] = depth
        return wrapper

    def patch(self, module, attr, kind, name, before=None):
        """Wrap ``module.attr`` and every re-import of the same object into
        another loaded plap module; ``before(*args)`` runs ahead of each
        call.  Missing attributes are skipped."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        target = fn
        if before is not None:
            def target(*args, **kwargs):
                before(*args)
                return fn(*args, **kwargs)
        wrapper = self.wrap(kind, name, target)
        for mod in [module] + [m for k, m in list(sys.modules.items())
                               if k == "plap" or k.startswith("plap.")]:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapper)

    def install(self):
        """Wrap the entry points of every plap layer (see the README)."""
        import jsonschema
        import scipy.sparse.linalg as spla

        from plap import cli, comparison, concave, core, evolution, superpose, verify

        self.patch(cli, "main", SPAN, "cli.main")
        self.patch(jsonschema, "validate", SPAN, "cli.validate")
        self.patch(core, "fundamental_profile", LEAF, "core.profile")
        for attr, name in (("evaluate", "evaluate"), ("delta_p_direct", "direct"),
                           ("delta_p_closed_form", "closed_form"), ("delta_p_fd", "fd"),
                           ("delta_p_scale", "scale")):
            self.patch(superpose, attr, SPAN, "superpose." + name)
        self.patch(comparison, "comparison_check", SPAN, "comparison.check")
        self.patch(comparison, "superposition_grid", SPAN, "comparison.grid")
        self.patch(spla, "spsolve", SPAN, "comparison.linear_solve")
        self.patch(comparison, "_hessian", COUNT, "comparison.newton_iter")
        self.patch(comparison, "solve_p_harmonic", SPAN, "comparison.solve",
                   before=lambda dom, *_: self.unknowns.append(_interior(dom)))
        for attr in ("run_suite", "verify_superpose", "verify_concave",
                     "verify_comparison", "verify_evolution"):
            self.patch(verify, attr, SPAN, "verify." + attr.replace("verify_", ""))
        for attr, fn in list(vars(evolution).items()):
            if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == evolution.__name__:
                self.patch(evolution, attr, BOUNDARY, "evolution.call")
        for cls in _subclasses(concave.ConcaveTerm):
            for meth in ("value", "eval", "eval_lenient"):
                if meth in vars(cls):
                    setattr(cls, meth, self.wrap(BOUNDARY, "concave." + meth, vars(cls)[meth]))

    # ------------------------------------------------------------- results
    def totals(self):
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        out = {}
        for name, start, end, _, _, self_s in self.spans:
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        return out

    def root_seconds(self):
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent is None)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "fields": ["name", "start", "end", "parent", "op", "self_s"],
                "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                "counts": self.counts,
                "leaf_s": self.leaf_s,
            }, fh)


def _interior(dom):
    total = 1
    for m in dom.shape:
        total *= m - 2
    return total


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def layer_metrics(tracer, traced_wall_s, rows):
    """Per-layer metrics of one traced pass (see the README's table)."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(t[2] for n, t in tot.items() if n.split(".")[0] == layer)

    evaluate_calls = calls("superpose.evaluate")
    concave_top = calls("concave.value") + calls("concave.eval") + calls("concave.eval_lenient")
    solves = calls("comparison.solve")
    accounted = sum(t[2] for t in tot.values()) + sum(tracer.leaf_s.values())
    gaps = traced_wall_s - tracer.root_seconds()
    return {
        "core.profile_calls": tracer.counts.get("core.profile", 0),
        "core.profile_self_s": tracer.leaf_s.get("core.profile", 0.0),
        "superpose.evaluate_calls": evaluate_calls,
        "superpose.evaluate_self_s": self_s("superpose.evaluate"),
        "superpose.evals_per_point": evaluate_calls / rows if rows else 0.0,
        "superpose.direct_self_s": self_s("superpose.direct"),
        "superpose.closed_form_self_s": self_s("superpose.closed_form"),
        "superpose.fd_self_s": self_s("superpose.fd"),
        "superpose.scale_self_s": self_s("superpose.scale"),
        "concave.value_calls": calls("concave.value"),
        "concave.eval_calls": calls("concave.eval") + calls("concave.eval_lenient"),
        "concave.base_calls_per_value": (
            tracer.counts.get("concave.nested", 0) / concave_top if concave_top else 0.0),
        "concave.self_s": layer_self("concave"),
        "comparison.grid_s": incl("comparison.grid"),
        "comparison.solve_s": incl("comparison.solve"),
        "comparison.solve_self_s": self_s("comparison.solve"),
        "comparison.linear_solve_calls": calls("comparison.linear_solve"),
        "comparison.linear_solve_s": incl("comparison.linear_solve"),
        "comparison.newton_iters": tracer.counts.get("comparison.newton_iter", 0),
        "comparison.unknowns": sum(tracer.unknowns) / solves if solves else 0.0,
        "comparison.check_self_s": self_s("comparison.check"),
        "evolution.calls": calls("evolution.call"),
        "evolution.self_s": layer_self("evolution"),
        "verify.superpose_s": incl("verify.superpose"),
        "verify.concave_s": incl("verify.concave"),
        "verify.comparison_s": incl("verify.comparison"),
        "verify.evolution_s": incl("verify.evolution"),
        "verify.self_s": layer_self("verify"),
        "cli.validate_s": incl("cli.validate"),
        "cli.self_s": self_s("cli.main", "cli.validate"),
        "trace.accounted_frac": (accounted + gaps) / traced_wall_s,
    }
