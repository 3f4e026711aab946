"""Per-layer tracing of gogkit from outside the package.

`Tracer.install` wraps the public functions of every gogkit module at every
module binding of the same function object, so a call is attributed to the
module it was made from (`depth.explore` is `oracle.explore` called from
gogkit.depth), and wraps the listed methods on their classes.  Every call is
timed; its self time is its duration minus the durations of the wrapped
calls made directly inside it.  Calls at layer boundaries also record a
span (name, start, end, parent span, op id) in flat arrays kept in memory,
which `write` dumps at exit.  The functions in HOT, called millions of times
per run (one ball-compare run makes 2.5 M `coarse_le` calls), are counted
and timed like the rest but record no span, which keeps a traced run's
memory small.

Span file layout: a JSON header line {"names": [...], "count": n}, then the
arrays name id (int32), parent span (int32, -1 for none), op id (int32),
start and end (float64 seconds from `time.perf_counter`), each n entries
long, in native byte order.  Traced seconds are raw wall time, not rescaled
to a fixed host speed as the end-to-end op times are.
"""

from __future__ import annotations

import array
import json
import sys
import weakref
from time import perf_counter

# (defining module, function) traced at every binding.
FUNCTIONS = (
    ("model", "load_graph"), ("model", "validate"),
    ("oracle", "explore"),
    ("exactlin", "canonicalize"), ("exactlin", "kernel_vectors"), ("exactlin", "contains"),
    ("exactlin", "image"), ("exactlin", "preimage"), ("exactlin", "intersect"),
    ("reduce", "reducible_edges"), ("reduce", "collapse"), ("reduce", "complete_reduce"),
    ("reduce", "comm_classes"),
    ("depth", "depth_filtration"), ("depth", "depth_zero_rafts"), ("depth", "raft_kind"),
    ("crossing", "check_hypotheses"), ("crossing", "crossing_graph"),
    ("patterns", "patterns_equivalent"),
    ("treeball", "build_ball"), ("treeball", "smith_normal_form"), ("treeball", "coarse_le"),
    ("treeball", "ball_chain_depths"), ("treeball", "annotate_depth"),
    ("treeball", "ball_crossing_check"),
    ("cli", "main"),
)

# (defining module, class, method, span name); both oracles share one name.
METHODS = (
    ("model", "GraphOfGroups", "edge", "model.edge"),
    ("model", "GraphOfGroups", "ends_at", "model.ends_at"),
    ("model", "GraphOfGroups", "oracle", "model.oracle"),
    ("oracle", "AbelianOracle", "transport", "oracle.transport"),
    ("oracle", "TableOracle", "transport", "oracle.transport"),
    ("oracle", "AbelianOracle", "class_of", "oracle.class_of"),
    ("oracle", "TableOracle", "class_of", "oracle.class_of"),
    ("exactlin", "RatMatrix", "det", "exactlin.det"),
)

HOT = {"model.edge", "model.ends_at", "oracle.class_of", "oracle.transport",
       "exactlin.contains", "exactlin.det", "exactlin.canonicalize", "treeball.coarse_le"}

# Per-layer metrics printed by a traced run: (name, unit, better).
PER_LAYER = (
    ("model.edge.calls", "count", "lower"), ("model.edge.self_s", "s", "lower"),
    ("model.ends_at.calls", "count", "lower"), ("model.ends_at.self_s", "s", "lower"),
    ("model.load_graph.self_s", "s", "lower"), ("model.validate.self_s", "s", "lower"),
    ("model.oracle.calls", "count", "lower"),
    ("oracle.explore.calls", "count", "lower"), ("oracle.explore.states", "count", "lower"),
    ("oracle.explore.self_s", "s", "lower"), ("oracle.explore.truncated_ratio", "ratio", "lower"),
    ("oracle.transport.calls", "count", "lower"), ("oracle.transport.self_s", "s", "lower"),
    ("oracle.transport.repeat_ratio", "ratio", "lower"),
    ("oracle.class_of.calls", "count", "lower"),
    ("exactlin.canonicalize.calls", "count", "lower"), ("exactlin.canonicalize.self_s", "s", "lower"),
    ("exactlin.kernel_vectors.calls", "count", "lower"),
    ("exactlin.kernel_vectors.self_s", "s", "lower"),
    ("exactlin.contains.calls", "count", "lower"), ("exactlin.contains.self_s", "s", "lower"),
    ("exactlin.image.calls", "count", "lower"), ("exactlin.image.self_s", "s", "lower"),
    ("exactlin.preimage.calls", "count", "lower"), ("exactlin.preimage.self_s", "s", "lower"),
    ("exactlin.intersect.calls", "count", "lower"), ("exactlin.intersect.self_s", "s", "lower"),
    ("exactlin.contains.cache_hit_ratio", "ratio", "higher"),
    ("exactlin.det.calls", "count", "lower"), ("exactlin.det.self_s", "s", "lower"),
    ("exactlin.subspace_hash.calls", "count", "lower"),
    ("reduce.reducible_edges.calls", "count", "lower"),
    ("reduce.reducible_edges.self_s", "s", "lower"),
    ("reduce.collapse.calls", "count", "lower"), ("reduce.collapse.self_s", "s", "lower"),
    ("reduce.complete_reduce.self_s", "s", "lower"), ("reduce.comm_classes.self_s", "s", "lower"),
    ("reduce.explore.calls", "count", "lower"),
    ("depth.depth_filtration.self_s", "s", "lower"), ("depth.depth_zero_rafts.self_s", "s", "lower"),
    ("depth.raft_kind.self_s", "s", "lower"), ("depth.explore.calls", "count", "lower"),
    ("depth.explore.states", "count", "lower"),
    ("crossing.check_hypotheses.self_s", "s", "lower"),
    ("crossing.crossing_graph.calls", "count", "lower"),
    ("crossing.crossing_graph.self_s", "s", "lower"),
    ("patterns.patterns_equivalent.calls", "count", "lower"),
    ("patterns.patterns_equivalent.self_s", "s", "lower"),
    ("patterns.kernel_vectors.calls", "count", "lower"),
    ("patterns.kernel_vectors.nonempty_ratio", "ratio", "higher"),
    ("patterns.image.calls", "count", "lower"),
    ("treeball.build_ball.self_s", "s", "lower"), ("treeball.ball.nodes", "count", "lower"),
    ("treeball.smith_normal_form.calls", "count", "lower"),
    ("treeball.smith_normal_form.self_s", "s", "lower"),
    ("treeball.coarse_le.calls", "count", "lower"), ("treeball.coarse_le.self_s", "s", "lower"),
    ("treeball.coarse_le.true_ratio", "ratio", "higher"),
    ("treeball.ball_chain_depths.self_s", "s", "lower"),
    ("treeball.annotate_depth.self_s", "s", "lower"),
    ("treeball.ball_crossing_check.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"), ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Spans and counters of one traced pass over the ops."""

    def __init__(self):
        self.keys = []                 # name id -> (function, binding module)
        self._key_id = {}
        self.totals = []               # name id -> [calls, self seconds]
        self.frames = []               # open calls, innermost last
        self.open_spans = []           # open recorded spans, innermost last
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.op = -1
        self.extra = {}                # (counter, binding) -> count
        self.hash_calls = [0]
        self._seen_transport = weakref.WeakKeyDictionary()
        self._contains = None
        self._cache_before = None

    def _bump(self, counter, binding, amount=1):
        key = (counter, binding)
        self.extra[key] = self.extra.get(key, 0) + amount

    def _after(self, name, binding):
        if name == "oracle.explore":
            def after(res):
                self._bump("states", binding, len(res.placements))
                self._bump("truncated", binding, int(res.truncated))
            return after
        if name == "exactlin.kernel_vectors":
            return lambda res: self._bump("nonempty", binding, int(bool(res)))
        if name == "treeball.coarse_le":
            return lambda res: self._bump("true", binding, int(bool(res)))
        if name == "treeball.build_ball":
            return lambda res: self._bump("nodes", binding, len(res.nodes))
        return None

    def _before(self, name):
        if name != "oracle.transport":
            return None

        def before(args):
            orc, key = args[0], args[1:4]
            seen = self._seen_transport.setdefault(orc, set())
            if key in seen:
                self._bump("repeat", None)
            else:
                seen.add(key)
        return before

    def _wrap(self, fn, name, binding):
        key = (name, binding)
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
            self.totals.append([0, 0.0])
        nid = self._key_id[key]
        total = self.totals[nid]
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends = self.starts, self.ends
        frames, spans = self.frames, self.open_spans
        before, after = self._before(name), self._after(name, binding)
        recorded = name not in HOT
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]                  # time spent in wrapped calls inside this one
            frames.append(frame)
            if recorded:
                sid = len(starts)
                name_ids.append(nid)
                parents.append(spans[-1] if spans else -1)
                ops.append(tracer.op)
                starts.append(0.0)
                ends.append(0.0)
                spans.append(sid)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                if frames:
                    frames[-1][0] += t1 - t0
                total[0] += 1
                total[1] += t1 - t0 - frame[0]
                if recorded:
                    starts[sid], ends[sid] = t0, t1
                    spans.pop()
            if after is not None:
                after(res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the freshly imported gogkit found in sys.modules."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "gogkit" or name.startswith("gogkit.")}
        self._contains = mods["gogkit.exactlin"].contains
        self._cache_before = self._contains.cache_info()
        for mod_name, attr in FUNCTIONS:
            fn = getattr(mods[f"gogkit.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            for full, m in mods.items():
                for binding_attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, binding_attr, self._wrap(fn, name, full.rsplit(".", 1)[-1]))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(mods[f"gogkit.{mod_name}"], cls_name)
            setattr(cls, meth, self._wrap(vars(cls)[meth], name, mod_name))
        subspace = mods["gogkit.exactlin"].RationalSubspace
        plain_hash, counter = subspace.__hash__, self.hash_calls

        def counted_hash(obj):
            counter[0] += 1
            return plain_hash(obj)

        subspace.__hash__ = counted_hash

    # -- results ----------------------------------------------------------------

    def metrics(self, overhead_ratio):
        per_key = dict(zip(self.keys, self.totals))
        traced = {f"{m}.{a}" for m, a in FUNCTIONS} | {name for *_, name in METHODS}

        def stats(base):
            """(calls, self seconds) of a traced function over all bindings, or,
            for `module.function` naming no traced function, through that binding."""
            if base in traced:
                keys = [k for k in per_key if k[0] == base]
            else:
                module, attr = base.split(".")
                keys = [k for k in per_key if k[1] == module and k[0].endswith("." + attr)]
            return sum(per_key[k][0] for k in keys), sum(per_key[k][1] for k in keys)

        def extra(counter, binding=None):
            return sum(v for (k, b), v in self.extra.items()
                       if k == counter and binding in (None, b))

        def ratio(part, whole):
            return part / whole if whole else 0.0

        cache = self._contains.cache_info()
        hits = cache.hits - self._cache_before.hits
        misses = cache.misses - self._cache_before.misses
        special = {
            "oracle.explore.states": extra("states"),
            "oracle.explore.truncated_ratio": ratio(extra("truncated"),
                                                    stats("oracle.explore")[0]),
            "oracle.transport.repeat_ratio": ratio(extra("repeat"), stats("oracle.transport")[0]),
            "exactlin.contains.cache_hit_ratio": ratio(hits, hits + misses),
            "exactlin.subspace_hash.calls": self.hash_calls[0],
            "depth.explore.states": extra("states", "depth"),
            "patterns.kernel_vectors.nonempty_ratio": ratio(
                extra("nonempty", "patterns"), stats("patterns.kernel_vectors")[0]),
            "treeball.ball.nodes": extra("nodes"),
            "treeball.coarse_le.true_ratio": ratio(extra("true"), stats("treeball.coarse_le")[0]),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric in special:
                value = special[metric]
            else:
                base, field = metric.rsplit(".", 1)
                value = stats(base)[0 if field == "calls" else 1]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "wb") as fh:
            header = {"names": [f"{n}@{b}" for n, b in self.keys], "count": len(self.starts)}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.parents, self.ops, self.starts, self.ends):
                arr.tofile(fh)
