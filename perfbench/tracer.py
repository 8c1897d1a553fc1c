"""Per-layer tracing of orbitsep from outside the library.

``Tracer.install`` wraps the library's calls at the layer boundaries:

* spans (name, start, end, parent, operation id) around the calls into
  ``separation`` (solve, check, replay, evaluate, sequence, and the two
  module-private helpers ``_detect_q0`` and ``_enlarge``, which are the only
  places Q0 is scanned and Q' is built), ``actions.find_escape`` as the
  separation module calls it, ``oracle.brute_force_separate``, and the JSON
  codec calls the workloads make;
* timed, aggregated calls to ``GeneratedAction.apply_word``, split by the
  span they run under (one span per call would hold millions of records);
* counted calls to ``GeneratedAction.step`` and to every space's
  ``distance``.

A span's self time is its duration minus the time its child spans and its
aggregated ``apply_word`` calls cover.  Counts are kept only for operations
that complete, so two traced runs of one seed give identical counts.
"""

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from orbitsep import oracle
from orbitsep import separation as sep
from orbitsep.actions import GeneratedAction, SearchStats
from orbitsep.errors import BudgetExhaustedError
from orbitsep.spaces import MetricSpace

# span name -> suffix of the actions.apply_word_* metrics it is filed under
APPLY_WORD_PARENTS = {
    "separation.solve": "solve",
    "separation.enlarge": "enlarge",
    "separation.replay": "replay",
    "separation.evaluate": "evaluate",
    "separation.sequence": "sequence",
    "op": "op",
}
DISTANCE_KINDS = ("zd", "free")

# (name, unit, better): the per-layer metrics of a traced run, in print order.
PER_LAYER = [
    ("separation.solve_self_s", "s", "lower"),
    ("separation.q0_scan_s", "s", "lower"),
    ("separation.q0_scans", "count", "lower"),
    ("separation.q0_scan_points", "count", "lower"),
    ("separation.q0_orbit_points", "count", "lower"),
    ("separation.q0_members", "count", "lower"),
    ("separation.q0_yield", "ratio", "higher"),
    ("separation.enlarge_s", "s", "lower"),
    ("separation.enlarge_calls", "count", "lower"),
    ("separation.q_prime_built", "count", "lower"),
    ("separation.q_prime_max", "count", "lower"),
    ("separation.q_prime_sum", "count", "lower"),
    ("separation.levels", "count", "lower"),
    ("separation.restarts", "count", "lower"),
    ("separation.fallbacks", "count", "lower"),
    ("separation.check_s", "s", "lower"),
    ("separation.replay_s", "s", "lower"),
    ("separation.evaluate_s", "s", "lower"),
    ("separation.sequence_self_s", "s", "lower"),
    ("actions.escape_calls", "count", "lower"),
    ("actions.escape_s", "s", "lower"),
    ("actions.escape_points", "count", "lower"),
    ("actions.escape_exhausted", "count", "lower"),
    ("actions.apply_word_calls", "count", "lower"),
    ("actions.apply_word_s", "s", "lower"),
]
for _parent in dict.fromkeys(APPLY_WORD_PARENTS.values()):
    PER_LAYER.append((f"actions.apply_word_calls.{_parent}", "count", "lower"))
    PER_LAYER.append((f"actions.apply_word_s.{_parent}", "s", "lower"))
PER_LAYER += [
    ("actions.step_calls", "count", "lower"),
    ("actions.orbit_points", "count", "lower"),
    ("spaces.distance_calls", "count", "lower"),
]
PER_LAYER += [(f"spaces.distance_calls.{k}", "count", "lower") for k in DISTANCE_KINDS]
PER_LAYER += [
    ("codec.encode_s", "s", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.cert_bytes", "bytes", "lower"),
    ("oracle.brute_force_s", "s", "lower"),
    ("oracle.images", "count", "lower"),
    ("oracle.valid_share", "ratio", "higher"),
    ("bench.op_self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    stats = None

    def span(self, name):
        return nullcontext()

    def count(self, key, n=1):
        pass


class Tracer:
    def __init__(self):
        self.stats = SearchStats()
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(int)
        self.q_prime_max = 0
        self.self_s = defaultdict(float)
        self._open = []  # [span index, seconds covered by children]
        self._op = None
        self._certs = []
        self._saved = []
        self._active = False

    # -- spans -----------------------------------------------------------

    def _begin(self, name):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._open.append([len(self.spans) - 1, 0.0])

    def _end(self):
        index, covered = self._open.pop()
        record = self.spans[index]
        record[2] = perf_counter()
        duration = record[2] - record[1]
        self.self_s[record[0]] += duration - covered
        if self._open:
            self._open[-1][1] += duration

    @contextmanager
    def span(self, name):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def count(self, key, n=1):
        self.counts[key] += n

    def begin_op(self, op_id):
        self._op = op_id
        self._certs = []
        self._counts_before = (dict(self.counts), self.stats.points)
        self._begin("op")

    def end_op(self, completed):
        """Close the operation; keep its counts only if it completed."""
        while self._open:
            self._end()
        if not completed:
            counts, points = self._counts_before
            self.counts.clear()
            self.counts.update(counts)
            self.stats.points = points
            return
        self._active = False
        try:
            for action, weighted, q_points, cert in self._certs:
                self._audit(action, weighted, q_points, cert)
        finally:
            self._active = True

    def _audit(self, action, weighted, q_points, cert):
        """Levels, restarts, fallbacks and |Q'| per level of one certificate."""
        if cert.trace is None:
            return
        audit = []
        sep.replay_trace(action, weighted, q_points, cert.trace, audit)
        q_prime = [level["q_size"] for level in audit[1:]]
        self.counts["separation.levels"] += len(audit)
        self.counts["separation.q_prime_sum"] += sum(q_prime)
        self.q_prime_max = max([self.q_prime_max] + q_prime)
        for level in cert.trace.levels():
            self.counts["separation.restarts"] += level.restarts
            self.counts["separation.fallbacks"] += level.case == "fallback"

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _spanned(self, span_name, fn):
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self._begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer = self
        counts = self.counts  # end_op restores it in place, never replaces it

        solve = sep.separate_points

        def separate_points(action, weighted, q_points, budget=None, stats=None):
            if not tracer._active:
                return solve(action, weighted, q_points, budget, stats)
            weighted, q_points = list(weighted), list(q_points)
            with tracer.span("separation.solve"):
                cert = solve(action, weighted, q_points, budget, stats)
            tracer._certs.append((action, weighted, q_points, cert))
            return cert

        escape = sep.find_escape

        def find_escape(action, p, q_points, eps, budget, stats=None):
            local = SearchStats()
            counts["actions.escape_calls"] += 1
            try:
                with tracer.span("actions.escape"):
                    return escape(action, p, q_points, eps, budget, local)
            except BudgetExhaustedError:
                counts["actions.escape_exhausted"] += 1
                raise
            finally:
                counts["actions.escape_points"] += local.points
                if stats is not None:
                    stats.points += local.points

        self._patch(sep, "separate_points", separate_points)
        self._patch(sep, "find_escape", find_escape)
        for name, span_name in (
            ("check_certificate", "separation.check"),
            ("replay_trace", "separation.replay"),
            ("evaluate_word", "separation.evaluate"),
            ("separated_sequence", "separation.sequence"),
        ):
            self._patch(sep, name, self._spanned(span_name, getattr(sep, name)))

        # Q0 detection and Q' building have no public entry point; wrap the
        # helpers while they exist, so the benchmark outlives their removal.
        detect = sep.__dict__.get("_detect_q0")
        if detect is not None:

            def detect_q0(action, pivot, q_points, radius, budget, stats=None):
                local = SearchStats()
                try:
                    with tracer.span("separation.q0_scan"):
                        found = detect(action, pivot, q_points, radius, budget, local)
                finally:
                    counts["separation.q0_orbit_points"] += local.points
                    if stats is not None:
                        stats.points += local.points
                counts["separation.q0_scans"] += 1
                counts["separation.q0_scan_points"] += len(q_points)
                counts["separation.q0_members"] += len(found)
                return found

            self._patch(sep, "_detect_q0", detect_q0)
        enlarge = sep.__dict__.get("_enlarge")
        if enlarge is not None:

            def enlarge_q(*args):
                if not tracer._active:
                    return enlarge(*args)
                with tracer.span("separation.enlarge"):
                    q_prime = enlarge(*args)
                counts["separation.enlarge_calls"] += 1
                counts["separation.q_prime_built"] += len(q_prime)
                return q_prime

            self._patch(sep, "_enlarge", enlarge_q)

        brute = oracle.brute_force_separate

        def brute_force_separate(*args, **kwargs):
            with tracer.span("oracle.brute_force"):
                verdict = brute(*args, **kwargs)
            counts["oracle.images"] += verdict.explored
            counts["oracle.valid"] += len(verdict.valid_words)
            return verdict

        self._patch(oracle, "brute_force_separate", brute_force_separate)

        apply_word = GeneratedAction.apply_word
        spans, open_spans, self_s = self.spans, self._open, self.self_s

        def timed_apply_word(action, w, p):
            if not tracer._active:
                return apply_word(action, w, p)
            start = perf_counter()
            try:
                return apply_word(action, w, p)
            finally:
                duration = perf_counter() - start
                parent = APPLY_WORD_PARENTS.get(spans[open_spans[-1][0]][0], "other")
                counts["actions.apply_word_calls." + parent] += 1
                self_s["actions.apply_word." + parent] += duration
                open_spans[-1][1] += duration

        self._patch(GeneratedAction, "apply_word", timed_apply_word)

        def counted(fn, key):
            def wrapper(*args):
                if tracer._active:
                    counts[key] += 1
                return fn(*args)

            return wrapper

        self._patch(GeneratedAction, "step", counted(GeneratedAction.step, "actions.step_calls"))
        for cls in _space_classes():
            if "distance" in cls.__dict__:
                key = "spaces.distance_calls." + cls.kind
                self._patch(cls, "distance", counted(cls.distance, key))
        self._active = True

    def uninstall(self):
        self._active = False
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s):
        c, s = self.counts, self.self_s
        scan_points = c["separation.q0_scan_points"]
        images = c["oracle.images"]
        apply_word_s = {k: v for k, v in s.items() if k.startswith("actions.apply_word.")}
        values = {
            "separation.solve_self_s": s["separation.solve"],
            "separation.q0_scan_s": s["separation.q0_scan"],
            "separation.q0_yield": (
                c["separation.q0_members"] / scan_points if scan_points else 0.0
            ),
            "separation.enlarge_s": s["separation.enlarge"],
            "separation.q_prime_max": self.q_prime_max,
            "separation.check_s": s["separation.check"],
            "separation.replay_s": s["separation.replay"],
            "separation.evaluate_s": s["separation.evaluate"],
            "separation.sequence_self_s": s["separation.sequence"],
            "actions.escape_s": s["actions.escape"],
            "actions.apply_word_calls": sum(
                v for k, v in c.items() if k.startswith("actions.apply_word_calls.")
            ),
            "actions.apply_word_s": sum(apply_word_s.values()),
            "actions.orbit_points": self.stats.points,
            "spaces.distance_calls": sum(
                v for k, v in c.items() if k.startswith("spaces.distance_calls.")
            ),
            "codec.encode_s": s["codec.encode"],
            "codec.decode_s": s["codec.decode"],
            "oracle.brute_force_s": s["oracle.brute_force"],
            "oracle.valid_share": c["oracle.valid"] / images if images else 0.0,
            "bench.op_self_s": s["op"],
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        for parent in dict.fromkeys(APPLY_WORD_PARENTS.values()):
            values[f"actions.apply_word_s.{parent}"] = s["actions.apply_word." + parent]
        out = {}
        for name, unit, _ in PER_LAYER:
            value = values[name] if name in values else c[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """Write every span as [name, start_s, end_s, parent, op], start-relative."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - t0, 7), round(end - t0, 7), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, handle)


def _space_classes():
    pending, seen = [MetricSpace], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen
