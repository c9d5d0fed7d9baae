"""Span recording for the traced benchmark run.

The tracer rebinds public names of the hypotorus package at the module
where their caller looks them up, so the shipped source is measured
unchanged.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name, layer).  Each entry is rebound where
# the code under test resolves it: solvers and cli import their callees by
# name, the field module calls exprparser through the module object, and
# ZEvaluator.at is a method, so the class attribute is replaced.
WRAPPED = (
    ("cli.load_config", "load_config", "cli"),
    ("cli.normalize", "normalize", "field"),
    ("field.ZEvaluator.at", "ZEvaluator.at", "field"),
    ("exprparser.eval_expr", "eval_expr", "exprparser"),
    ("kernel.theta_log_deriv_raw", "theta_log_deriv_raw", "theta"),
    ("kernel.operator_matrix", "operator_matrix", "kernel"),
    ("solvers.t_omega", "t_omega", "kernel"),
    ("solvers.t_omega_point", "t_omega_point", "kernel"),
    ("solvers.pk_fixed_point", "pk_fixed_point", "solvers"),
    ("solvers.pk_apply", "pk_apply", "solvers"),
    ("solvers.apply_l_fd", "apply_l_fd", "verify"),
    ("solvers.residual_report", "residual_report", "verify"),
)

# Layer of every span name, including the spans the benchmark opens itself.
LAYERS = {name: layer for _, name, layer in WRAPPED}
LAYERS.update({"cli.main": "cli", "solve": "other"})


def _count(name, args, out):
    """The work count a span records: points evaluated, kernel values,
    Picard iterations or matrix bytes, depending on the span."""
    if name in ("eval_expr", "ZEvaluator.at"):
        x, y = args[-2:]
        return int(np.broadcast(np.asarray(x), np.asarray(y)).size)
    if name == "theta_log_deriv_raw":
        return int(np.size(args[1]))
    if name == "pk_fixed_point":
        return int(out.iterations)
    if name == "operator_matrix":
        return int(out.nbytes)
    return 0


class Tracer:
    """Records (id, name, start, end, parent, solve id, count) spans.

    A span's parent is the innermost open span of its own thread; a span
    opened by a worker thread with nothing open there takes the innermost
    open span of the thread that installed the tracer, which is the call
    that started the worker pool.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self.m_max = 0
        self.solve_id = "setup"
        self.active = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if name == "theta_log_deriv_raw":
            self.m_max = max(self.m_max, int(args[0].m_max))
        self.spans.append((sid, name, start, end, parent, self.solve_id,
                           _count(name, args, out)))
        return out

    def install(self):
        for path, name, _ in WRAPPED:
            mod_name, *attrs = path.split(".")
            owner = getattr(self.pkg, mod_name)
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            self._saved.append((owner, attrs[-1], original))
            setattr(owner, attrs[-1], self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


class SpanIndex:
    """Children, ancestry and self times over a list of recorded spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)
        self.self_time = {
            s[0]: (s[3] - s[2]) - _union_length(
                [(c[2], c[3]) for c in self.children[s[0]]], s[2], s[3])
            for s in spans}

    def enclosing(self, span, names):
        """The nearest ancestor whose name is in names, or None."""
        pid = span[4]
        while pid is not None:
            parent = self.by_id[pid]
            if parent[1] in names:
                return parent
            pid = parent[4]
        return None


def layer_metrics(spans, solve_ids, m_max):
    """Per-layer metrics, as means per solve over solve_ids.

    kernel.assemble_* and kernel.matrix_bytes are means per dense-matrix
    build instead, wherever the build ran: in each cold solve, or once in
    the warm workload's set-up.  Times of spans that ran in several threads
    at once are summed, so they can exceed the wall time.
    """
    idx = SpanIndex(spans)
    per = {sid: defaultdict(float) for sid in solve_ids}
    builds = {s[0]: {"s": s[3] - s[2], "self_s": idx.self_time[s[0]],
                     "evals": 0, "bytes": s[6]}
              for s in spans if s[1] == "operator_matrix"}
    for s in spans:
        sid, name, start, end, _, solve, count = s
        dur = end - start
        if name == "theta_log_deriv_raw":
            build = idx.enclosing(s, ("operator_matrix",))
            if build is not None:
                builds[build[0]]["evals"] += count
        if solve not in per:
            continue
        m = per[solve]
        if name == "eval_expr":
            m["exprparser.eval_s"] += dur
            m["exprparser.points"] += count
        elif name == "ZEvaluator.at":
            m["field.z_at_s"] += dur
            m["field.z_at_points"] += count
        elif name == "normalize":
            m["field.normalize_s"] += dur
        elif name == "theta_log_deriv_raw":
            m["theta.logderiv_s"] += dur
            m["theta.kernel_evals"] += count
            if idx.enclosing(s, ("t_omega_point",)) is not None:
                m["kernel.probe_kernel_evals"] += count
        elif name == "t_omega":
            m["kernel.apply_s"] += dur - sum(
                c[3] - c[2] for c in idx.children[sid]
                if c[1] == "operator_matrix")
            m["kernel.apply_calls"] += 1
        elif name == "t_omega_point":
            m["kernel.probe_s"] += dur
            m["kernel.probe_calls"] += 1
        elif name == "pk_fixed_point":
            m["solvers.picard_iters"] += count
            m["solvers.windings_tried"] += 1
        elif name == "pk_apply":
            m["solvers.pk_apply_s"] += dur
        elif name in ("apply_l_fd", "residual_report"):
            m["verify.fd_s"] += dur
        elif name in ("cli.main", "load_config"):
            m["cli.self_s"] += idx.self_time[sid]
    out = {k: sum(m.get(k, 0.0) for m in per.values()) / len(per)
           for k in PER_SOLVE}
    out["theta.m_max"] = m_max
    # A call that returns the cached matrix evaluates no kernel.
    done = [b for b in builds.values() if b["evals"] > 0]
    for key, field in (("kernel.assemble_s", "s"),
                       ("kernel.assemble_self_s", "self_s"),
                       ("kernel.assemble_kernel_evals", "evals"),
                       ("kernel.matrix_bytes", "bytes")):
        out[key] = (sum(b[field] for b in done) / len(done)) if done else 0.0
    return out, per


# Metrics that layer_metrics averages over solves.
PER_SOLVE = (
    "exprparser.eval_s", "exprparser.points", "field.z_at_s",
    "field.z_at_points", "field.normalize_s", "theta.logderiv_s",
    "theta.kernel_evals", "kernel.apply_s", "kernel.apply_calls",
    "kernel.probe_s", "kernel.probe_calls", "kernel.probe_kernel_evals",
    "solvers.picard_iters", "solvers.windings_tried", "solvers.pk_apply_s",
    "verify.fd_s", "cli.self_s",
)


def layer_self_shares(spans, solve_ids):
    """Share of the summed self time of the spans of solve_ids, by layer."""
    idx = SpanIndex(spans)
    wanted = set(solve_ids)
    acc = defaultdict(float)
    for s in spans:
        if s[5] in wanted:
            acc[LAYERS[s[1]]] += idx.self_time[s[0]]
    total = sum(acc.values()) or 1.0
    return {k: v / total
            for k, v in sorted(acc.items(), key=lambda kv: -kv[1])}
