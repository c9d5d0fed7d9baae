"""End-to-end and per-layer benchmark of the hypotorus solvers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client for S seconds, checks
every solve's output, prints each metric with its unit, writes a result
file under bench/out/, and prints one JSON object as the last line of
stdout.  --trace 0 reports the end-to-end metrics; --trace 1 records spans
around the package's public names and reports the per-layer metrics.
The workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

RESIDUAL_TOL = 5e-2     # FD residual gate of the acceptance suite (c07)
WARM_MIN_SOLVES = 20    # warm stream length the metrics are taken over
TAIL_BEYOND = 10        # samples the tail percentile must leave above it

END_TO_END = {"setup_s": "s", "solve_s": "s", "solve_s_tail": "s",
              "residual_sup": "1", "solution_err": "1", "peak_rss_mb": "MB"}
PER_LAYER = {
    "exprparser.eval_s": "s", "exprparser.points": "count",
    "field.z_at_s": "s", "field.z_at_points": "count",
    "field.normalize_s": "s",
    "theta.logderiv_s": "s", "theta.kernel_evals": "count",
    "theta.m_max": "count",
    "kernel.assemble_s": "s", "kernel.assemble_self_s": "s",
    "kernel.assemble_kernel_evals": "count", "kernel.matrix_bytes": "B",
    "kernel.apply_s": "s", "kernel.apply_calls": "count",
    "kernel.probe_s": "s", "kernel.probe_calls": "count",
    "kernel.probe_kernel_evals": "count",
    "solvers.picard_iters": "count", "solvers.windings_tried": "count",
    "solvers.pk_apply_s": "s",
    "verify.fd_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}
# Counters that must come out identical for identical inputs.
DETERMINISTIC = ("theta.kernel_evals", "exprparser.points",
                 "field.z_at_points", "solvers.picard_iters",
                 "kernel.probe_calls")


def _grid(n, np):
    c = (np.arange(n) + 0.5) / n
    return np.meshgrid(c, c, indexing="ij")


def _exp_fit_error(u, w, np):
    """Relative sup error of u against exp(w) after fitting the free
    multiplicative constant by least squares, as criteria c09 and c10."""
    ew = np.exp(w)
    c = np.vdot(ew, u) / np.vdot(ew, ew)
    return float(np.abs(u - c * ew).max() / np.abs(c * ew).max())


def _shift_fit_error(u, w, np):
    """Relative sup error of u against w after removing the free additive
    constant."""
    e = u - w
    return float(np.abs(e - e.mean()).max() / np.abs(w).max())


# ---------------------------------------------------------------- workloads

class ColdWorkload:
    """Each solve is a fresh in-process `hypotorus solve` on one config."""

    setup_reps = 5

    def __init__(self, pkg, np, seed, *, field, equation, n, threads,
                 rhs, exact, err_tol, fit, ref_threads=None):
        self.pkg, self.np = pkg, np
        self.config = {"field": field, "grid_n": n, "equation": equation,
                       "rhs": rhs}
        self.n, self.threads, self.ref_threads = n, threads, ref_threads
        self.exact, self.err_tol, self.fit = exact, err_tol, fit
        self.tmp = tempfile.TemporaryDirectory(dir=OUT)
        self.cfg_path = os.path.join(self.tmp.name, "case.json")
        self.prefix = os.path.join(self.tmp.name, "case")
        self.first_hash = None
        self.ref_hash = None
        self._errors = {}

    def setup(self, tracer):
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        x, y = _grid(self.n, self.np)
        self.w = self.exact(x, y)

    def reference(self, tracer):
        """Thread-count invariance: one solve at ref_threads during set-up,
        whose CSV every timed solve must reproduce byte for byte."""
        if self.ref_threads is None:
            return None
        rec = self.solve(tracer, threads=self.ref_threads)
        self.ref_hash = rec["hash"]
        return rec

    def solve(self, tracer, index=0, threads=None):
        os.environ["HYPOTORUS_THREADS"] = str(threads or self.threads)
        argv = ["solve", "--config", self.cfg_path,
                "--out-prefix", self.prefix]
        for suffix in (".report.json", ".u.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.prefix + suffix)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tracer.call("solve", tracer.call, "cli.main",
                             self.pkg.cli.main, argv)
        wall = time.perf_counter() - t0
        with open(self.prefix + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.prefix + ".u.csv", "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if rc != 0 or report["solvable"] != "yes":
            problems.append(f"exit {rc}, verdict {report['solvable']}")
        err = self._errors.get(digest)
        if err is None and report["solvable"] == "yes":
            rows = self.np.loadtxt(io.BytesIO(data), delimiter=",",
                                   skiprows=1, ndmin=2)
            u = (rows[:, 2] + 1j * rows[:, 3]).reshape(self.n, self.n)
            err = self._errors[digest] = self.fit(u, self.w, self.np)
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            problems.append("CSV differs from the first solve of the input")
        if self.ref_hash is not None and digest != self.ref_hash:
            problems.append("CSV differs from the 1-thread reference solve")
        return _record(wall, digest, report["residual_sup"], err,
                       self.err_tol, problems)

    def repeat_check(self, tracer):
        return None

    def close(self):
        self.tmp.cleanup()


class WarmWorkload:
    """One kernel context whose dense operator is built during set-up,
    then a stream of solve_a calls with distinct seeded manufactured A."""

    setup_reps = 2

    def __init__(self, pkg, np, seed, *, builtin, n, threads, err_tol):
        self.pkg, self.np, self.seed = pkg, np, seed
        self.builtin, self.n, self.threads = builtin, n, threads
        self.err_tol = err_tol
        self.first_hash = None
        self.ref_threads = None

    def setup(self, tracer):
        pkg, np, n = self.pkg, self.np, self.n
        os.environ["HYPOTORUS_THREADS"] = str(self.threads)
        nf = pkg.normalize(pkg.build_field(self.builtin))
        ctx = pkg.kernel_context(nf, n)
        tracer.call("operator_matrix", pkg.operator_matrix, ctx)
        self.ctx = ctx
        self.x, self.y = _grid(n, np)
        self.a = np.asarray(nf.a(self.x, self.y), dtype=complex)
        self.b = np.asarray(nf.b(self.x, self.y), dtype=complex)

    def reference(self, tracer):
        return None

    def inputs(self, index):
        """Manufactured w_k = amp*cos(2 pi (x + phase))*sin(2 pi y) and
        A_k = L w_k, so exp(w_k) solves Lu = A_k u."""
        np = self.np
        rng = np.random.default_rng([self.seed, index])
        amp = float(rng.uniform(0.08, 0.12))
        phase = float(rng.uniform(0.0, 1.0))
        tx = 2 * np.pi * (self.x + phase)
        ty = 2 * np.pi * self.y
        w = amp * np.cos(tx) * np.sin(ty)
        wx = -2 * np.pi * amp * np.sin(tx) * np.sin(ty)
        wy = 2 * np.pi * amp * np.cos(tx) * np.cos(ty)
        return w, self.b * wx - self.a * wy

    def solve(self, tracer, index=0, threads=None):
        pkg, np = self.pkg, self.np
        w, a_vals = self.inputs(index)
        a_fn = pkg.GridFunction(self.n, a_vals)
        t0 = time.perf_counter()
        rep = tracer.call("solve", pkg.solve_a, self.ctx, a_fn)
        wall = time.perf_counter() - t0
        problems = []
        if rep.solvable != "yes" or (rep.j, rep.k) != (0, 0):
            problems.append(f"verdict {rep.solvable}, (j, k) = "
                            f"({rep.j}, {rep.k}), expected yes at (0, 0)")
            return _record(wall, None, rep.residual_sup, None,
                           self.err_tol, problems)
        digest = hashlib.sha256(rep.u.values.tobytes()).hexdigest()
        if index == 0 and self.first_hash is None:
            self.first_hash = digest
        elif index == 0 and digest != self.first_hash:
            problems.append("solution grid differs on a repeat of A_0")
        err = _exp_fit_error(rep.u.values, w, np)
        return _record(wall, digest, rep.residual_sup, err, self.err_tol,
                       problems)

    def repeat_check(self, tracer):
        """Re-solve the first input; its grid must be bit-identical."""
        return self.solve(tracer, index=0)

    def close(self):
        pass


def _record(wall, digest, residual, err, err_tol, problems):
    if residual is None or not residual <= RESIDUAL_TOL:
        problems.append(f"residual_sup {residual} above {RESIDUAL_TOL}")
    if err is None or not err <= err_tol:
        problems.append(f"solution_err {err} above {err_tol}")
    return {"wall_s": wall, "hash": digest, "residual_sup": residual,
            "solution_err": err, "ok": not problems, "problems": problems}


def make_workload(name, pkg, np, seed):
    """The workloads.  The seed only shifts and scales the manufactured
    solutions; fields, sizes and thread counts are fixed.

    The cold workloads shift their phases by less than 0.1: the residual
    of cold-custom-noz-a, whose field depends on x, swings by about 7%
    over a full period, which would dominate its seed-to-seed spread."""
    rng = np.random.default_rng(seed)
    p, q = (round(float(v), 6) for v in rng.uniform(0.0, 0.1, 2))
    two_pi = 2 * np.pi
    if name == "cold-elliptic-f":
        return ColdWorkload(
            pkg, np, seed, field={"builtin": "elliptic"}, equation="f",
            n=64, threads=2, ref_threads=1,
            rhs={"manufactured_w":
                 f"0.2*sin(2*pi*(x+{p}))*cos(2*pi*(y+{q}))"},
            exact=lambda x, y: 0.2 * np.sin(two_pi * (x + p))
            * np.cos(two_pi * (y + q)),
            err_tol=2e-2, fit=_shift_fit_error)
    if name == "cold-sin2-ab":
        return ColdWorkload(
            pkg, np, seed, field={"builtin": "degenerate_sin2"},
            equation="ab", n=48, threads=1,
            rhs={"manufactured_w": f"0.15*cos(2*pi*(x+{p}))*sin(2*pi*y)",
                 "B": "0.1*exp(i*2*pi*y)"},
            exact=lambda x, y: 0.15 * np.cos(two_pi * (x + p))
            * np.sin(two_pi * y),
            err_tol=3e-2, fit=_exp_fit_error)
    if name == "warm-sin2-a":
        return WarmWorkload(pkg, np, seed, builtin="degenerate_sin2", n=48,
                            threads=1, err_tol=2e-2)
    if name == "cold-custom-noz-a":
        return ColdWorkload(
            pkg, np, seed,
            field={"a": "1 + 0.1*pi*cos(2*pi*x)*sin(pi*y)^2",
                   "b": "0.1*pi*sin(2*pi*x)*sin(pi*y)*cos(pi*y)"
                        " + i*sin(pi*y)^2",
                   "sigma": [{"sigma_i": 2, "hint": "y=0"}]},
            equation="a", n=16, threads=1,
            rhs={"manufactured_w": f"0.1*sin(2*pi*(x+{p}))*cos(2*pi*y)"},
            exact=lambda x, y: 0.1 * np.sin(two_pi * (x + p))
            * np.cos(two_pi * y),
            err_tol=2e-2, fit=_exp_fit_error)
    raise ValueError(name)


WORKLOADS = ("cold-elliptic-f", "cold-sin2-ab", "warm-sin2-a",
             "cold-custom-noz-a")


# ------------------------------------------------------------------ tracing

class NoTracer:
    """Stand-in with the Tracer's call interface that records nothing."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# ----------------------------------------------------------------- running

def _tail(times):
    """Highest order statistic with at least TAIL_BEYOND samples above it,
    and its percentile; the maximum when the run has too few solves."""
    s = sorted(times)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package():
    """Import hypotorus from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import hypotorus
    import hypotorus.cli  # noqa: F401  (submodules the tracer rebinds)
    if not Path(hypotorus.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hypotorus imported from {hypotorus.__file__}, "
                          f"not from {src}")
    return hypotorus, numpy


def run(args):
    t0 = time.perf_counter()
    try:
        pkg, np = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    OUT.mkdir(parents=True, exist_ok=True)
    tracer = NoTracer()
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer(pkg)
        tracer.install()
    wl = make_workload(args.workload, pkg, np, args.seed)
    records = []
    try:
        setup_times = []
        for _ in range(wl.setup_reps):
            t = time.perf_counter()
            wl.setup(tracer)
            setup_times.append(time.perf_counter() - t)
        # The reference solve's operator build is not one of the measured
        # builds, so it runs untraced.
        tracer.active = False
        t = time.perf_counter()
        ref = _guarded(wl.reference, tracer)
        ref_s = time.perf_counter() - t if ref is not None else 0.0
        setup_s = import_s + statistics.median(setup_times) + ref_s
        if ref is not None:
            records.append(dict(ref, role="reference"))

        # Closed loop, one client.  Traced runs alternate untraced and
        # traced solves so that the tracing overhead is measured too.  A
        # solve starts only if one more solve as long as the last one
        # still ends within --seconds, so multi-second cold solves do not
        # run past it.
        min_solves = 2 if args.trace else (
            WARM_MIN_SOLVES if isinstance(wl, WarmWorkload) else 1)
        start = time.perf_counter()
        i, last = 0, 0.0
        while i < min_solves or (time.perf_counter() - start + last
                                 <= args.seconds):
            traced = bool(args.trace) and i % 2 == 1
            tracer.active = traced or not args.trace
            tracer.solve_id = i
            rec = _guarded(wl.solve, tracer, index=i)
            records.append(dict(rec, role="timed", index=i, traced=traced))
            last = rec["wall_s"]
            i += 1
        tracer.active = bool(args.trace)
        tracer.solve_id = "check"
        rep = _guarded(wl.repeat_check, tracer)
        if rep is not None:
            records.append(dict(rep, role="repeat"))
    finally:
        if args.trace:
            tracer.uninstall()
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = [r for r in records if r["role"] == "timed"]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    notes = []
    if args.trace:
        from tracing import layer_metrics, layer_self_shares
        ids = [r["index"] for r in timed if r["traced"]]
        metrics, per_solve = layer_metrics(tracer.spans, ids, tracer.m_max)
        plain = [r["wall_s"] for r in timed if not r["traced"]]
        traced_walls = [r["wall_s"] for r in timed if r["traced"]]
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain))
        counters = [{k: per_solve[i].get(k, 0.0) for k in DETERMINISTIC}
                    for i in ids]
        differ = sorted({k for c in counters for k in DETERMINISTIC
                         if c[k] != counters[0][k]})
        if differ:
            notes.append("deterministic counters differ between solves: "
                         + ", ".join(differ))
        shares = layer_self_shares(tracer.spans, ids)
        units = PER_LAYER
    else:
        walls = [r["wall_s"] for r in timed]
        tail, tail_pct = _tail(walls)
        checked = [r for r in records if r["role"] == "timed"]
        if isinstance(wl, WarmWorkload):
            checked = checked[:WARM_MIN_SOLVES]
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.median(walls),
            "solve_s_tail": tail,
            "residual_sup": _worst(r["residual_sup"] for r in checked),
            "solution_err": _worst(r["solution_err"] for r in checked),
            "peak_rss_mb": peak_rss_mb,
        }
        counters, differ, shares = None, [], None
        units = END_TO_END
    # correct is about the program's outputs.  Counters that fail to
    # repeat are reported (stderr, result file, bench/spread.py) without
    # marking the outputs wrong.
    correct = failed == 0

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "hypotorus_threads": wl.threads,
            "reference_threads": wl.ref_threads,
            "seed": args.seed, "git_commit": git_commit()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "solves": len(timed),
        "setup_s_import": import_s, "setup_s_reps": setup_times,
        "setup_s_reference": ref_s,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
        "deterministic_counters": counters,
        "counters_differ": differ,
        "layer_self_share": shares,
        "notes": notes,
        "records": records,
    }
    if not args.trace:
        result["solve_s_tail_percentile"] = tail_pct
    stem = (f"{args.workload}.seed{args.seed}.trace{args.trace}."
            f"{time.time_ns()}")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "solve",
                     "count"), s))) + "\n")

    for r in records:
        if not r["ok"]:
            print(f"failed {r['role']} solve: {'; '.join(r['problems'])}",
                  file=sys.stderr)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed "
          f"solves, {failed}/{attempted} failed "
          f"(failed_frac {failed / attempted:g})")
    if shares:
        print("self-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
    if not args.trace:
        print(f"solve_s_tail is p{tail_pct:.1f} of {len(timed)} solves")
    for k, u in units.items():
        print(f"{k} {metrics[k]:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def _guarded(fn, tracer, **kwargs):
    """A solve that raises counts as failed instead of ending the run."""
    t0 = time.perf_counter()
    try:
        return fn(tracer, **kwargs)
    except Exception as exc:  # noqa: BLE001  (the run must go on)
        traceback.print_exc(file=sys.stderr)
        return {"wall_s": time.perf_counter() - t0, "hash": None,
                "residual_sup": None, "solution_err": None, "ok": False,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}


def _worst(values):
    got = [v for v in values if v is not None]
    return max(got) if got else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
