"""Span tracer installed from outside the program, for the traced run only.

``Tracer.install`` wraps every public module-level function of the eight
layer modules at every binding that holds it: the defining module, each
module that imported it by name (``from .elliptic import ...``), and the
``g2sew`` package.  Patching only the defining module would miss most calls.
It also wraps the ``_newton`` binding of ``epsilon`` and of ``rho`` so that
the objective each Newton solver evaluates is traced too: the line search
catches the ``DomainError`` that the objective raises for a rejected point,
whether it comes from the objective's own guards or from the period map.
``restore`` puts every original binding back.

A span has a name, a start and an end, a parent span and the op id the
client set.  Spans are kept in memory.  A span opened on a thread with no
open span of its own (a worker of the CLI's thread pool) takes the client's
innermost open span as its parent.  Self time is measured on the thread's
CPU clock: a span's CPU time minus that of its children on the same thread.
So time a pool worker spends waiting for the interpreter lock is not charged
to the layer it waits in.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types

PACKAGE = "g2sew"
LAYERS = ("elliptic", "lattice", "moments", "epsilon", "rho", "sphere",
          "formal", "cli")


class Span:
    __slots__ = ("name", "layer", "op", "parent", "thread", "t0", "t1",
                 "c0", "c1", "error", "self_s")

    def __init__(self, name, layer, op, parent, thread):
        self.name, self.layer, self.op = name, layer, op
        self.parent, self.thread = parent, thread
        self.error = None

    @property
    def cpu_s(self) -> float:
        return self.c1 - self.c0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.recording = False  # spans are kept only while an op runs
        self._local = threading.local()
        self._client_stack: list[Span] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every binding; call on the client thread."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._client_stack
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for layer in ("epsilon", "rho"):
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            newton = getattr(mod, "_newton", None)
            if isinstance(newton, types.FunctionType):
                self._patches.append((mod, "_newton", newton))
                setattr(mod, "_newton", self._wrap_newton(newton, layer))

    def restore(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, name: str, layer: str):
        spans, local, client = self.spans, self._local, self._client_stack
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (client[-1] if client else None)
            span = Span(name, layer, tracer.op, parent, ident())
            spans.append(span)
            stack.append(span)
            span.c0 = cpu()
            span.t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = perf()
                span.c1 = cpu()
                stack.pop()

        return traced

    def _wrap_newton(self, newton, layer: str):
        """``newton(f, ...)`` with every evaluation of ``f`` a span."""
        name = f"{layer}.invert.objective"

        @functools.wraps(newton)
        def traced(f, *args, **kwargs):
            return newton(self._wrap(f, name, layer), *args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> None:
    """Set ``self_s``: CPU time minus that of same-thread child spans."""
    for s in spans:
        s.self_s = s.cpu_s
    for s in spans:
        p = s.parent
        if p is not None and p.thread == s.thread:
            p.self_s -= s.cpu_s


def layer_metrics(spans: list[Span], ops: int, op_cpu_s: float) -> dict:
    """Per-layer metrics of one traced pass of ``ops`` ops that used
    ``op_cpu_s`` seconds of process CPU time in all."""
    self_times(spans)
    ops = max(ops, 1)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_ms(*names, per=ops):
        return 1000.0 * sum(s.self_s for n in names for s in by_name.get(n, ())) / per

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names) / ops

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        own = sum(s.self_s for s in mine)
        out[f"{layer}.self_ms_per_op"] = (1000.0 * own / ops, "ms")
        out[f"{layer}.self_share"] = (own / op_cpu_s if op_cpu_s > 0 else 0.0, "ratio")
        out[f"{layer}.calls_per_op"] = (len(mine) / ops, "count")
        # exceptions leaving the layer: raised by a span whose parent is in
        # another layer (or is the client)
        out[f"{layer}.errors"] = (float(sum(
            1 for s in mine if s.error is not None
            and (s.parent is None or s.parent.layer != layer))), "count")
    for fn in ("eisenstein_q", "eisenstein_range", "weierstrass_range", "prime_form"):
        out[f"elliptic.{fn}.calls_per_op"] = (calls(f"elliptic.{fn}"), "count")
        out[f"elliptic.{fn}.self_ms_per_op"] = (self_ms(f"elliptic.{fn}"), "ms")
    out["moments.assembly.self_ms_per_op"] = (self_ms(
        "moments.a_matrix", "moments.r_matrix", "moments.beta_vector",
        "moments.sphere_moments"), "ms")
    solve = by_name.get("moments.solve_id_minus", [])
    out["moments.solve.calls_per_op"] = (calls("moments.solve_id_minus"), "count")
    out["moments.solve.self_ms_per_op"] = (self_ms("moments.solve_id_minus"), "ms")
    out["moments.solve.errors"] = (float(sum(1 for s in solve if s.error)), "count")
    out["moments.det.self_ms_per_op"] = (self_ms(
        "moments.det_id_minus", "moments.det_id_minus_product"), "ms")
    for chart, solver in (("epsilon", "epsilon.invert_eps"), ("rho", "rho.invert_chi")):
        objective = f"{chart}.invert.objective"
        evals = by_name.get(objective, [])
        per = max(len(by_name.get(solver, ())), 1)
        out[f"{chart}.invert.evals_per_solve"] = (len(evals) / per, "count")
        out[f"{chart}.invert.rejected_evals_per_solve"] = (
            sum(1 for s in evals if s.error == "DomainError") / per, "count")
        out[f"{chart}.invert.self_ms_per_solve"] = (self_ms(solver, objective, per=per), "ms")
    out["epsilon.necklace.self_ms_per_op"] = (self_ms("epsilon.necklace_period_eps"), "ms")
    out["rho.necklace.self_ms_per_op"] = (self_ms("rho.necklace_period_rho"), "ms")
    out["formal.symbolic.self_ms_per_op"] = (self_ms(
        "formal.symbolic_period_eps", "formal.symbolic_period_rho"), "ms")
    out["formal.evaluate.self_ms_per_op"] = (self_ms("formal.evaluate_series"), "ms")
    out["trace.spans_per_op"] = (len(spans) / ops, "count")
    return out


def write_spans(spans: list[Span], path) -> None:
    """Tab-separated spans, one per line, ids in start order."""
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("id\tparent\top\tname\tthread\tstart_s\tend_s\tcpu_s\tself_cpu_s\terror\n")
        for i, s in enumerate(spans):
            parent = ids.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(f"{i}\t{parent}\t{s.op}\t{s.name}\t{s.thread}\t{s.t0:.9f}\t"
                     f"{s.t1:.9f}\t{s.cpu_s:.9f}\t{s.self_s:.9f}\t{s.error or ''}\n")
