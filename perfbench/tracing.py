"""In-memory span tracer that wraps freeconv's public functions from outside.

Spanned functions record (name, start, end, parent, request id).  Functions
too hot to span one by one (the 2x2 algebra, the auxiliary product solve,
ladder stages, the Newton helpers) are aggregated instead: a call count and
summed self time per enclosing span.  Self time is a span's duration minus
the part of it its children cover; children that run in worker threads are
merged as an interval union so overlapping threads are not subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from freeconv import cli, core, ensembles, hermitian, montecarlo, nonhermitian

# (module, attribute, span name); each wrapped where its callers look it up
SPANNED = (
    (nonhermitian, "boundary_curve", "nonhermitian.boundary_curve"),
    (nonhermitian, "branch_indicator", "nonhermitian.branch_indicator"),
    (nonhermitian, "solve_product", "nonhermitian.solve_product"),
    (nonhermitian, "density_at", "nonhermitian.density_at"),
    (nonhermitian, "density_field", "nonhermitian.density_field"),
    (nonhermitian, "residual_identities", "nonhermitian.residual_identities"),
    (hermitian, "multiply_r_system", "hermitian.multiply_r_system"),
    (hermitian, "green_from_r", "hermitian.green_from_r"),
    (ensembles, "sample", "ensembles.sample"),
    (montecarlo, "sample", "ensembles.sample"),  # montecarlo imports it by name
    (montecarlo, "product_eigenvalues", "montecarlo.product_eigenvalues"),
    (montecarlo, "histogram2d", "montecarlo.histogram2d"),
    (montecarlo, "compare_density", "montecarlo.compare_density"),
    (np.linalg, "eigvals", "montecarlo.eigvals"),
)

AGGREGATED = (
    (core, "qmul", "core.qmul"),
    (core, "qinv", "core.qinv"),
    (core, "invert", "core.invert"),
    (nonhermitian, "qmul", "core.qmul"),
    (nonhermitian, "qinv", "core.qinv"),
    (nonhermitian, "invert", "core.invert"),
    (hermitian, "_product_aux", "hermitian.product_aux"),
    (hermitian, "_stage_solve", "hermitian.stage_solve"),
    (nonhermitian, "_newton_polish_q", "nonhermitian.newton_polish"),
    (nonhermitian, "_newton_polish_pair", "nonhermitian.newton_polish"),
    (nonhermitian, "_matrix_fixed_point", "nonhermitian.newton_polish"),
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "t0", "t1", "covered",
                 "foreign", "hot", "info")

    def __init__(self, sid, name, parent, request, foreign):
        self.id = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.t0 = self.t1 = 0.0
        self.covered = 0.0      # time of same-thread children
        self.foreign = foreign  # True when the parent runs in another thread
        self.hot = {}           # aggregated name -> [calls, self seconds]
        self.info = None        # result facts, e.g. the branch of a solve


class Tracer:
    """Collects spans while installed; uninstall restores every original."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top = None   # innermost open span frame of the main thread
        self._ids = itertools.count()
        self._request = 0
        self._unowned = Span(-1, "unowned", None, 0, False)
        self._saved = []
        self.missing = []       # listed functions this library version lacks

    # -- frames ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            in_main = threading.current_thread() is tracer._main
            if stack:
                parent, foreign = stack[-1][0], False
            elif not in_main and tracer._main_top is not None:
                parent, foreign = tracer._main_top[0], True
            else:
                parent, foreign = None, False
                if in_main:
                    tracer._request += 1
            span = Span(next(tracer._ids), name, parent.id if parent else None,
                        parent.request if parent else tracer._request, foreign)
            frame = [span, 0.0]
            stack.append(frame)
            if in_main:
                tracer._main_top = frame
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                span.covered = frame[1]
                if stack:
                    stack[-1][1] += span.t1 - span.t0
                if in_main:
                    tracer._main_top = stack[-1] if stack else None
                tracer.spans.append(span)
            span.info = _result_info(name, out)
            return out

        return traced

    def _hot_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack()
            owner = stack[-1][0] if stack else tracer._unowned
            frame = [owner, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = owner.hot.get(name)
                if agg is None:
                    agg = owner.hot[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]

        return counted

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every listed function; names a later version lacks are skipped."""
        for table, make in ((SPANNED, self._span_wrapper), (AGGREGATED, self._hot_wrapper)):
            for module, attr, name in table:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                else:
                    self._patch(module, attr, make(name, original))
        self._patch(cli, "main", self._cli_wrapper(cli.main))

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _cli_wrapper(self, fn):
        # one span per job, named after its subcommand
        wrappers = {}

        def traced_main(argv=None):
            command = argv[0] if argv else "unknown"
            wrapper = wrappers.get(command)
            if wrapper is None:
                wrapper = wrappers[command] = self._span_wrapper(f"cli.{command}", fn)
            return wrapper(argv)

        return traced_main

    def dump(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "request": s.request, "start": s.t0, "end": s.t1,
                    "hot": s.hot, "info": s.info}, sort_keys=True) + "\n")


@contextmanager
def traced():
    """Install a fresh tracer for the duration of the block."""
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _result_info(name, out):
    if name == "nonhermitian.solve_product":
        return out.branch
    if name == "nonhermitian.density_field":
        return out.holes
    if name == "nonhermitian.residual_identities":
        return out.s_status
    if name == "nonhermitian.boundary_curve":
        return [len(out.points) + len(out.empty_rays), len(out.empty_rays)]
    if name == "montecarlo.product_eigenvalues":
        return len(out.skipped)
    if name.startswith("cli."):
        return int(out)
    return None


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(spans, matrix_n):
    """Per-module counts, self times and ratios for one traced pass.

    Args:
        spans: the Span records of the pass.
        matrix_n: matrix size of the eigvals calls, for the computed flop count.

    Returns:
        (counts, times): exact counts and ratios, and self times in seconds.
    """
    by_id = {s.id: s for s in spans}
    foreign = {}
    for s in spans:
        if s.foreign:
            foreign.setdefault(s.parent, []).append((s.t0, s.t1))
    calls, self_s = {}, {}
    hot_calls = {}
    for s in spans:
        cover = s.covered + _union_length(foreign.get(s.id, ()))
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + max(0.0, s.t1 - s.t0 - cover)
        for hname, (n, t) in s.hot.items():
            hot_calls[hname] = hot_calls.get(hname, 0) + n
            self_s[hname] = self_s.get(hname, 0.0) + t

    def ancestors_include(s, name):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    aux_under_indicator = sum(
        s.hot.get("hermitian.product_aux", (0, 0))[0] for s in spans
        if s.name == "nonhermitian.branch_indicator"
        or ancestors_include(s, "nonhermitian.branch_indicator"))
    multiply_under_solve = sum(
        1 for s in spans if s.name == "hermitian.multiply_r_system"
        and ancestors_include(s, "nonhermitian.solve_product"))

    def n(name):
        return calls.get(name, 0) + hot_calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    indicator_calls = n("nonhermitian.branch_indicator")
    solves = [s for s in spans if s.name == "nonhermitian.solve_product"]
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    curves = [s for s in spans
              if s.name == "nonhermitian.boundary_curve" and s.info is not None]
    rays = sum(s.info[0] for s in curves)
    counts = {
        "core.qmul.calls": n("core.qmul"),
        "core.qinv.calls": n("core.qinv"),
        "core.invert.calls": n("core.invert"),
        "hermitian.green_from_r.calls": n("hermitian.green_from_r"),
        "hermitian.ladder_stages": n("hermitian.stage_solve"),
        "hermitian.multiply_r_system.calls": n("hermitian.multiply_r_system"),
        "hermitian.product_aux.calls": n("hermitian.product_aux"),
        "hermitian.aux_per_indicator": ratio(aux_under_indicator, indicator_calls),
        "nonhermitian.branch_indicator.calls": indicator_calls,
        "nonhermitian.solve_product.calls": len(solves),
        "nonhermitian.solve_product.holomorphic":
            sum(1 for s in solves if s.info == "holomorphic"),
        "nonhermitian.solve_product.nonholomorphic":
            sum(1 for s in solves if s.info == "nonholomorphic"),
        "nonhermitian.multiply_per_solve": ratio(multiply_under_solve, len(solves)),
        "nonhermitian.newton_polish.calls": n("nonhermitian.newton_polish"),
        "nonhermitian.density_field.holes":
            sum(s.info or 0 for s in spans if s.name == "nonhermitian.density_field"),
        "nonhermitian.residual_identities.nonconvergent":
            sum(1 for s in spans if s.name == "nonhermitian.residual_identities"
                and s.info == "non-convergent"),
        "nonhermitian.indicator_per_ray": ratio(indicator_calls, rays),
        "nonhermitian.empty_rays": sum(s.info[1] for s in curves),
        "ensembles.sample.calls": n("ensembles.sample"),
        "montecarlo.eigvals.calls": n("montecarlo.eigvals"),
        # complex nonsymmetric eigenvalues only: ~10 n^3 complex flops,
        # 4 real flops each (an operation count, not a measured rate)
        "montecarlo.eigvals.gflop_computed":
            n("montecarlo.eigvals") * 40.0 * matrix_n ** 3 / 1e9,
        "montecarlo.skipped_trials":
            sum(s.info or 0 for s in spans if s.name == "montecarlo.product_eigenvalues"),
        "cli.nonzero_exits": sum(1 for s in cli_spans if s.info != 0),
    }
    times = {f"{k}.self_s": self_s.get(k, 0.0) for k in (
        "hermitian.green_from_r", "hermitian.multiply_r_system",
        "hermitian.product_aux", "nonhermitian.branch_indicator",
        "nonhermitian.boundary_curve", "nonhermitian.solve_product",
        "nonhermitian.newton_polish", "nonhermitian.density_field",
        "nonhermitian.density_at", "nonhermitian.residual_identities",
        "ensembles.sample", "montecarlo.product_eigenvalues",
        "montecarlo.eigvals", "montecarlo.histogram2d",
        "montecarlo.compare_density", "cli.solve-product", "cli.density",
        "cli.sample", "cli.compare")}
    return counts, times
