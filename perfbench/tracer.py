"""Span tracer for the traced benchmark run, installed from outside the program.

`Tracer.install()` replaces the public functions of each polarpark module
(and the Lyapunov and trajectory methods) with wrappers, in every module
namespace that holds a reference to them; `uninstall()` puts the originals
back.  Untraced runs never call `install()`.

Every wrapped call is timed with the calling thread's CPU clock, so the
CLI's worker threads are not charged for time they spend waiting on the
interpreter lock.  A call's self time is its duration minus the time of the
wrapped calls made inside it.  Per thread, the tracer keeps:

* aggregates keyed by (name, parent name): calls, inclusive and self time,
  and per-controller-kind self time for the functions that depend on it;
* spans (name, start, end, parent, self time, RHS evaluations on the
  span's thread) for the layer boundaries:
  operations, `simulate`, `Trajectory.to_csv` and the verify checks.  The
  hot leaf functions (omega_tilde, control, V, grad V, cart_to_polar) run
  hundreds of thousands of times per pass, so they are aggregated into
  their parent span instead of stored one by one;
* exact counters: RHS evaluations (calls through the names the integrator's
  right-hand side looks up in `polarpark.sim`), trajectory samples and CSV
  rows.

Nothing is shared between threads while tracing, so the counters stay exact
under the CLI's thread pool; `snapshot()` merges the threads.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name): module-level functions.
FUNCTIONS = (
    ("polarpark.controllers", "omega_tilde", "controllers.omega_tilde"),
    ("polarpark.controllers", "control", "controllers.control"),
    ("polarpark.geometry", "cart_to_polar", "geometry.cart_to_polar"),
    ("polarpark.sim", "rhs_cartesian", "sim.rhs_cartesian"),
    ("polarpark.sim", "simulate", "sim.simulate"),
    ("polarpark.verify", "check_lemma1", "verify.check_lemma1"),
    ("polarpark.verify", "check_clf", "verify.check_clf"),
    ("polarpark.verify", "check_proposition1", "verify.check_proposition1"),
    ("polarpark.verify", "check_kl_decay", "verify.check_kl_decay"),
    ("polarpark.verify", "check_gradient", "verify.check_gradient"),
)

# (module, class, method, span name).
METHODS = (
    ("polarpark.lyapunov", "LyapunovFn", "value", "lyapunov.value"),
    ("polarpark.lyapunov", "LyapunovFn", "grad", "lyapunov.grad"),
    ("polarpark.lyapunov", "LyapunovFn", "vdot", "lyapunov.vdot"),
    ("polarpark.lyapunov", "CompositeLyapunovFn", "value", "lyapunov.composite.value"),
    ("polarpark.lyapunov", "CompositeLyapunovFn", "gradient", "lyapunov.composite.gradient"),
    ("polarpark.lyapunov", "CompositeLyapunovFn", "vdot", "lyapunov.composite.vdot"),
    ("polarpark.sim", "Trajectory", "to_csv", "sim.to_csv"),
)

# Calls through these names in polarpark.sim are right-hand-side
# evaluations: the polar RHS looks up omega_tilde there, the Cartesian
# integrator calls rhs_cartesian.
RHS_NAMES = {("polarpark.sim", "omega_tilde"), ("polarpark.sim", "rhs_cartesian")}

# Layer boundaries, recorded as individual spans.
BOUNDARIES = {"sim.simulate", "sim.to_csv"} | {n for m, a, n in FUNCTIONS if m == "polarpark.verify"}

# The first argument, or self, carries the controller kind.
_KIND_OF = {
    "controllers.omega_tilde": lambda args: args[0].kind.value,
    "lyapunov.value": lambda args: args[0].kind.value,
    "lyapunov.grad": lambda args: args[0].kind.value,
}


def _samples(args, result) -> tuple[str, int]:
    return "sim.samples", len(result)


def _rows(args, result) -> tuple[str, int]:
    return "sim.to_csv.rows", len(args[0])


_COUNT_RESULT = {"sim.simulate": _samples, "sim.to_csv": _rows}


class _ThreadState:
    def __init__(self) -> None:
        # frames: [name, child_time, span_id, rhs_evals at entry (spans only)]
        self.stack: list[list] = []
        self.stats: dict = {}  # (name, parent) -> [calls, inclusive, self]
        self.kinds: dict = {}  # (name, kind) -> [calls, self]
        self.counts: dict = defaultdict(int)
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._span_ids = itertools.count()
        # Parent of the first wrapped call on a worker thread: the operation
        # that started the thread's work.
        self._root = ("", None)

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._tls.state = st
            return st

    # -- wrappers ----------------------------------------------------------

    def _finish(self, st, name, frame, dt, parent, span_start, span_parent) -> None:
        key = (name, parent)
        entry = st.stats.get(key)
        if entry is None:
            entry = st.stats[key] = [0, 0.0, 0.0]
        self_time = dt - frame[1]
        entry[0] += 1
        entry[1] += dt
        entry[2] += self_time
        if st.stack:
            st.stack[-1][1] += dt
        if span_start is not None:
            st.spans.append((name, frame[2], span_parent, span_start, time.perf_counter(),
                             threading.get_ident(), self_time,
                             st.counts["sim.rhs_evals"] - frame[3]))

    def _wrap(self, fn, name: str, rhs: bool):
        tracer = self
        clock = time.thread_time
        kind_of = _KIND_OF.get(name)
        count_result = _COUNT_RESULT.get(name)
        boundary = name in BOUNDARIES

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1][0]
            else:
                parent = tracer._root[0]
            span_start = span_parent = None
            if boundary:
                span_parent = tracer._enclosing_span(stack)
                frame = [name, 0.0, next(tracer._span_ids), st.counts["sim.rhs_evals"]]
                span_start = time.perf_counter()
            else:
                frame = [name, 0.0, None]
            if rhs:
                st.counts["sim.rhs_evals"] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                tracer._finish(st, name, frame, dt, parent, span_start, span_parent)
            if kind_of is not None:
                key = (name, kind_of(args))
                entry = st.kinds.get(key)
                if entry is None:
                    entry = st.kinds[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt - frame[1]
            if count_result is not None:
                counter, n = count_result(args, result)
                st.counts[counter] += n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _enclosing_span(self, stack):
        for frame in reversed(stack):
            if frame[2] is not None:
                return frame[2]
        return self._root[1]

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every polarpark module that names it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "polarpark" or name.startswith("polarpark.")}
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                continue
            for holder_name, holder in modules.items():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        wrapper = self._wrap(original, span, (holder_name, key) in RHS_NAMES)
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(modules[mod_name], cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span, False))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- operations ----------------------------------------------------------

    def begin_op(self, name: str) -> list:
        """Open the span of one benchmark operation on the calling thread."""
        st = self._state()
        frame = [name, 0.0, next(self._span_ids), st.counts["sim.rhs_evals"]]
        self._root = (name, frame[2])
        st.stack.append(frame)
        return [frame, time.perf_counter(), time.thread_time()]

    def end_op(self, token: list) -> None:
        frame, wall0, cpu0 = token
        dt = time.thread_time() - cpu0
        st = self._state()
        st.stack.pop()
        self._root = ("", None)
        self._finish(st, frame[0], frame, dt, None, wall0, None)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Merge the per-thread records: stats, kinds, counts and spans."""
        stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        kinds: dict = defaultdict(lambda: [0, 0.0])
        counts: dict = defaultdict(int)
        spans: list = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (calls, incl, self_t) in st.stats.items():
                entry = stats[key]
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_t
            for key, (calls, self_t) in st.kinds.items():
                kinds[key][0] += calls
                kinds[key][1] += self_t
            for key, n in st.counts.items():
                counts[key] += n
            spans.extend(st.spans)
        spans.sort(key=lambda s: s[1])
        return {"stats": dict(stats), "kinds": dict(kinds), "counts": dict(counts), "spans": spans}

    def reset(self) -> None:
        with self._lock:
            states = list(self._states)
        for st in states:
            st.stats.clear()
            st.kinds.clear()
            st.counts.clear()
            st.spans.clear()
