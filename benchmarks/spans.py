"""In-memory span tracer and the layer boundaries it wraps.

The tracer is installed from the benchmark, never from ``src/``: it replaces
each boundary function in every loaded ``exchsim`` module namespace that
holds it (so ``from .gates import exchange_unitary`` call sites are covered
too) and puts the originals back on ``uninstall``.

Self time is charged by one wall clock shared by all threads.  Every
interval between two span events goes to exactly one place, so the self
times of all spans add up to the wall time of the outermost spans:

* outside a thread pool, the innermost open span of the calling thread
  takes the whole interval;
* while pool threads work for a span of the calling thread (here
  ``montecarlo.estimate`` with ``--workers 2``), each pool thread seen so
  far holds an equal share.  A pool thread inside a span charges its share
  to that span; a pool thread outside any span (scoring, loop overhead,
  idle at the end of its block) charges it to the waiting span.

Busy time is a span's inclusive wall duration.  Spans of pool threads
overlap, so their busy times can add up to more than the wall time.

Hot per-sample spans are only aggregated per (name, parent); the spans named
in ``coarse`` are also kept one by one, with the request id they belong to.
"""

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (layer name, [(module, attribute path), ...]).  A missing target is left
# unwrapped, so a layer whose function was removed reports zero calls.
BOUNDARIES = (
    ("cli.main", []),  # wrapped at the benchmark's own call site
    ("montecarlo.estimate", [("exchsim.montecarlo", "estimate_infidelity")]),
    ("montecarlo.substream", [("exchsim.montecarlo", "substream")]),
    ("noise.sample_pulse", [("exchsim.noise", "sample_pulse_counted"),
                            ("exchsim.noise", "sample_pulse")]),
    ("gates.pulse_spec", [("exchsim.gates", "PulseSpec.__init__")]),
    ("gates.phase_from_pulse", [("exchsim.gates", "phase_from_pulse")]),
    ("gates.exchange_unitary", [("exchsim.gates", "exchange_unitary")]),
    ("dephasing.channel", [("exchsim.dephasing", "dephasing_channel")]),
    ("dephasing.kraus_validate", [("exchsim.dephasing", "QuantumChannel4.__post_init__")]),
    ("core.as_operator", [("exchsim.core", "as_operator")]),
    ("budget.feasibility", [("exchsim.budget", "feasibility")]),
)
LAYER_NAMES = tuple(name for name, _ in BOUNDARIES)
COARSE = ("cli.main", "montecarlo.estimate", "budget.feasibility")


class _Frame:
    __slots__ = ("name", "key", "start", "stack", "pool")

    def __init__(self, name, key, start, stack):
        self.name = name
        self.key = key
        self.start = start
        self.stack = stack
        self.pool = None  # stacks of pool threads working for this span


class Tracer:
    """Records spans from any thread; the creating thread is the caller's."""

    def __init__(self, coarse=COARSE):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = threading.get_ident()
        self._main = []
        self._last = perf_counter()
        self._coarse = frozenset(coarse)
        self.request = None
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (request, name, parent, thread, start, end) of coarse spans

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            stack = self._main if threading.get_ident() == self._root else []
            self._local.stack = stack
            return stack

    def _charge(self, now):
        dt = now - self._last
        self._last = now
        if not self._main:
            return
        top = self._main[-1]
        if not top.pool:
            self.self_s[top.key] += dt
            return
        share = dt / len(top.pool)
        for stack in top.pool:
            self.self_s[(stack[-1] if stack else top).key] += share

    def enter(self, name):
        stack = self._stack()
        if stack and stack[-1].name == name:
            return None  # a layer calling itself (sample_pulse -> counted) is one span
        now = perf_counter()
        with self._lock:
            self._charge(now)
            if stack:
                parent = stack[-1].name
            elif stack is not self._main and self._main:
                top = self._main[-1]
                parent = top.name
                if top.pool is None:
                    top.pool = []
                if not any(s is stack for s in top.pool):
                    top.pool.append(stack)
            else:
                parent = None
            frame = _Frame(name, (name, parent), now, stack)
            stack.append(frame)
        return frame

    def leave(self, frame):
        if frame is None:
            return
        now = perf_counter()
        with self._lock:
            self._charge(now)
            frame.stack.pop()
            self.calls[frame.key] += 1
            self.busy[frame.key] += now - frame.start
            if frame.name in self._coarse:
                self.spans.append((self.request, frame.name, frame.key[1],
                                   threading.get_ident(), frame.start, now))

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) sees each result."""
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def layer_totals(self, name):
        """(calls, busy_s, self_s) of one layer summed over its parents."""
        keys = [k for k in set(self.calls) | set(self.self_s) if k[0] == name]
        return (sum(self.calls[k] for k in keys),
                sum(self.busy[k] for k in keys),
                sum(self.self_s[k] for k in keys))

    def table(self):
        keys = sorted(set(self.calls) | set(self.self_s), key=lambda k: (k[0], k[1] or ""))
        return [{"name": k[0], "parent": k[1], "calls": self.calls[k],
                 "busy_s": self.busy[k], "self_s": self.self_s[k]} for k in keys]


def _count_draws(tracer):
    # Accepted versus attempted pulse draws, read from the McResult of each
    # estimate: every sample is one accepted draw, every rejection one more attempt.
    def after(args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        tracer.counters["noise.accepted"] += cfg.n_samples
        tracer.counters["noise.attempted"] += cfg.n_samples + result.n_rejected
    return after


class Instrumentation:
    """Wraps every boundary of BOUNDARIES while installed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._undo = []

    def install(self):
        for name, targets in BOUNDARIES:
            after = _count_draws(self.tracer) if name == "montecarlo.estimate" else None
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:  # a method: patch the class attribute itself
                    owner = getattr(module, owner_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                else:
                    original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapped = self.tracer.wrap(name, original, after)
                if owner_name:
                    self._set(owner, attr, original, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "exchsim" or mod_name.startswith("exchsim.")) \
                            and vars(mod).get(attr) is original:
                        self._set(mod, attr, original, wrapped)
        return self

    def _set(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
