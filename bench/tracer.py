"""Span tracer for the benchmark.

The package's files stay untouched: the benchmark wraps public functions, in
memory, at the names their callers resolve (``distrib.forward``,
``optim.step``, the store methods, ...) and records one span per call. A span
keeps its name, start, end, the index of its parent span in the same thread,
whether the call succeeded, and the bytes it moved where that applies. Spans
stay in memory until ``write``.

``instrument(tracer, full=False)`` wraps only the coarse entry points (data
set-up and the training loop), which is what the untraced timing runs use;
``full=True`` adds every per-layer boundary for the traced run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux

TRAIN = "distrib.train"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: dict[str, list] = {}
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open-span stack, spans)
            thread = threading.current_thread()
            with self._lock:
                self._threads[f"{thread.name}-{thread.ident}"] = state[1]
        return state

    def wrap(self, name: str, fn, outcome=None):
        """Return ``fn`` recording one span per call.

        ``outcome(args, result) -> (ok, nbytes)`` classifies a call that
        returned; a call that raised is recorded as failed and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok, nbytes = False, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if ok and outcome is not None:
                    ok, nbytes = outcome(args, result)
                spans[idx] = (name, t0, t1, parent, ok, nbytes)

        return traced

    def wrap_stream(self, name: str, make_stream):
        """Wrap a generator factory so each item drawn is one span."""

        @functools.wraps(make_stream)
        def traced(*args, **kwargs):
            draw = self.wrap(name, make_stream(*args, **kwargs).__next__)
            while True:
                yield draw()

        return traced

    def threads(self) -> dict[str, list]:
        with self._lock:
            return {k: [s for s in v if s is not None] for k, v in self._threads.items()}

    def spans(self, name: str) -> list[tuple]:
        return [s for spans in self.threads().values() for s in spans if s[0] == name]

    def summary(self) -> dict:
        """Per span name: calls, failed, bytes, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent on one thread, so they
        never overlap. Also returns each thread's summed self time and the
        number of ``nn.forward`` spans directly under ``distrib.teacher``.
        """
        agg = defaultdict(lambda: {"calls": 0, "failed": 0, "bytes": 0, "total": 0.0, "self": 0.0})
        thread_self = {}
        teacher_forwards = 0
        with self._lock:
            threads = {k: list(v) for k, v in self._threads.items()}
        for key, spans in threads.items():
            child = [0.0] * len(spans)
            for s in spans:
                if s is not None and s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            total_self = 0.0
            for i, s in enumerate(spans):
                if s is None:
                    continue
                name, t0, t1, parent, ok, nbytes = s
                a = agg[name]
                a["calls"] += 1
                a["failed"] += 0 if ok else 1
                a["bytes"] += nbytes
                a["total"] += t1 - t0
                a["self"] += (t1 - t0) - child[i]
                total_self += (t1 - t0) - child[i]
                if (name == "nn.forward" and parent >= 0 and spans[parent] is not None
                        and spans[parent][0] == "distrib.teacher"):
                    teacher_forwards += 1
            thread_self[key] = total_self
        return {"spans": dict(agg), "thread_self_s": thread_self,
                "teacher_forwards": teacher_forwards}

    def write(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        n = 0
        with open(path, "w", encoding="utf-8") as f:
            for key, spans in self.threads().items():
                for s in spans:
                    name, t0, t1, parent, ok, nbytes = s
                    f.write(json.dumps({"thread": key, "name": name, "start": t0, "end": t1,
                                        "parent": parent, "ok": ok, "bytes": nbytes}) + "\n")
                    n += 1
        return n


def _publish_outcome(args, result):
    return True, args[1].payload_bytes()


def _load_outcome(args, result):
    return (False, 0) if result is None else (True, result.payload_bytes())


def instrument(tracer: Tracer, full: bool) -> None:
    """Patch the codistill package in place, for the rest of the process."""
    from codistill import distrib, experiments, nn, optim

    for owner, attr in ((experiments, "train_baseline"), (experiments, "codistill_train"),
                        (experiments, "codistill_train_concurrent"), (distrib, "codistill_train")):
        setattr(owner, attr, tracer.wrap(TRAIN, getattr(owner, attr)))
    experiments.build_env = tracer.wrap("experiments.build_env", experiments.build_env)
    if not full:
        return
    distrib.batch_stream = tracer.wrap_stream("data.next_batch", distrib.batch_stream)
    # training-path forwards only: predict_proba (the teachers) resolves
    # nn.forward; validation forwards stay inside metrics.evaluate
    nn.forward = distrib.forward = tracer.wrap("nn.forward", nn.forward)
    distrib.backward = tracer.wrap("nn.backward", distrib.backward)
    nn.Parameters.__post_init__ = tracer.wrap("nn.params_new", nn.Parameters.__post_init__)
    distrib.combined_loss = tracer.wrap("losses.combined_loss", distrib.combined_loss)
    optim.step = tracer.wrap("optim.step", optim.step)
    distrib.GroupRunner.step_batches = tracer.wrap("distrib.step",
                                                   distrib.GroupRunner.step_batches)
    make_teacher = distrib.mean_teacher_fn

    @functools.wraps(make_teacher)
    def traced_teacher(*args, **kwargs):
        return tracer.wrap("distrib.teacher", make_teacher(*args, **kwargs))

    distrib.mean_teacher_fn = traced_teacher
    for store in (distrib.InMemoryCheckpointStore, distrib.FileCheckpointStore):
        store.publish = tracer.wrap("distrib.publish", store.publish, _publish_outcome)
        store.load_latest = tracer.wrap("distrib.load", store.load_latest, _load_outcome)
    distrib.serialize_params = tracer.wrap("nn.serialize", distrib.serialize_params)
    distrib.deserialize_checkpoint = tracer.wrap("nn.deserialize", distrib.deserialize_checkpoint)
    distrib.evaluate = tracer.wrap("metrics.evaluate", distrib.evaluate)
