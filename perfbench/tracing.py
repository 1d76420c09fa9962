"""Benchmark-side spans around calls into the program's public functions.

Nothing inside ``src/`` is instrumented: :meth:`Spans.wrap` swaps a
module or class attribute for a timing wrapper and :meth:`Spans.restore`
puts the original back.  Each span records its name, start, end, the
names of the spans enclosing it on the same thread, and an optional
value taken from the call's result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time


class Spans:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, capture=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``capture(result)`` may return a JSON-able value stored on the
        span; returning ``None`` drops the span (a call that did no work,
        such as an idle compaction poll).
        """
        original = getattr(owner, attr)
        spans = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = spans._stack()
            within = list(stack)
            stack.append(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = capture(result) if capture is not None else True
            if value is not None:
                spans.records.append(
                    {"name": name, "start": start, "end": end, "within": within, "value": value}
                )
            return result

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def durations(self, name: str, *, within: str | None = None, outside: str | None = None) -> list[float]:
        """Durations of span ``name``, optionally only those nested in
        ``within`` and not nested in ``outside``."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name
            and (within is None or within in r["within"])
            and (outside is None or outside not in r["within"])
        ]


def install_fit_spans(spans: Spans) -> None:
    """Time the three PANE phases as ``PANE.fit`` calls them."""
    import repro.core.pane as pane

    spans.wrap(pane.PANE, "compute_affinity", "core.affinity")
    spans.wrap(pane, "sm_greedy_init", "core.init")
    spans.wrap(pane, "refine", "core.ccd")


def install_ingest_spans(spans: Spans) -> None:
    """Time the write path inside a serving process: append, fold and its phases."""
    import repro.dynamic.incremental as incremental
    from repro.serving.service import QueryService
    from repro.serving.store import EmbeddingStore
    from repro.serving.wal.compactor import IngestPipeline
    from repro.serving.wal.log import DeltaLog

    spans.wrap(DeltaLog, "append_delta", "wal.append")
    spans.wrap(
        IngestPipeline,
        "compact_once",
        "wal.fold",
        capture=lambda r: None if r is None else {"records": r["records"], "seconds": r["seconds"]},
    )
    spans.wrap(incremental, "apply_delta", "dynamic.apply_delta")
    spans.wrap(
        incremental.IncrementalPANE,
        "update",
        "dynamic.update",
        capture=lambda embedding: dict(embedding.timings),
    )
    spans.wrap(EmbeddingStore, "publish", "store.publish")
    spans.wrap(EmbeddingStore, "open", "store.open")
    spans.wrap(QueryService, "activate", "service.activate")
