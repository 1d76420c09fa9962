"""Load generation for the benchmark: seeded keys, open and closed loops.

Every load loop here uses at most two threads, each owning one
:class:`~repro.serving.http.ServingClient` (so at most two connections).
Open-loop latency is timed from each request's *due* time, so a stall
also charges the wait it imposed on the requests scheduled behind it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

MAX_WORKERS = 2


def key_stream(rng: np.random.Generator, n: int, skew: float, size: int) -> np.ndarray:
    """``size`` node ids: Zipf(``skew``) over a seeded permutation, or uniform."""
    if skew <= 0:
        return rng.integers(0, n, size=size)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    ranks = rng.choice(n, size=size, p=weights / weights.sum())
    return rng.permutation(n)[ranks]


def poisson_due(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Due offsets (s from phase start) of Poisson arrivals at ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


@dataclass
class Phase:
    """What one load phase sent, how it went, and how late it ran."""

    name: str
    scheduled_rate: float  # offered req/s (0 for a closed loop)
    latency_s: list = field(default_factory=list)  # from due time (open) or send (closed)
    roundtrip_s: list = field(default_factory=list)  # client wall per request
    server_s: list = field(default_factory=list)  # server_latency_s per request
    late_s: list = field(default_factory=list)  # send time minus due time
    done_at: list = field(default_factory=list)  # perf_counter when each success answered
    sent: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    started_at: float = 0.0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> int:
        return self.sent - self.failed

    @property
    def achieved_rate(self) -> float:
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def behind(self) -> bool:
        """The generator fell behind its schedule (open loops only)."""
        if self.scheduled_rate <= 0 or not self.late_s:
            return False
        return percentile(self.late_s, 99) > 0.010 or (
            self.achieved_rate < 0.95 * self.scheduled_rate
        )

    def block_rates(self, blocks: int) -> list[float]:
        """Answer rate of each of ``blocks`` equal runs of consecutive answers."""
        times = np.concatenate(([self.started_at], np.sort(self.done_at)))
        edges = np.linspace(0, times.size - 1, blocks + 1).round().astype(int)
        return [(hi - lo) / (times[hi] - times[lo]) for lo, hi in zip(edges[:-1], edges[1:])]

    def p_ms(self, q: float) -> float:
        return 1e3 * percentile(self.latency_s, q)

    def summary(self) -> dict:
        return {
            "phase": self.name,
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "scheduled_rate": round(self.scheduled_rate, 3),
            "achieved_rate": round(self.achieved_rate, 3),
            "p50_ms": round(self.p_ms(50), 3),
            "p99_ms": round(self.p_ms(99), 3),
            "late_p99_ms": round(1e3 * percentile(self.late_s, 99), 3),
            "behind": self.behind,
            "errors": self.errors[:3],
        }


class _Record:
    """Thread-safe append target shared by one phase's workers."""

    def __init__(self, phase: Phase) -> None:
        self.phase = phase
        self.lock = threading.Lock()

    def success(self, latency, roundtrip, server, late) -> None:
        done = time.perf_counter()
        with self.lock:
            self.phase.sent += 1
            self.phase.done_at.append(done)
            self.phase.latency_s.append(latency)
            self.phase.roundtrip_s.append(roundtrip)
            self.phase.server_s.append(server)
            if late is not None:
                self.phase.late_s.append(late)

    def failure(self, error: BaseException, late) -> None:
        with self.lock:
            self.phase.sent += 1
            self.phase.failed += 1
            self.phase.errors.append(repr(error))
            if late is not None:
                self.phase.late_s.append(late)


def _run_workers(work, clients) -> None:
    threads = [threading.Thread(target=work, args=(c,), daemon=True) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(name: str, clients, keys, due, rate: float, k: int = 10) -> Phase:
    """Send ``keys[i]`` at ``due[i]`` seconds from now on up to two workers."""
    phase = Phase(name, rate)
    record = _Record(phase)
    lock = threading.Lock()
    cursor = iter(range(len(due)))
    start = time.perf_counter() + 0.02

    def work(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due_at = start + due[index]
            pause = due_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent_at = time.perf_counter()
            try:
                result = client.top_k(int(keys[index]), k)
            except Exception as error:  # counted against the phase, not raised
                record.failure(error, sent_at - due_at)
                continue
            record.success(
                time.perf_counter() - due_at,
                result.latency_s,
                result.server_latency_s,
                sent_at - due_at,
            )

    _run_workers(work, clients[:MAX_WORKERS])
    phase.elapsed_s = time.perf_counter() - start
    return phase


def closed_loop(name: str, clients, keys, k: int = 10) -> Phase:
    """Send every key; each worker sends its next as soon as the previous answers.

    A fixed request count, rather than a fixed time, keeps the number
    attempted the same on a fast or a slow server.
    """
    phase = Phase(name, 0.0)
    record = _Record(phase)
    lock = threading.Lock()
    cursor = iter(range(len(keys)))
    start = phase.started_at = time.perf_counter()

    def work(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent_at = time.perf_counter()
            try:
                result = client.top_k(int(keys[index]), k)
            except Exception as error:
                record.failure(error, None)
                continue
            record.success(
                time.perf_counter() - sent_at,
                result.latency_s,
                result.server_latency_s,
                None,
            )

    _run_workers(work, clients[:MAX_WORKERS])
    phase.elapsed_s = time.perf_counter() - start
    return phase


@dataclass
class IngestTrace:
    """Raw observations of the writes-beside-reads phase."""

    acks: list = field(default_factory=list)  # (acked_at, lsn)
    ack_latency_s: list = field(default_factory=list)  # from due time
    samples: list = field(default_factory=list)  # (observed_at, lsn_served)
    write_late_s: list = field(default_factory=list)
    write_sent: int = 0
    write_failed: int = 0
    write_errors: list = field(default_factory=list)
    reads: Phase | None = None

    def visible_s(self) -> list[float]:
        """Ack → first ``healthz`` sample at or after the ack serving its LSN."""
        times = np.array([t for t, _ in self.samples])
        served = np.array([lsn for _, lsn in self.samples])
        # Running maximum: lsn_served never moves backwards, so the first
        # sample whose running max covers an LSN is where it became visible.
        served = np.maximum.accumulate(served) if served.size else served
        out = []
        for acked_at, lsn in self.acks:
            start = np.searchsorted(times, acked_at)
            hits = np.nonzero(served[start:] >= lsn)[0]
            if hits.size:
                out.append(float(times[start + hits[0]] - acked_at))
        return out


def ingest_loop(
    writer,
    reader,
    upserts: list[dict],
    write_due,
    read_keys,
    read_due,
    *,
    write_rate: float,
    read_rate: float,
    sample_every_s: float = 0.02,
    k: int = 10,
) -> IngestTrace:
    """Thread A: open-loop upserts.  Thread B: open-loop reads + healthz samples."""
    trace = IngestTrace()
    reads = Phase("ingest_reads", read_rate)
    record = _Record(reads)
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def write_thread() -> None:
        for index, changes in enumerate(upserts):
            due_at = start + write_due[index]
            pause = due_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent_at = time.perf_counter()
            try:
                ack = writer.upsert(**changes)
            except Exception as error:
                with lock:
                    trace.write_sent += 1
                    trace.write_failed += 1
                    trace.write_errors.append(repr(error))
                continue
            acked_at = time.perf_counter()
            with lock:
                trace.write_sent += 1
                trace.acks.append((acked_at, int(ack["lsn"])))
                trace.ack_latency_s.append(acked_at - due_at)
                trace.write_late_s.append(sent_at - due_at)

    def sample() -> None:
        health = reader.healthz()
        trace.samples.append((time.perf_counter(), int(health["lsn_served"])))

    def read_thread() -> None:
        next_sample = time.perf_counter()
        for index, offset in enumerate(read_due):
            due_at = start + offset
            while True:
                now = time.perf_counter()
                if now >= due_at:
                    break
                if now >= next_sample:
                    sample()
                    next_sample = now + sample_every_s
                    continue
                time.sleep(min(due_at, next_sample) - now)
            sent_at = time.perf_counter()
            try:
                result = reader.top_k(int(read_keys[index]), k)
            except Exception as error:
                record.failure(error, sent_at - due_at)
                continue
            record.success(
                time.perf_counter() - due_at,
                result.latency_s,
                result.server_latency_s,
                sent_at - due_at,
            )

    threads = [
        threading.Thread(target=write_thread, daemon=True),
        threading.Thread(target=read_thread, daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    reads.elapsed_s = time.perf_counter() - start
    trace.reads = reads
    return trace


def drain_visibility(reader, trace: IngestTrace, timeout_s: float, every_s: float = 0.02) -> dict:
    """Keep sampling until every acked LSN is served; return the final healthz."""
    target = max((lsn for _, lsn in trace.acks), default=0)
    deadline = time.perf_counter() + timeout_s
    while True:
        health = reader.healthz()
        trace.samples.append((time.perf_counter(), int(health["lsn_served"])))
        if int(health["lsn_served"]) >= target or time.perf_counter() > deadline:
            return health
        time.sleep(every_s)
