#!/usr/bin/env python3
"""The repository benchmark: fit → serve → ingest, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf --seed 3 --seconds 24 --trace 0

Every run executes the same three phases on inputs generated from
``--seed`` (the program only receives them):

1. ``fit``    — ``PANE(k=128, n_threads=2, ccd_block_size=64).fit`` on the
   80% training split of a 20000-node attributed graph, then
   attribute-inference AUC on the held-out 20%.
2. ``query``  — that embedding published and served by ``repro serve``;
   ``/v1/topk`` reads in a closed loop and at a fixed Poisson rate.
3. ``ingest`` — a 5000-node graph served with a write-ahead log; open-loop
   upserts beside open-loop reads, until every acked write is visible.
   It runs while the query server idles between its last two closed-loop
   slices.

The workload picks the query phase's read keys: ``zipf`` draws them
Zipf(1.1) over a seeded permutation of the nodes, ``uniform`` uniformly;
the ingest phase reads uniform keys on both.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).  The last stdout line is the result object;
the line before it records the seed, the environment, and every phase.
A failed correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import load
from tracing import Spans, install_fit_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"zipf": 1.1, "uniform": 0.0}  # query-phase read-key Zipf exponent (0 = uniform)
GRAPH_SHAPE = dict(out_degree=8, n_communities=16, attrs_per_node=8.0)
AUC_TOLERANCE = 1e-6
AUC_MARGIN = 0.005  # an unrecorded seed must land this close to the recorded seeds' range
RECONCILE = 0.10  # traced layer sums must land within 10% of the total
CLOSED_SLICES = 3  # the closed loop runs in this many slices spread over the run
SLICE_BLOCKS = 4  # read_qps is the upper quartile of the rates of these blocks of every slice


@dataclass(frozen=True)
class Scale:
    fit_n: int
    fit_d: int
    k: int
    ccd_block: int
    ingest_n: int
    ingest_d: int
    fixed_rate: float  # req/s of the fixed-rate open loop
    write_rate: float  # upserts/s beside reads
    ingest_read_rate: float
    boots: int  # query-server boots per run; setup_s takes their median
    bit_check_nodes: int
    layer_keys: int  # keys replayed in process for the service/index/protocol layers


FULL = Scale(20000, 512, 128, 64, 5000, 256, 75.0, 40.0, 60.0, 3, 64, 1500)
TINY = Scale(600, 64, 16, 8, 300, 32, 50.0, 20.0, 20.0, 2, 16, 200)


def phase_sizes(seconds: float) -> dict:
    """How a run's ``--seconds`` sets the length of each load phase.

    The open loops get a share of the time; the closed loops get a
    request count (about that share of time on this repository's
    two-core reference box) so that every run attempts as many.
    """
    return {
        "warmup_requests": int(10 * seconds),
        "fixed_s": 0.33 * seconds,
        "closed_requests": int(200 * seconds),
        "ingest_s": 0.50 * seconds,
    }


# -- environment ----------------------------------------------------------
def openblas_threads() -> int | None:
    """Threads OpenBLAS will use in this process, read from the loaded library."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "server_env": SERVER_ENV,
    }


# -- processes ------------------------------------------------------------
# Each server answers every request on its own thread; a multi-threaded
# BLAS under each of them oversubscribes the cores and makes latency
# depend on thread wake-ups.  The fit keeps the default.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1"}
BOOT_TIMEOUT_S = 60.0


class Server:
    """A ``repro serve --http 0`` subprocess whose output is drained in the background."""

    def __init__(self, argv: list[str]) -> None:
        from repro.serving.http.loadgen import cli_subprocess_env

        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            env={**cli_subprocess_env(), **SERVER_ENV},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=ROOT,
        )
        self.lines: list[str] = []
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        self.lines.append(line)
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not boot: {''.join(self.lines)!r}")
        self.url = line.rsplit(" on ", 1)[1].strip()
        self._drain = threading.Thread(target=self._read_output, daemon=True)
        self._drain.start()
        from repro.serving.http import ServingClient

        with ServingClient(self.url, retries=5, backoff_s=0.05) as client:
            client.healthz()
        self.boot_s = time.perf_counter() - started

    @classmethod
    def repro(cls, store: Path, *args: str, spans_path: Path | None = None) -> "Server":
        if spans_path is None:
            entry = ["-m", "repro.cli"]
        else:
            entry = [str(HERE / "traced_serve.py"), str(spans_path)]
        return cls([sys.executable, *entry, "serve", "--store", str(store), "--http", "0", *args])

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        return self.process.returncode


def clients(url: str, n: int = 2):
    from repro.serving.http import ServingClient

    return [ServingClient(url, wire="json", retries=0, timeout_s=10.0) for _ in range(n)]


def close_all(items) -> None:
    for item in items:
        item.close()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checks ---------------------------------------------------------------
class Checks:
    def __init__(self) -> None:
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail="") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(r["ok"] for r in self.results)


def recorded_aucs(scale_name: str) -> dict[str, float]:
    return json.loads((HERE / "expected_auc.json").read_text()).get(scale_name, {})


def check_bit_identity(checks: Checks, name: str, store_root: Path, url: str, nodes) -> None:
    """Contract one: HTTP top-k equals in-process ``QueryService.search`` bit for bit."""
    from repro.serving import EmbeddingStore, QueryService
    from repro.serving.service import SearchRequest

    (client,) = clients(url, 1)
    mismatches = []
    try:
        first = client.top_k(int(nodes[0]), 10)
        with QueryService(EmbeddingStore(store_root), backend="exact", version=first.version) as service:
            for node in nodes:
                remote = client.top_k(int(node), 10)
                local = service.search(SearchRequest(node=int(node), k=10))
                if not (
                    remote.version == local.version
                    and np.array_equal(remote.ids, local.ids)
                    and remote.scores.tobytes() == local.scores.tobytes()
                ):
                    mismatches.append(int(node))
    finally:
        client.close()
    checks.add(name, not mismatches, f"{len(nodes)} nodes, mismatched {mismatches[:5]}")


# -- phases ---------------------------------------------------------------
STREAMS = {"query": 1, "ingest": 2, "bitcheck": 3}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream]])


def generate(scale: Scale, seed: int, workdir: Path) -> dict:
    from repro.graph.generators import power_law_attributed
    from repro.graph.io import save_npz
    from repro.tasks.attribute_inference import AttributeInferenceTask

    t0 = time.perf_counter()
    graph = power_law_attributed(n_nodes=scale.fit_n, n_attributes=scale.fit_d, seed=seed, **GRAPH_SHAPE)
    ingest_graph = power_law_attributed(
        n_nodes=scale.ingest_n, n_attributes=scale.ingest_d, seed=seed, **GRAPH_SHAPE
    )
    t1 = time.perf_counter()
    task = AttributeInferenceTask(graph, seed=seed)
    save_npz(ingest_graph, workdir / "ingest_graph.npz")
    t2 = time.perf_counter()
    return {"task": task, "generate_s": t1 - t0, "split_save_s": t2 - t1}


def fit_phase(scale: Scale, seed: int, task, trace: bool, checks: Checks, scale_name: str) -> dict:
    from repro.core.affinity import iterations_for_epsilon
    from repro.core.pane import PANE

    def model(threads: int) -> PANE:
        return PANE(k=scale.k, n_threads=threads, ccd_block_size=scale.ccd_block, seed=seed)

    train = task.split.train_graph
    t0 = time.perf_counter()
    embedding = model(2).fit(train)
    fit_s = time.perf_counter() - t0
    auc = task.evaluate_embedding(embedding).auc
    table = recorded_aucs(scale_name)
    expected = table.get(str(seed))
    if expected is None:
        low, high = min(table.values()) - AUC_MARGIN, max(table.values()) + AUC_MARGIN
        checks.add("attr_auc within the recorded seeds' range (no value for this seed)", low <= auc <= high, f"{auc} vs [{low}, {high}]")
    else:
        checks.add("attr_auc equals the recorded value", abs(auc - expected) <= AUC_TOLERANCE, f"{auc} vs {expected}")
    out = {"embedding": embedding, "fit_s": fit_s, "attr_auc": auc, "auc_recorded": expected, "rss_mb": own_peak_rss_mb()}
    if not trace:
        return out

    spans = Spans()
    install_fit_spans(spans)
    try:
        t0 = time.perf_counter()
        model(2).fit(train)
        traced_s = time.perf_counter() - t0
    finally:
        spans.restore()
    t0 = time.perf_counter()
    model(1).fit(train)
    serial_s = time.perf_counter() - t0

    layers = {name: sum(spans.durations(name)) for name in ("core.affinity", "core.init", "core.ccd")}
    share = sum(layers.values()) / traced_s
    checks.add("fit layers reconcile with the traced fit", abs(1 - share) <= RECONCILE, round(share, 4))
    cfg = embedding.config
    hops = iterations_for_epsilon(cfg.epsilon, cfg.alpha)
    sweeps = cfg.ccd_iterations if cfg.ccd_iterations is not None else hops
    n, d, nnz = train.n_nodes, train.n_attributes, train.adjacency.nnz
    out["layers"] = {
        "core.affinity.s": layers["core.affinity"],
        "core.init.s": layers["core.init"],
        "core.ccd.s": layers["core.ccd"],
        "core.affinity.hops": hops,
        "core.ccd.sweeps": sweeps,
        # Computed, not measured: per hop and direction, read the CSR
        # transition (8-byte values + 4-byte indices), read the n×d
        # iterate and restart term, write the n×d result.
        "core.affinity.gbytes": hops * 2 * (12 * nnz + 3 * 8 * n * d) / 1e9,
        # Computed: each of the k/2 column updates per sweep touches the
        # forward and backward n×d residuals four times at 2 flop/entry.
        "core.ccd.gflop": sweeps * 8 * cfg.k * n * d / 1e9,
        "trace.overhead_frac": (traced_s - fit_s) / fit_s,
        "parallel.speedup": serial_s / fit_s,
    }
    return out


def query_phase(scale: Scale, seed: int, skew: float, seconds: float, embedding, workdir: Path, trace: bool, checks: Checks, meanwhile) -> dict:
    """Serve the fit's embedding and read it; ``meanwhile()`` runs while the server idles.

    The closed loop runs in three slices: before and after the fixed-rate
    loop, and after ``meanwhile`` (the ingest phase), so that ``read_qps``
    samples the machine over most of the run rather than one stretch of it.
    """
    from repro.serving import EmbeddingStore

    store_root = workdir / "query_store"
    EmbeddingStore(store_root).publish(embedding)
    n = embedding.n_nodes
    sizes = phase_sizes(seconds)
    rng = rng_for(seed, "query")
    # poisson_due draws at most 1.5·rate·seconds + 16 arrivals.
    n_keys = sizes["warmup_requests"] + sizes["closed_requests"] + int(1.5 * scale.fixed_rate * sizes["fixed_s"]) + 16
    keys = load.key_stream(rng, n, skew, n_keys)
    offset = 0

    def take(count: int) -> np.ndarray:
        nonlocal offset
        chunk = keys[offset : offset + count]
        offset += count
        return chunk

    boots = []
    for _ in range(scale.boots - 1):
        server = Server.repro(store_root)
        boots.append(server.boot_s)
        server.stop()
    server = Server.repro(store_root)
    boots.append(server.boot_s)
    out = {"boot_s": statistics.median(boots)}
    workers = []
    try:
        workers = clients(server.url)
        load.closed_loop("warmup", workers, take(sizes["warmup_requests"]))
        cache_before = workers[0].metrics()["cache"]
        per_slice = sizes["closed_requests"] // CLOSED_SLICES
        closed = [load.closed_loop("closed1", workers, take(per_slice))]
        due = load.poisson_due(rng, scale.fixed_rate, sizes["fixed_s"])
        fixed = load.open_loop("fixed", workers, take(len(due)), due, scale.fixed_rate)
        closed.append(load.closed_loop("closed2", workers, take(per_slice)))
        out["meanwhile"] = meanwhile()
        closed.append(load.closed_loop("closed3", workers, take(per_slice)))
        cache_after = workers[0].metrics()["cache"]
        out["rss_mb"] = server.peak_rss_mb()
        phases = [closed[0], fixed, *closed[1:]]
        out["phases"] = [p.summary() for p in phases]
        out["sent"] = sum(p.sent for p in phases)
        out["failed"] = sum(p.failed for p in phases)
        out["fixed"], out["closed"] = fixed, closed
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        out["cache_hit_ratio"] = hits / max(1, hits + misses)
        check_nodes = rng_for(seed, "bitcheck").choice(n, size=scale.bit_check_nodes, replace=False)
        check_bit_identity(checks, "query: HTTP top-k bit-identical to in-process", store_root, server.url, check_nodes)
    finally:
        close_all(workers)
        code = server.stop()
    checks.add("query server drained cleanly", code == 0, code)
    if trace:
        out["layers"] = query_layers(store_root, keys[: scale.layer_keys], fixed, out["cache_hit_ratio"])
    return out


def query_layers(store_root: Path, keys, fixed, cache_hit_ratio: float) -> dict:
    """Service, index and protocol layers replayed in process on the same keys."""
    from repro.serving import EmbeddingStore, QueryService
    from repro.serving.http.protocol import dump_json, encode_result, parse_json_body, parse_result_payload
    from repro.serving.service import SearchRequest

    search_s, select_s, encode_s, decode_s = [], [], [], []
    store = EmbeddingStore(store_root)
    with QueryService(store, backend="exact") as service:
        backend = service.backend
        features = store.open(service.version).features
        for node in keys:
            t0 = time.perf_counter()
            result = service.search(SearchRequest(node=int(node), k=10))
            search_s.append(time.perf_counter() - t0)
            if not result.cached:
                query = np.asarray(features[int(node)], dtype=np.float64)[np.newaxis]
                t0 = time.perf_counter()
                backend.search(query, 10, exclude=np.array([int(node)]))
                select_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            body = dump_json(encode_result(result))
            t1 = time.perf_counter()
            parse_result_payload(parse_json_body(body))
            t2 = time.perf_counter()
            encode_s.append(t1 - t0)
            decode_s.append(t2 - t1)
        n, dim = features.shape
    roundtrip = np.asarray(fixed.roundtrip_s) * 1e3
    server = np.asarray(fixed.server_s) * 1e3
    return {
        "http.roundtrip_ms.p50": load.percentile(roundtrip, 50),
        "http.roundtrip_ms.p99": load.percentile(roundtrip, 99),
        "http.server_ms.p50": load.percentile(server, 50),
        "http.server_ms.p99": load.percentile(server, 99),
        "http.wire_ms": load.percentile(roundtrip - server, 50),
        "service.search_ms.p50": 1e3 * load.percentile(search_s, 50),
        "service.search_ms.p99": 1e3 * load.percentile(search_s, 99),
        "service.cache_hit_ratio": cache_hit_ratio,
        "index.select_ms": 1e3 * load.percentile(select_s, 50),
        # Computed: an exact scan reads every float64 feature row once
        # and writes one float64 score per node.
        "index.select_bytes_per_query": float(n * dim * 8 + n * 8),
        "protocol.encode_ms": 1e3 * load.percentile(encode_s, 50),
        "protocol.decode_ms": 1e3 * load.percentile(decode_s, 50),
        "loadgen.late_p99_ms": 1e3 * load.percentile(fixed.late_s, 99),
    }


def make_upserts(rng: np.random.Generator, n: int, d: int, count: int) -> list[dict]:
    """Each upsert adds 2 edges and 2 node–attribute associations."""
    out = []
    for _ in range(count):
        sources = rng.integers(0, n, size=2)
        targets = (sources + rng.integers(1, n, size=2)) % n  # never a self-loop
        out.append(
            {
                "add_edges": np.stack([sources, targets], axis=1),
                "add_associations": np.stack(
                    [rng.integers(0, n, size=2), rng.integers(0, d, size=2), np.ones(2)], axis=1
                ),
            }
        )
    return out


def ingest_phase(scale: Scale, seed: int, seconds: float, workdir: Path, trace: bool, checks: Checks) -> dict:
    ingest_s = phase_sizes(seconds)["ingest_s"]
    graph_path = workdir / "ingest_graph.npz"

    store_root = workdir / "ingest_store"
    flags = ("--wal-dir", str(workdir / "ingest_wal"), "--graph", str(graph_path), "--compact-interval", "0.05", "--gc-keep", "4")
    spans_path = workdir / "ingest_spans.json" if trace else None
    # One cold boot per run: it fits the graph, so repeating it would cost
    # as much as the phase it prepares.
    server = Server.repro(store_root, *flags, spans_path=spans_path)
    rng = rng_for(seed, "ingest")
    write_due = load.poisson_due(rng, scale.write_rate, ingest_s)
    read_due = load.poisson_due(rng, scale.ingest_read_rate, ingest_s)
    upserts = make_upserts(rng, scale.ingest_n, scale.ingest_d, len(write_due))
    # Uniform read keys on every workload: the cache stays near empty, so
    # the reads measure the index across version swaps.
    read_keys = load.key_stream(rng, scale.ingest_n, 0.0, len(read_due))
    out = {"boot_s": server.boot_s}
    writer = reader = None
    try:
        writer, reader = clients(server.url)
        cache_before = reader.metrics()["cache"]
        run = load.ingest_loop(
            writer, reader, upserts, write_due, read_keys, read_due,
            write_rate=scale.write_rate, read_rate=scale.ingest_read_rate,
        )
        health = load.drain_visibility(reader, run, timeout_s=60.0)
        cache_after = reader.metrics()["cache"]
        acked = max((lsn for _, lsn in run.acks), default=0)
        visible = run.visible_s()
        checks.add("ingest: every acked write became visible", len(visible) == len(run.acks), f"{len(visible)}/{len(run.acks)}")
        checks.add(
            "ingest: lsn_served == lsn_durable == max acked lsn (zero acked loss)",
            health["lsn_served"] == health["lsn_durable"] == acked,
            {"lsn_served": health["lsn_served"], "lsn_durable": health["lsn_durable"], "max_acked": acked},
        )
        check_nodes = rng_for(seed, "bitcheck").choice(scale.ingest_n, size=scale.bit_check_nodes // 4, replace=False)
        check_bit_identity(checks, "ingest: HTTP top-k bit-identical to in-process", store_root, server.url, check_nodes)
        out["rss_mb"] = server.peak_rss_mb()
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        out["cache_hit_ratio"] = hits / max(1, hits + misses)
    finally:
        close_all(c for c in (writer, reader) if c is not None)
        code = server.stop()
    checks.add("ingest server drained cleanly", code == 0, code)
    out.update(run=run, visible=visible)
    out["phases"] = [
        run.reads.summary(),
        {
            "phase": "ingest_writes",
            "sent": run.write_sent,
            "ok": run.write_sent - run.write_failed,
            "failed": run.write_failed,
            "scheduled_rate": scale.write_rate,
            "achieved_rate": round(len(run.acks) / run.reads.elapsed_s, 3),
            "late_p99_ms": round(1e3 * load.percentile(run.write_late_s, 99), 3),
            "behind": bool(run.write_late_s) and load.percentile(run.write_late_s, 99) > 0.010,
            "errors": run.write_errors[:3],
        },
    ]
    out["sent"] = run.write_sent + run.reads.sent
    out["failed"] = run.write_failed + run.reads.failed
    if trace:
        spans = Spans()
        spans.records = json.loads(spans_path.read_text())
        out["layers"] = ingest_layers(spans, out["cache_hit_ratio"], checks)
    return out


def ingest_layers(spans: Spans, cache_hit_ratio: float, checks: Checks) -> dict:
    folds = [r for r in spans.records if r["name"] == "wal.fold"]
    fold_s = [r["value"]["seconds"] for r in folds]
    updates = [r["value"] for r in spans.records if r["name"] == "dynamic.update" and "wal.fold" in r["within"]]
    phases = {
        "dynamic.apply_delta_s": spans.durations("dynamic.apply_delta", within="wal.fold"),
        "dynamic.affinity_s": [u["affinity"] for u in updates],
        "dynamic.warm_ccd_s": [u["warm_ccd"] for u in updates],
        "store.publish_s": spans.durations("store.publish", within="wal.fold"),
        # The refresher opens the new version to hand over the index;
        # activate's own open is part of service.activate_s.
        "store.open_s": spans.durations("store.open", within="wal.fold", outside="service.activate"),
        "service.activate_s": spans.durations("service.activate", within="wal.fold"),
    }
    share = sum(sum(v) for v in phases.values()) / sum(fold_s)
    checks.add("fold phases reconcile with wal.fold_s", abs(1 - share) <= RECONCILE, round(share, 4))
    appends = np.asarray(spans.durations("wal.append")) * 1e3
    layers = {
        "wal.append_ms.p50": load.percentile(appends, 50),
        "wal.append_ms.p99": load.percentile(appends, 99),
        "wal.fold_s": statistics.median(fold_s),
        "wal.records_per_fold": statistics.mean(r["value"]["records"] for r in folds),
        "service.cache_hit_ratio.ingest": cache_hit_ratio,
    }
    layers.update({name: statistics.median(values) for name, values in phases.items()})
    return layers


# -- the run --------------------------------------------------------------
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "fit_s": "s",
    "attr_auc": "AUC",
}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".s", "s"), ("_s", "s"), ("_ms", "ms"), (".p50", "ms"), (".p99", "ms"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return {
        "core.affinity.hops": "count",
        "core.ccd.sweeps": "count",
        "core.affinity.gbytes": "GB",
        "core.ccd.gflop": "GFLOP",
        "index.select_bytes_per_query": "bytes",
        "wal.records_per_fold": "count",
        "read_qps": "req/s",
    }.get(name, "ratio")


def run(workload: str, seed: int, seconds: float, trace: bool, scale_name: str) -> tuple[dict, dict, dict, Checks]:
    scale = {"full": FULL, "tiny": TINY}[scale_name]
    skew = WORKLOADS[workload]
    checks = Checks()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base))
    try:
        inputs = generate(scale, seed, workdir)
        fit = fit_phase(scale, seed, inputs.pop("task"), trace, checks, scale_name)
        # The load phases run in this process too: keep the collector off
        # the objects that survive the fit so it cannot stall them.
        gc.collect()
        gc.freeze()
        query = query_phase(
            scale, seed, skew, seconds, fit["embedding"], workdir, trace, checks,
            meanwhile=lambda: ingest_phase(scale, seed, seconds, workdir, trace, checks),
        )
        ingest = query.pop("meanwhile")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = 1 + query["sent"] + ingest["sent"]
    failed = query["failed"] + ingest["failed"]
    run_ = ingest["run"]
    block_rates = [rate for phase in query["closed"] for rate in phase.block_rates(SLICE_BLOCKS)]
    e2e = {
        "setup_s": inputs["generate_s"] + inputs["split_save_s"] + query["boot_s"] + ingest["boot_s"],
        "peak_rss_mb": fit["rss_mb"] + query["rss_mb"] + ingest["rss_mb"],
        # +1 on both sides keeps the ratio above zero so its spread is defined.
        "fail_frac": (failed + 1) / (attempted + 1),
        "fit_s": fit["fit_s"],
        "attr_auc": fit["attr_auc"],
    }
    # Recorded with every run but gated by nothing: on a shared two-core
    # virtual machine their run-to-run spread exceeds any usable bound
    # (perfbench/README.md, "Steadiness").
    ungated = {
        # The upper quartile: a neighbour on a shared machine slows some
        # blocks of a run and leaves the rest at the rate the server sustains.
        "read_qps": float(np.percentile(block_rates, 75)),
        "read_p50_ms": query["fixed"].p_ms(50),
        "write_ack_p50_ms": 1e3 * load.percentile(run_.ack_latency_s, 50),
        "ingest_read_p50_ms": run_.reads.p_ms(50),
        "visible_p50_s": load.percentile(ingest["visible"], 50),
        "read_p99_ms": query["fixed"].p_ms(99),
        "write_ack_p99_ms": 1e3 * load.percentile(run_.ack_latency_s, 99),
        "visible_p99_s": load.percentile(ingest["visible"], 99),
        "ingest_read_p99_ms": run_.reads.p_ms(99),
    }
    layers = {}
    if trace:
        layers.update(fit["layers"])
        layers.update(query["layers"])
        layers.update(ingest["layers"])
        layers.update(
            {
                "read_qps": ungated["read_qps"],
                "graph.generate.s": inputs["generate_s"],
                "rss.fit_mb": fit["rss_mb"],
                "rss.query_server_mb": query["rss_mb"],
                "rss.ingest_server_mb": ingest["rss_mb"],
            }
        )
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale_name,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "auc_recorded": fit["auc_recorded"],
        "samples": {
            "read": len(query["fixed"].latency_s),
            "write_ack": len(run_.ack_latency_s),
            "visible": len(ingest["visible"]),
            "ingest_read": len(run_.reads.latency_s),
        },
        "setup_parts_s": {
            "generate": inputs["generate_s"],
            "split_save": inputs["split_save_s"],
            "query_boot_median": query["boot_s"],
            "ingest_boot": ingest["boot_s"],
        },
        "phases": query["phases"] + ingest["phases"],
        "read_block_rates": block_rates,
        "checks": checks.results,
        "end_to_end": e2e,
        "ungated": {name: {"value": value, "unit": layer_unit(name)} for name, value in ungated.items()},
    }
    return e2e, layers, info, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        e2e, layers, info, checks = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(info, default=float))
    for result in checks.results:
        print(("PASS " if result["ok"] else "FAIL ") + result["check"], file=sys.stderr)
    if not checks.passed:
        print(json.dumps({"correct": False, "attempted": info["attempted"], "failed": info["failed"], "metrics": {}}))
        return 1
    chosen = layers if args.trace else e2e
    units = {name: layer_unit(name) for name in layers} if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": float(value), "unit": units[name]} for name, value in chosen.items()}
    print(json.dumps({"correct": True, "attempted": info["attempted"], "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
