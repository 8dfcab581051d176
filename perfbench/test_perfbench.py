"""Tests of the benchmark's own statistics, load generator and tape profiler.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import socketserver
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import loadgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

# ---------------------------------------------------------------------------
# Ten samples beyond a reported percentile
# ---------------------------------------------------------------------------


def test_p99_needs_a_thousand_samples():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.supported(100, 90) and not stats.supported(99, 90)


def test_nearest_rank_percentile_is_a_measured_value():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values, 50) == 500
    assert stats.percentile([7.0], 99) == 7.0
    assert sum(v > stats.percentile(values, 99) for v in values) == 10


# ---------------------------------------------------------------------------
# Ladder stop rule
# ---------------------------------------------------------------------------


def _ladder(outcomes: dict):
    ran = []

    def run_step(rate):
        ran.append(rate)
        p99, failed, backlog = outcomes[rate]
        return stats.StepOutcome(rate, p99, failed, backlog, connections=2)

    steps, best = stats.run_ladder((25, 50, 100, 200), run_step, p99_limit_ms=100.0)
    return ran, best


def test_ladder_stops_at_the_first_step_over_the_p99_limit():
    ran, best = _ladder({25: (40.0, 0, 0), 50: (60.0, 0, 1), 100: (100.5, 0, 0), 200: (10.0, 0, 0)})
    assert ran == [25, 50, 100]
    assert best == 50


def test_ladder_counts_a_failure_as_missing_the_limit():
    ran, best = _ladder({25: (40.0, 0, 0), 50: (40.0, 1, 0), 100: (40.0, 0, 0), 200: (40.0, 0, 0)})
    assert ran == [25, 50] and best == 25


def test_ladder_stops_on_a_growing_backlog():
    ran, best = _ladder({25: (40.0, 0, 2), 50: (40.0, 0, 3), 100: (40.0, 0, 0), 200: (40.0, 0, 0)})
    assert ran == [25, 50] and best == 25


def test_ladder_reports_none_when_the_first_step_misses():
    ran, best = _ladder({25: (float("inf"), 0, 0), 50: (1.0, 0, 0), 100: (1.0, 0, 0), 200: (1.0, 0, 0)})
    assert ran == [25] and best is None


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0, 30.0]
    assert 0.0 < stats.quartile_spread(values) < 0.1


# ---------------------------------------------------------------------------
# Due-time latency against a server that stalls
# ---------------------------------------------------------------------------

STALL_S = 0.3
STALL_AT = 5  # the sixth request stalls
INTERVAL_S = 0.02


class _StallingHandler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            line = self.rfile.readline()
            if not line:
                return
            length = 0
            while True:
                header = self.rfile.readline()
                if header in (b"\r\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            self.rfile.read(length)
            with self.server.lock:
                n = self.server.count
                self.server.count += 1
            if n == STALL_AT:
                time.sleep(STALL_S)
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")


@pytest.fixture
def stalling_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StallingHandler)
    server.daemon_threads = True
    server.count = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_a_stall_is_charged_to_the_requests_queued_behind_it(stalling_server):
    schedule = [loadgen.post_json(i * INTERVAL_S, "/score", {"i": i}, "score", str(i))
                for i in range(25)]
    client = loadgen.OpenLoopClient("127.0.0.1", stalling_server, connections=1)
    try:
        results = client.run(schedule, drain_s=5.0)
    finally:
        client.close()
    assert all(r.ok for r in results)
    stalled = results[STALL_AT]
    assert stalled.latency_ms >= STALL_S * 1000
    # requests due during the stall were sent late and answered fast, yet
    # their latency from the due time carries the rest of the stall
    queued = [r for r in results[STALL_AT + 1:] if r.request.due < stalled.done]
    assert len(queued) >= 10
    for r in queued:
        assert r.sent >= stalled.done - 1e-6
        assert r.wire_ms < STALL_S * 1000 / 2
        assert r.latency_ms >= (stalled.done - r.request.due) * 1000 - 1e-6
    assert queued[0].latency_ms > STALL_S * 1000 - 2 * INTERVAL_S * 1000
    # the generator itself was not late: waiting for the connection is not lag
    assert max(r.lag for r in results) < 0.05
    # after the stall the server catches up, so nothing waits at the last due time
    assert loadgen.backlog_at_last_due(results) <= 1


def test_backlog_counts_requests_still_waiting_at_the_last_due_time(stalling_server):
    # the stall covers the end of the schedule, so the tail is still queued
    schedule = [loadgen.Request(i * INTERVAL_S, "GET", "/health", "health") for i in range(STALL_AT + 6)]
    client = loadgen.OpenLoopClient("127.0.0.1", stalling_server, connections=1)
    try:
        results = client.run(schedule, drain_s=5.0)
    finally:
        client.close()
    assert all(r.ok for r in results)
    assert loadgen.backlog_at_last_due(results) >= 4


def test_refused_connections_count_as_failed():
    with socketserver.TCPServer(("127.0.0.1", 0), socketserver.BaseRequestHandler) as probe:
        port = probe.server_address[1]
    client = loadgen.OpenLoopClient("127.0.0.1", port, connections=1)
    try:
        results = client.run([loadgen.Request(0.0, "GET", "/health", "health")], drain_s=1.0)
    finally:
        client.close()
    assert [r.ok for r in results] == [False]


# ---------------------------------------------------------------------------
# Outside-in tape profiler
# ---------------------------------------------------------------------------


def test_tape_profiler_leaves_training_bitwise_unchanged():
    from ehrseq import encoder
    from ehrseq import tensor as T
    from ehrseq.corpus import EncodedSample

    rng = np.random.default_rng(0)
    cfg = encoder.ModelConfig(vocab_size=140, d=16, n_layers=1, n_heads=2, max_len=12,
                              batch_size=8, epochs=1, seed=3)
    samples = []
    for _ in range(16):
        n = int(rng.integers(4, 12))
        ids = np.zeros(12, dtype=np.int64)
        ids[:n] = np.concatenate([[2, 8, 30], rng.integers(110, 140, n - 3)])
        mask = (np.arange(12) < n).astype(np.int64)
        samples.append(EncodedSample(ids, mask, n))

    plain = encoder.train(encoder.EncoderModel.build(cfg), samples)
    tracer = tracing.Tracer()
    tracing.profile_tape(tracer, T, encoder)
    try:
        traced = encoder.train(encoder.EncoderModel.build(cfg), samples)
    finally:
        tracer.restore()
    assert traced == plain
    metrics = tracing.model_metrics(tracer)
    assert metrics["tensor.calls.matmul_dec"] == 2  # one per batch
    assert metrics["tensor.bwd_s.matmul_dec"] > 0 and metrics["tensor.fwd_s.gelu"] > 0
    # dec_w is d x |V| and the batch is 8 x L: forward plus both gradients
    assert metrics["tensor.matmul_gflop"] > 3 * 2 * 2 * 8 * 16 * 140 / 1e9
    assert T.matmul.__module__ == "ehrseq.tensor"  # restored


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", time.sleep, 0.02))
    self_times = tracer.self_times()
    assert self_times["inner"] >= 0.02
    assert self_times["outer"] < 0.01
