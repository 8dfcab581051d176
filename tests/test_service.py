"""Scoring service: wire format, validation statuses, logging, concurrency.

One module-scoped server per scheme (base and replacement) runs on an
ephemeral port; requests go through the real HTTP stack.
"""

import http.client
import json
import logging
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from urllib.parse import urlparse

import numpy as np
import numpy.testing as npt
import pytest
import requests

from ehrseq.container import ContainerError, artifact_hash, load_artifact, save_artifact
from ehrseq.corpus import build_vocabulary, filter_corpus, read_insurance_jsonl
from ehrseq.embedding import average_group_embedding
from ehrseq.encoder import EncoderModel, ModelConfig, save_checkpoint
from ehrseq.scoring import (
    EmbeddingSource,
    FeatureSchema,
    SchemaError,
    assemble_features,
    derive_schema,
    ridge_fit,
    ridge_predict,
    save_scorer,
)
from ehrseq.service import (
    MAX_BODY_BYTES,
    MAX_PSI_WINDOW,
    QueryLogRecord,
    ScoringService,
    ServiceError,
    make_server,
    parse_score_request,
    read_query_log,
)
from ehrseq.synthetic import generate_synthetic_corpus, generate_synthetic_insurance


# /score bodies with one bad field each, and the field the 400 must name
MALFORMED_BODIES = [
    ({"gender": "M", "age": 30}, "app_id"),
    ({"app_id": "x", "gender": "X", "age": 30}, "gender"),
    ({"app_id": "x", "gender": "M", "age": "old"}, "age"),
    ({"app_id": "x", "gender": "M", "age": 300}, "age"),
    ({"app_id": "x", "gender": "M", "age": 30, "anamnesis": ["NOPE"]}, "anamnesis[0]"),
    ({"app_id": "x", "gender": "M", "age": 30, "policy": {"a": 1}}, "policy"),
]


def start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def base_stack(tmp_path_factory):
    """Base-scheme scorer artifact + running server + held-out records."""
    root = tmp_path_factory.mktemp("base_service")
    patients = generate_synthetic_corpus(seed=31, n_patients=400, n_codes=40)
    records = generate_synthetic_insurance(seed=32, patients=patients, n_apps=3000,
                                           months=6, risk_groups=["I25"])
    train, held = records[:2500], records[2500:]
    X, schema = assemble_features(train, "base")
    y = np.array([r.claim for r in train], dtype=np.float64)
    model = ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256(), training_period="months 0-5")
    ref = ridge_predict(model, X)
    scorer_path = root / "scorer.bin"
    save_scorer(scorer_path, model, schema, ref)
    log_path = root / "queries.jsonl"
    service = ScoringService.from_files(scorer_path, log_path=log_path)
    server = make_server(service, port=0)
    start(server)
    url = "http://127.0.0.1:%d" % server.server_address[1]
    yield url, service, schema, model, held, log_path, scorer_path
    server.shutdown()
    server.server_close()
    service.close()


def as_payload(record):
    return {
        "app_id": record.app_id,
        "gender": record.gender,
        "age": record.age_years,
        "anamnesis": list(record.anamnesis),
        "policy": dict(record.policy),
    }


class TestScoreEndpoint:
    def test_matches_offline_prediction(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        rec = held[0]
        resp = requests.post(url + "/score", json=as_payload(rec))
        assert resp.status_code == 200
        body = resp.json()
        X, _ = assemble_features([rec], "base", schema=schema)
        offline = float(ridge_predict(model, X)[0])
        assert abs(body["score"] - offline) <= 1e-6
        assert body["app_id"] == rec.app_id
        assert body["model_hash"] == artifact_hash(scorer_path)

    def test_malformed_requests_get_field_level_400(self, base_stack):
        url, *_ = base_stack
        for payload, field in MALFORMED_BODIES:
            resp = requests.post(url + "/score", json=payload)
            assert resp.status_code == 400, payload
            assert field in resp.json()["error"]

    def test_unknown_policy_field_is_422(self, base_stack):
        url, *_ = base_stack
        payload = {"app_id": "x", "gender": "M", "age": 30,
                   "policy": {"made_up_field": "v"}}
        resp = requests.post(url + "/score", json=payload)
        assert resp.status_code == 422
        assert "made_up_field" in resp.json()["error"]

    def test_invalid_json_body_is_400(self, base_stack):
        url, *_ = base_stack
        resp = requests.post(url + "/score", data=b"{not json",
                             headers={"Content-Type": "application/json"})
        assert resp.status_code == 400
        assert "JSON" in resp.json()["error"]
        resp = requests.post(url + "/score", data=b"")
        assert resp.status_code == 400

    def test_unknown_paths_are_404(self, base_stack):
        url, *_ = base_stack
        assert requests.post(url + "/scores", json={}).status_code == 404
        assert requests.get(url + "/metrics").status_code == 404

    def test_unseen_policy_value_scores_via_missing_column(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        rec = held[1]
        payload = as_payload(rec)
        payload["policy"] = dict(payload["policy"])
        field = next(iter(payload["policy"]))
        payload["policy"][field] = "brand-new-value"
        resp = requests.post(url + "/score", json=payload)
        assert resp.status_code == 200

    def test_identical_requests_identical_scores(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        payload = as_payload(held[2])
        a = requests.post(url + "/score", json=payload).json()["score"]
        b = requests.post(url + "/score", json=payload).json()["score"]
        assert a == b


def raw_post(url, path, headers, body):
    """POST with hand-set headers; returns the status, Connection header and JSON body."""
    parts = urlparse(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Connection"), json.loads(resp.read())
    finally:
        conn.close()


class TestRequestBody:
    """A reply sent without reading the body closes the connection, so the
    unread bytes are never parsed as the next keep-alive request."""

    def test_non_integer_content_length_is_400(self, base_stack):
        url, *_ = base_stack
        status, connection, body = raw_post(url, "/score", {"Content-Length": "ten"}, b"{}")
        assert status == 400 and "Content-Length" in body["error"]
        assert connection == "close"

    def test_oversized_body_is_413_without_reading_it(self, base_stack):
        url, *_ = base_stack
        # only one byte follows: a server that tried to read the body would time out
        status, connection, body = raw_post(
            url, "/score", {"Content-Length": str(MAX_BODY_BYTES + 1)}, b"{")
        assert status == 413
        assert connection == "close"

    def test_unknown_path_closes_the_connection(self, base_stack):
        url, *_ = base_stack
        smuggled = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        status, connection, body = raw_post(
            url, "/scores", {"Content-Length": str(len(smuggled))}, smuggled)
        assert status == 404
        assert connection == "close"

    def test_read_body_keeps_the_connection_alive(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        data = json.dumps(as_payload(held[3])).encode("utf-8")
        parts = urlparse(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            for _ in range(2):
                conn.request("POST", "/score", body=data,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200 and resp.getheader("Connection") is None
            conn.request("POST", "/score", body=b"{oops")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 400 and resp.getheader("Connection") is None
        finally:
            conn.close()


def round_trip_ms(conn, method, path, body=None):
    t0 = time.perf_counter()
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    resp.read()
    return resp.status, (time.perf_counter() - t0) * 1000.0


class TestKeepAlive:
    """Each reply leaves in one send, so a keep-alive client waits for the
    handler, not for its own delayed ACK of the headers (about 40 ms)."""

    def test_sequential_round_trips_on_one_connection_are_fast(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        data = json.dumps(as_payload(held[4])).encode("utf-8")
        parts = urlparse(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            for method, path, body in (("POST", "/score", data), ("GET", "/health", None)):
                results = [round_trip_ms(conn, method, path, body) for _ in range(20)]
                assert all(status == 200 for status, _ in results), path
                median = statistics.median(ms for _, ms in results)
                assert median < 10.0, f"{method} {path}: median round trip {median:.1f} ms"
        finally:
            conn.close()

    def test_connection_close_reply_still_closes(self, base_stack):
        url, *_ = base_stack
        too_long = str(MAX_BODY_BYTES + 1)
        status, connection, _ = raw_post(url, "/score", {"Content-Length": too_long}, b"")
        assert status == 413 and connection == "close"
        parts = urlparse(url)
        with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(b"POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n"
                         % too_long.encode("ascii"))
            reply = b""
            while chunk := sock.recv(4096):  # times out unless the server closes
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 413")

    def test_interim_100_is_sent_before_the_body(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        data = json.dumps(as_payload(held[4])).encode("utf-8")
        parts = urlparse(url)
        with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
            sock.sendall(b"POST /score HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(data))
            assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(data)
            assert sock.recv(4096).startswith(b"HTTP/1.1 200")


class TestHealthAndPsi:
    def test_health_reports_artifact_hashes(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        resp = requests.get(url + "/health")
        assert resp.status_code == 200
        body = resp.json()
        assert body["status"] == "ok"
        assert body["scorer_sha256"] == artifact_hash(scorer_path)
        assert body["schema_sha256"] == schema.sha256()
        assert body["scheme"] == "base"

    def test_psi_of_reference_like_traffic_is_small(self, base_stack):
        url, service, schema, model, held, *_ = base_stack
        for rec in held[:200]:
            assert requests.post(url + "/score", json=as_payload(rec)).status_code == 200
        resp = requests.get(url + "/psi", params={"window": 200})
        assert resp.status_code == 200
        body = resp.json()
        assert body["window_size"] == 200
        assert body["psi"] < 0.1

    def test_psi_is_stable_without_new_traffic(self, base_stack):
        url, *_ = base_stack
        a = requests.get(url + "/psi", params={"window": 50}).json()["psi"]
        b = requests.get(url + "/psi", params={"window": 50}).json()["psi"]
        assert a == b

    def test_psi_bad_window(self, base_stack):
        url, *_ = base_stack
        assert requests.get(url + "/psi", params={"window": 0}).status_code == 400
        assert requests.get(url + "/psi", params={"window": "ten"}).status_code == 400

    def test_psi_without_traffic_is_400(self, tmp_path):
        patients = generate_synthetic_corpus(seed=33, n_patients=200, n_codes=40)
        records = generate_synthetic_insurance(seed=34, patients=patients, n_apps=500,
                                               months=4, risk_groups=["I25"])
        X, schema = assemble_features(records, "base")
        y = np.array([r.claim for r in records], dtype=np.float64)
        model = ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256())
        path = tmp_path / "scorer.bin"
        save_scorer(path, model, schema, ridge_predict(model, X))
        service = ScoringService.from_files(path)
        try:
            from ehrseq.service import ServiceError
            with pytest.raises(ServiceError) as err:
                service.psi_over_window()
            assert err.value.status == 400
        finally:
            service.close()


class TestPsiWindowBound:
    def test_only_the_latest_scores_are_kept(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        svc = ScoringService.from_files(scorer_path)
        try:
            for i in range(MAX_PSI_WINDOW + 5):
                svc._append_log(QueryLogRecord(timestamp="", app_id=str(i), payload_sha256="",
                                               score=float(i), model_hash="", latency_ms=0.0))
            assert list(svc._logged_scores) == [float(i) for i in range(5, MAX_PSI_WINDOW + 5)]
            assert svc.psi_over_window()["window_size"] == MAX_PSI_WINDOW
            assert svc.psi_over_window(MAX_PSI_WINDOW)["window_size"] == MAX_PSI_WINDOW
            with pytest.raises(ServiceError) as err:
                svc.psi_over_window(MAX_PSI_WINDOW + 1)
            assert err.value.status == 400 and str(MAX_PSI_WINDOW) in err.value.message
        finally:
            svc.close()

    def test_window_over_the_limit_is_400(self, base_stack):
        url, *_ = base_stack
        resp = requests.get(url + "/psi", params={"window": MAX_PSI_WINDOW + 1})
        assert resp.status_code == 400
        assert str(MAX_PSI_WINDOW) in resp.json()["error"]


class TestSchemaPin:
    def test_schema_the_model_was_not_fit_on_is_refused_at_construction(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        other = replace(service.artifact, model=replace(model, schema_hash="0" * 64))
        with pytest.raises(SchemaError, match="schema"):
            ScoringService(other, service.artifact_sha256)


class TestQueryLog:
    def test_log_counts_match_2xx_responses(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        before = len(read_query_log(log_path))
        ok = 0
        for rec in held[200:260]:
            if requests.post(url + "/score", json=as_payload(rec)).status_code == 200:
                ok += 1
        bad = requests.post(url + "/score", json={"app_id": "x"})  # rejected, not logged
        assert bad.status_code == 400
        records = read_query_log(log_path)
        assert len(records) - before == ok == 60

    def test_log_record_contents(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        payload = as_payload(held[270])
        resp = requests.post(url + "/score", json=payload).json()
        last = read_query_log(log_path)[-1]
        assert isinstance(last, QueryLogRecord)
        assert last.app_id == payload["app_id"]
        assert last.score == resp["score"]
        assert last.model_hash == artifact_hash(scorer_path)
        assert last.latency_ms >= 0.0
        assert len(last.payload_sha256) == 64
        assert last.timestamp.endswith("+00:00")

    def test_concurrent_scoring_is_consistent_and_fully_logged(self, base_stack):
        url, service, schema, model, held, log_path, scorer_path = base_stack
        recs = held[300:400]
        X, _ = assemble_features(recs, "base", schema=schema)
        offline = ridge_predict(model, X)
        before = len(read_query_log(log_path))

        def hit(i):
            r = requests.post(url + "/score", json=as_payload(recs[i]))
            return i, r.status_code, r.json()["score"]

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(hit, range(len(recs))))
        assert all(status == 200 for _, status, _ in results)
        for i, _, score in results:
            assert abs(score - offline[i]) <= 1e-6
        assert len(read_query_log(log_path)) - before == len(recs)

    @staticmethod
    def _log_lines(n=3):
        recs = [QueryLogRecord(timestamp="2024-01-01T00:00:00.000+00:00", app_id=f"a{i}",
                               payload_sha256="0" * 64, score=0.25 * i, model_hash="1" * 64,
                               latency_ms=1.5) for i in range(n)]
        return recs, [json.dumps(vars(r), sort_keys=True) + "\n" for r in recs]

    def test_torn_last_line_is_skipped_with_a_warning(self, tmp_path, caplog):
        recs, lines = self._log_lines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines) + lines[0][:40], encoding="utf-8")  # append cut short
        with caplog.at_level(logging.WARNING, logger="ehrseq.service"):
            assert read_query_log(torn) == recs
        assert "torn last line" in caplog.text

    def test_malformed_line_before_the_last_raises(self, tmp_path):
        _, lines = self._log_lines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[0] + lines[1][:40] + "\n" + lines[2], encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_query_log(bad)


@pytest.fixture(scope="module")
def replacement_stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("repl_service")
    patients = generate_synthetic_corpus(seed=35, n_patients=300, n_codes=40)
    patients, _ = filter_corpus(patients, min_code_freq=2)
    vocab = build_vocabulary(patients)
    config = ModelConfig(vocab_size=len(vocab), d=16, n_layers=1, n_heads=2,
                         max_len=27, seed=5)
    encoder = EncoderModel.build(config, vocab_sha256=vocab.sha256())
    table = average_group_embedding(encoder, patients, vocab, "mean")
    source = EmbeddingSource(encoder, vocab, table, strategy="mean")
    records = generate_synthetic_insurance(seed=36, patients=patients, n_apps=2000,
                                           months=6, risk_groups=["I25"])
    X, schema = assemble_features(records, "replacement", embedding_source=source)
    y = np.array([r.claim for r in records], dtype=np.float64)
    model = ridge_fit(X, y, lam=10.0, schema_hash=schema.sha256())
    scorer_path = root / "scorer.bin"
    save_scorer(scorer_path, model, schema, ridge_predict(model, X),
                group_table=table, extra_meta={"scheme": "replacement"})
    vocab_path = root / "vocab.tsv"
    vocab.save(vocab_path)
    encoder_path = root / "encoder.ckpt"
    save_checkpoint(encoder, encoder_path)
    service = ScoringService.from_files(scorer_path, encoder_path=encoder_path,
                                        vocab_path=vocab_path,
                                        log_path=root / "queries.jsonl")
    server = make_server(service, port=0)
    start(server)
    url = "http://127.0.0.1:%d" % server.server_address[1]
    yield url, service, schema, model, records, source, scorer_path
    server.shutdown()
    server.server_close()
    service.close()

class TestReplacementServing:
    def test_replacement_scores_match_offline(self, replacement_stack):
        url, service, schema, model, records, source, scorer_path = replacement_stack
        sample = records[:20]
        X, _ = assemble_features(sample, "replacement", schema=schema,
                                 embedding_source=source)
        offline = ridge_predict(model, X)
        for rec, expected in zip(sample, offline):
            resp = requests.post(url + "/score", json=as_payload(rec))
            assert resp.status_code == 200
            assert abs(resp.json()["score"] - expected) <= 1e-6

    def test_health_includes_encoder_hash(self, replacement_stack):
        url, service, *_ = replacement_stack
        body = requests.get(url + "/health").json()
        assert body["scheme"] == "replacement"
        assert body["encoder_sha256"] == service.embedding_source.model.params_sha256()

    def test_health_reports_embedding_cache_counters(self, replacement_stack):
        url, service, schema, model, records, *_ = replacement_stack
        rec = next(r for r in records if r.anamnesis)
        before = requests.get(url + "/health").json()["embedding_cache"]
        for _ in range(2):
            assert requests.post(url + "/score", json=as_payload(rec)).status_code == 200
        after = requests.get(url + "/health").json()["embedding_cache"]
        assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2
        assert after["hits"] >= before["hits"] + 1
        assert after["evictions"] == 0
        assert 1 <= after["entries"] <= after["capacity"]

    def test_health_computes_no_hash(self, replacement_stack, monkeypatch):
        url, service, schema, *_ = replacement_stack

        def no_hash(self):
            raise AssertionError("hash computed after load")

        monkeypatch.setattr(EncoderModel, "params_sha256", no_hash)
        monkeypatch.setattr(FeatureSchema, "sha256", no_hash)
        body = service.health()
        assert body["encoder_sha256"] == service.embedding_source.encoder_sha256
        monkeypatch.undo()
        assert body["schema_sha256"] == schema.sha256()

    def test_empty_anamnesis_uses_group_fallback(self, replacement_stack):
        url, service, schema, model, records, source, scorer_path = replacement_stack
        payload = {"app_id": "empty-1", "gender": "F", "age": 44, "anamnesis": [],
                   "policy": dict(records[0].policy)}
        resp = requests.post(url + "/score", json=payload)
        assert resp.status_code == 200

    def test_from_files_requires_encoder_artifacts(self, replacement_stack):
        url, service, schema, model, records, source, scorer_path = replacement_stack
        with pytest.raises(ValueError, match="encoder"):
            ScoringService.from_files(scorer_path)


class TestReplacementConcurrency:
    """A fresh replacement service, so every key starts as a cache miss."""

    def test_cold_cache_with_duplicate_keys(self, replacement_stack, tmp_path):
        url, service, schema, model, records, source, scorer_path = replacement_stack
        distinct, keys = [], set()
        for rec in records:
            key = (rec.gender, rec.age_years, tuple(sorted(rec.anamnesis)))
            if rec.anamnesis and key not in keys and len(distinct) < 25:
                keys.add(key)
                distinct.append(rec)
        assert len(distinct) == 25
        X, _ = assemble_features(distinct, "replacement", schema=schema, embedding_source=source)
        offline = ridge_predict(model, X)
        # the copies of a key are sent back to back, so their cache misses overlap
        order = [i for i in range(len(distinct)) for _ in range(4)]
        root, log_path = scorer_path.parent, tmp_path / "queries.jsonl"
        fresh = ScoringService.from_files(scorer_path, encoder_path=root / "encoder.ckpt",
                                          vocab_path=root / "vocab.tsv", log_path=log_path)
        assert not fresh.embedding_source._cache
        server = make_server(fresh, port=0)
        start(server)
        fresh_url = "http://127.0.0.1:%d" % server.server_address[1]
        try:
            def hit(i):
                r = requests.post(fresh_url + "/score", json=as_payload(distinct[i]))
                return i, r.status_code, r.json().get("score")

            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(hit, order))
        finally:
            server.shutdown()
            server.server_close()
            fresh.close()
        assert all(status == 200 for _, status, _ in results)
        for i, _, score in results:
            assert abs(score - offline[i]) <= 1e-6
        assert len(read_query_log(log_path)) == len(order) == 100
        assert len(fresh.embedding_source._cache) == 25


class TestParseScoreRequest:
    def test_normalizes_codes(self):
        rec = parse_score_request({"app_id": "a", "gender": "F", "age": 31,
                                   "anamnesis": ["j069"], "policy": {}})
        assert rec.anamnesis == ["J06.9"]
        assert rec.age_years == 31

    def test_defaults_for_optional_fields(self):
        rec = parse_score_request({"app_id": "a", "gender": "M", "age": 0})
        assert rec.anamnesis == [] and rec.policy == {}

    def test_bool_age_rejected(self):
        from ehrseq.service import ServiceError
        with pytest.raises(ServiceError):
            parse_score_request({"app_id": "a", "gender": "M", "age": True})

    @pytest.mark.parametrize("payload, field", MALFORMED_BODIES)
    def test_file_line_and_request_refuse_the_same_field(self, tmp_path, payload, field):
        with pytest.raises(ServiceError) as exc:
            parse_score_request(payload)
        assert exc.value.status == 400 and exc.value.message.startswith(f"{field}:")
        path = tmp_path / "apps.jsonl"
        path.write_text(json.dumps({**payload, "month": 0, "claim": 0}) + "\n")
        records, skipped, errors = read_insurance_jsonl(path)
        assert (records, skipped) == ([], 1) and errors[0].startswith(f"line 1: {field}:")
        with pytest.raises(ValueError) as exc:
            read_insurance_jsonl(path, strict=True)
        assert f"malformed application record: {field}:" in str(exc.value)


class TestEncoderPin:
    """A replacement scorer is served only with the encoder and vocabulary it was fit with."""

    def test_other_encoder_is_refused(self, replacement_stack, tmp_path):
        *_, source, scorer_path = replacement_stack
        config = source.model.config
        other = EncoderModel.build(replace(config, seed=config.seed + 1),
                                   vocab_sha256=source.vocab.sha256())
        save_checkpoint(other, tmp_path / "other.ckpt")
        source.vocab.save(tmp_path / "vocab.tsv")
        with pytest.raises(ContainerError, match="encoder"):
            ScoringService.from_files(scorer_path, encoder_path=tmp_path / "other.ckpt",
                                      vocab_path=tmp_path / "vocab.tsv")

    def test_scorer_without_provenance_is_refused(self, replacement_stack, tmp_path):
        *_, source, scorer_path = replacement_stack
        meta, arrays = load_artifact(scorer_path, kind="scorer")
        meta.pop("encoder_sha256", None)
        meta.pop("vocab_sha256", None)
        save_artifact(tmp_path / "old.bin", kind="scorer", meta=meta, arrays=arrays)
        save_checkpoint(source.model, tmp_path / "encoder.ckpt")
        source.vocab.save(tmp_path / "vocab.tsv")
        with pytest.raises(ContainerError, match="none recorded"):
            ScoringService.from_files(tmp_path / "old.bin", encoder_path=tmp_path / "encoder.ckpt",
                                      vocab_path=tmp_path / "vocab.tsv")
