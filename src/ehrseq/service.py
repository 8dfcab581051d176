"""HTTP scoring service: POST /score, GET /health, GET /psi.

The service loads a scorer artifact (and, for the replacement scheme, an
encoder checkpoint plus vocabulary), scores one application per request and
appends a query-log record to a JSONL file before responding. Loaded
artifacts are immutable, so concurrent requests need no locking beyond the
log writer, which serializes appends and flushes in order.

Each reply (status line, headers and body) leaves in one send on a socket with
TCP_NODELAY, so a keep-alive client waits for the handler, not for its own
delayed ACK. /psi reads the latest MAX_PSI_WINDOW scores, kept in a ring buffer.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence
from urllib.parse import parse_qs, urlparse

import numpy as np

from .container import artifact_hash
from .corpus import ApplicationRecord, parse_application
from .scoring import (
    EmbeddingSource,
    SchemaError,
    ScorerArtifact,
    assemble_features,
    check_schema,
    load_embedding_source,
    load_scorer,
    psi,
    ridge_predict,
)

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20  # larger /score bodies get 413 without being read
MAX_PSI_WINDOW = 10_000  # /psi covers at most this many of the latest scores


class ServiceError(Exception):
    """Request-level failure carrying the HTTP status to report."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class QueryLogRecord:
    timestamp: str  # UTC, millisecond precision
    app_id: str
    payload_sha256: str
    score: float
    model_hash: str
    latency_ms: float


def _payload_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_score_request(payload) -> ApplicationRecord:
    """Validate a /score body field by field; a bad field is a 400 naming it."""
    try:
        return parse_application(payload, labelled=False)
    except ValueError as exc:
        raise ServiceError(400, str(exc)) from exc


class ScoringService:
    """Scoring logic behind the HTTP handler; usable directly in tests."""

    def __init__(
        self,
        artifact: ScorerArtifact,
        artifact_sha256: str,
        embedding_source: EmbeddingSource | None = None,
        log_path: str | Path | None = None,
    ):
        if artifact.schema.scheme == "replacement" and embedding_source is None:
            raise ValueError("replacement-scheme scorer needs an embedding source")
        check_schema(artifact.model, artifact.schema)  # once: both are immutable
        self.artifact = artifact
        self.artifact_sha256 = artifact_sha256
        self.embedding_source = embedding_source
        self._log_lock = threading.Lock()
        self._logged_scores: deque[float] = deque(maxlen=MAX_PSI_WINDOW)
        self._log_file = open(log_path, "a", encoding="utf-8") if log_path else None

    @classmethod
    def from_files(
        cls,
        scorer_path: str | Path,
        encoder_path: str | Path | None = None,
        vocab_path: str | Path | None = None,
        log_path: str | Path | None = None,
    ) -> "ScoringService":
        artifact = load_scorer(scorer_path)
        source = None
        if artifact.schema.scheme == "replacement":
            source = load_embedding_source(artifact, encoder_path, vocab_path)
        return cls(artifact, artifact_hash(scorer_path), source, log_path)

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        out = {
            "status": "ok",
            "scheme": self.artifact.schema.scheme,
            "scorer_sha256": self.artifact_sha256,
            "schema_sha256": self.artifact.model.schema_hash,
        }
        if self.embedding_source is not None:
            out["encoder_sha256"] = self.embedding_source.encoder_sha256
            out["embedding_cache"] = self.embedding_source.cache_stats()
        return out

    def score_payload(self, payload) -> dict:
        """Validate, score and log one request; returns the response body."""
        t0 = time.perf_counter()
        record = parse_score_request(payload)
        try:
            X, _ = assemble_features([record], self.artifact.schema.scheme,
                                     schema=self.artifact.schema,
                                     embedding_source=self.embedding_source)
            score = float(ridge_predict(self.artifact.model, X)[0])
        except SchemaError as exc:
            raise ServiceError(422, str(exc)) from exc
        latency_ms = (time.perf_counter() - t0) * 1000.0
        self._append_log(QueryLogRecord(
            timestamp=dt.datetime.now(dt.timezone.utc).isoformat(timespec="milliseconds"),
            app_id=record.app_id,
            payload_sha256=_payload_hash(payload),
            score=score,
            model_hash=self.artifact_sha256,
            latency_ms=round(latency_ms, 3),
        ))
        return {"app_id": record.app_id, "score": score, "model_hash": self.artifact_sha256}

    def psi_over_window(self, window: int | None = None) -> dict:
        """PSI of the last ``window`` logged scores against the reference sample.

        Only the latest MAX_PSI_WINDOW scores are kept; no window means all of them.
        """
        if window is not None and window < 1:
            raise ServiceError(400, "window: expected a positive integer")
        if window is not None and window > MAX_PSI_WINDOW:
            raise ServiceError(400, f"window: {window} exceeds the limit of {MAX_PSI_WINDOW}")
        with self._log_lock:
            scores = list(self._logged_scores)
        if window is not None:
            scores = scores[-window:]
        if not scores:
            raise ServiceError(400, "no scored requests in the window")
        value = psi(self.artifact.reference_scores, np.asarray(scores))
        return {"psi": value, "window_size": len(scores),
                "reference_size": int(self.artifact.reference_scores.shape[0])}

    # -- log writer ----------------------------------------------------------

    def _append_log(self, rec: QueryLogRecord) -> None:
        line = json.dumps(vars(rec), sort_keys=True)  # flat fields: asdict would deep-copy them
        with self._log_lock:
            self._logged_scores.append(rec.score)
            if self._log_file is not None:
                self._log_file.write(line + "\n")
                self._log_file.flush()

    def close(self) -> None:
        with self._log_lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None


def read_query_log(path: str | Path) -> list[QueryLogRecord]:
    """Records of a JSON-lines query log. A malformed last line, the torn tail
    of an append cut short by a crash, is skipped with a warning; a malformed
    line anywhere else raises ``json.JSONDecodeError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    records = []
    for i, line in enumerate(lines):
        try:
            fields = json.loads(line)
        except json.JSONDecodeError:
            if i < len(lines) - 1:
                raise
            logger.warning("%s: skipping a torn last line (%d bytes)", path, len(line))
            break
        records.append(QueryLogRecord(**fields))
    return records


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # buffer each reply (handle_one_request flushes it) and set TCP_NODELAY: headers and
    # body leave in one send, not held for the client's delayed ACK of the headers
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle_expect_100(self):  # the client sends the body only once it reads this 100
        super().handle_expect_100()
        self.wfile.flush()
        return True

    @property
    def service(self) -> ScoringService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # default stderr chatter off
        logger.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        url = urlparse(self.path)
        try:
            if url.path == "/health":
                self._send_json(200, self.service.health())
            elif url.path == "/psi":
                params = parse_qs(url.query)
                window = None
                if "window" in params:
                    try:
                        window = int(params["window"][0])
                    except ValueError:
                        raise ServiceError(400, "window: expected a positive integer")
                self._send_json(200, self.service.psi_over_window(window))
            else:
                self._send_json(404, {"error": f"unknown path {url.path}"})
        except ServiceError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except Exception as exc:
            logger.exception("GET %s failed", self.path)
            self._send_json(500, {"error": str(exc)})

    def _body_length(self) -> int:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ServiceError(400, "Content-Length: expected an integer") from None
        if length <= 0:
            raise ServiceError(400, "body: empty request body")
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, f"body: {length} bytes exceeds the limit of {MAX_BODY_BYTES}")
        return length

    def do_POST(self):
        url = urlparse(self.path)
        body_read = False
        try:
            if url.path != "/score":
                raise ServiceError(404, f"unknown path {url.path}")
            raw = self.rfile.read(self._body_length())
            body_read = True
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(400, f"body: invalid JSON ({exc.msg})") from exc
            status, body = 200, self.service.score_payload(payload)
        except ServiceError as exc:
            status, body = exc.status, {"error": exc.message}
        except Exception as exc:
            logger.exception("POST /score failed")
            status, body = 500, {"error": str(exc)}
        if not body_read:
            self.close_connection = True  # else the unread body is parsed as the next request
        self._send_json(status, body)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128  # survive bursts of concurrent connections


def make_server(service: ScoringService, host: str = "127.0.0.1", port: int = 8080) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; port 0 picks a free port."""
    server = _Server((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server
