"""Patient-history corpora and the token vocabulary.

A corpus is a list of :class:`PatientHistory` records: gender, age in years
and a date-ordered sequence of diagnosis events. Histories are filtered
(rare codes removed, short histories dropped), indexed through a
:class:`Vocabulary` and encoded into fixed-length id sequences laid out as

    [CLS] [GENDER] [AGE] [event_1 ... event_k] [PAD ...]

with at most ``H`` event slots. Insurance applications
(:class:`ApplicationRecord`) share the same code space through the
applicant's declared disease history.

File formats (one JSON object per line):

* patients:  ``{"patient_id", "gender": "M"|"F", "age", "events":
  [{"date": "YYYY-MM-DD", "icd": str}, ...]}``
* insurance: ``{"app_id": str, "month": int >= 0, "gender", "age": 0..130,
  "anamnesis": [str], "policy": {str: str}, "claim": 0|1}``; anamnesis and
  policy may be left out. :func:`parse_application` checks each field, and a
  ``/score`` request is the same object without month and claim.
* vocabulary: header line ``ehrseq-vocab v1 <count>`` followed by one
  ``token<TAB>count`` line per id, in id order.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .container import atomic_write
from .icd import InvalidCodeError, normalize_code

GENDERS = ("M", "F")

# Reserved ids 0..7, then 2 gender tokens, 100 age tokens, then ICD codes.
AUX_TOKENS = ("[PAD]", "[MASK]", "[CLS]", "[SEP]", "[UNK]", "[RES5]", "[RES6]", "[RES7]")
PAD_ID, MASK_ID, CLS_ID, SEP_ID, UNK_ID, RES5_ID, RES6_ID, RES7_ID = range(8)
GENDER_TOKENS = ("[MALE]", "[FEMALE]")
N_AGES = 100
GENDER_OFFSET = len(AUX_TOKENS)
AGE_OFFSET = GENDER_OFFSET + len(GENDER_TOKENS)
ICD_OFFSET = AGE_OFFSET + N_AGES
TOKEN_KINDS = ("aux", "gender", "age", "icd")  # token classes, in id order

VOCAB_HEADER = "ehrseq-vocab v1"

POLICY_FIELDS = ("product_type", "currency", "region", "sum_band", "term_band")


class Event(NamedTuple):
    date: dt.date
    code: str


class Visit(NamedTuple):
    date: dt.date
    codes: list[str]


@dataclass
class PatientHistory:
    """One patient: gender, age at the last diagnosis event, ordered events."""

    patient_id: str
    gender: str
    age_years: int
    events: list[Event]

    def codes(self) -> list[str]:
        return [e.code for e in self.events]


@dataclass
class ApplicationRecord:
    """One insurance application: applicant part + policy part + claim label."""

    app_id: str
    month: int
    gender: str
    age_years: int
    anamnesis: list[str]
    policy: dict[str, str]
    claim: int


@dataclass
class EncodedSample:
    """Fixed-length id layout for one history: [CLS][GENDER][AGE][events][PAD]."""

    token_ids: np.ndarray
    attention_mask: np.ndarray
    length: int
    unk_count: int = 0
    age_clamped: bool = False


@dataclass
class CorpusStats:
    n_patients: int
    n_codes: int
    n_events: int
    mean_events: float
    removed_codes: int
    dropped_patients: int
    passes: int


@dataclass
class IngestResult:
    patients: list[PatientHistory]
    skipped: int
    errors: list[str] = field(default_factory=list)


class Vocabulary:
    """Bijective token <-> contiguous id map over reserved, gender, age and ICD tokens.

    Entry order is fixed: the 8 reserved tokens, the 2 gender tokens, the 100
    age tokens, then ICD codes sorted lexicographically. Ids are the positions
    in that order, so the ordering depends only on the code set, never on
    frequencies.
    """

    def __init__(self, icd_codes: Iterable[str], counts: dict[str, int] | None = None):
        codes = sorted(set(icd_codes))
        if not codes:
            raise ValueError("degenerate corpus: no diagnosis codes")
        self.entries: list[str] = (
            list(AUX_TOKENS)
            + list(GENDER_TOKENS)
            + [f"[AGE_{a}]" for a in range(N_AGES)]
            + codes
        )
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.entries)}
        self.counts: dict[str, int] = {t: 0 for t in self.entries}
        if counts:
            for tok, n in counts.items():
                if tok in self.counts:
                    self.counts[tok] = int(n)

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def token(self, token_id: int) -> str:
        return self.entries[token_id]

    def id_for(self, token: str) -> int:
        return self.index[token]

    def gender_id(self, gender: str) -> int:
        return GENDER_OFFSET + GENDERS.index(gender)

    def age_id(self, age_years: int) -> int:
        return AGE_OFFSET + age_years

    def code_id(self, code: str) -> int:
        """Id of a diagnosis code, UNK when out of vocabulary."""
        return self.index.get(code, UNK_ID)

    @property
    def n_icd(self) -> int:
        return len(self.entries) - ICD_OFFSET

    @property
    def icd_ids(self) -> range:
        return range(ICD_OFFSET, len(self.entries))

    def is_icd_id(self, token_id: int) -> bool:
        return ICD_OFFSET <= token_id < len(self.entries)

    def ids(self, kind: str) -> range:
        """Ids of one token class (one of ``TOKEN_KINDS``), or of every token for "any"."""
        bounds = {"aux": (0, GENDER_OFFSET), "gender": (GENDER_OFFSET, AGE_OFFSET),
                  "age": (AGE_OFFSET, ICD_OFFSET), "icd": (ICD_OFFSET, len(self.entries)),
                  "any": (0, len(self.entries))}
        if kind not in bounds:
            raise ValueError(f"token class must be one of {TOKEN_KINDS + ('any',)}, got {kind!r}")
        return range(*bounds[kind])

    # -- construction / serialization ------------------------------------

    def to_bytes(self) -> bytes:
        lines = [f"{VOCAB_HEADER} {len(self.entries)}"]
        lines += [f"{t}\t{self.counts[t]}" for t in self.entries]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def save(self, path: str | Path) -> None:
        with atomic_write(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or not lines[0].startswith(VOCAB_HEADER):
            raise ValueError(f"not a vocabulary file: {path}")
        declared = int(lines[0].rsplit(" ", 1)[1])
        body = lines[1:]
        if len(body) != declared:
            raise ValueError(f"vocabulary header declares {declared} tokens, found {len(body)}")
        tokens, counts = [], {}
        for line in body:
            tok, _, cnt = line.partition("\t")
            tokens.append(tok)
            counts[tok] = int(cnt) if cnt else 0
        icd = tokens[ICD_OFFSET:]
        vocab = cls(icd, counts)
        if vocab.entries != tokens:
            raise ValueError("vocabulary file entries are not in canonical order")
        return vocab


# ---------------------------------------------------------------------------
# Ingest and record I/O
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_patient(obj) -> PatientHistory:
    """Check one patient object field by field; raises ``ValueError`` naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("record: expected a JSON object")
    patient_id = obj.get("patient_id")
    if not isinstance(patient_id, str) or not patient_id:
        raise ValueError("patient_id: expected a non-empty string")
    gender = obj.get("gender")
    if gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}, got {gender!r}")
    age = obj.get("age")
    if not _is_int(age) or not (0 <= age <= 130):
        raise ValueError("age: expected an integer in [0, 130]")
    raw_events = obj.get("events")
    if not isinstance(raw_events, list):
        raise ValueError("events: expected a list")
    events = []
    for i, e in enumerate(raw_events):
        if not isinstance(e, dict):
            raise ValueError(f"events[{i}]: expected an object")
        date, icd = e.get("date"), e.get("icd")
        if not isinstance(date, str):
            raise ValueError(f"events[{i}].date: expected an ISO date string")
        if not isinstance(icd, str):
            raise ValueError(f"events[{i}].icd: expected a string")
        try:
            day = dt.date.fromisoformat(date)
        except ValueError as exc:
            raise ValueError(f"events[{i}].date: {exc}") from exc
        try:
            events.append(Event(day, normalize_code(icd)))
        except InvalidCodeError as exc:
            raise ValueError(f"events[{i}].icd: {exc}") from exc
    events.sort(key=lambda e: e.date)  # stable: same-day order preserved
    return PatientHistory(patient_id=patient_id, gender=gender, age_years=age, events=events)


def _read_jsonl(path: str | Path, parse) -> tuple[list, int, list[str]]:
    """Parse each non-blank line of a JSONL file; malformed lines are skipped and
    counted, with the first 10 messages kept."""
    items = []
    skipped = 0
    errors: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                items.append(parse(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError, InvalidCodeError) as exc:
                skipped += 1
                if len(errors) < 10:
                    errors.append(f"line {lineno}: {exc}")
    return items, skipped, errors


def _write_jsonl(objs: Iterable[dict], path: str | Path) -> int:
    n = 0
    with atomic_write(path) as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
            n += 1
    return n


def ingest_corpus(path: str | Path) -> IngestResult:
    """Read a JSONL patient corpus file; malformed lines are skipped and counted."""
    return IngestResult(*_read_jsonl(path, _parse_patient))


def write_patients_jsonl(patients: Iterable[PatientHistory], path: str | Path) -> int:
    return _write_jsonl(({
        "patient_id": p.patient_id,
        "gender": p.gender,
        "age": p.age_years,
        "events": [{"date": e.date.isoformat(), "icd": e.code} for e in p.events],
    } for p in patients), path)


def parse_application(obj, labelled: bool = True) -> ApplicationRecord:
    """Check one application object field by field; raises ``ValueError`` naming the field.

    ``anamnesis`` and ``policy`` default to empty. A labelled record (a file
    line) also needs ``month`` (an integer >= 0) and ``claim`` (0 or 1); an
    unlabelled one (a scoring request) gets month 0 and claim 0.
    """
    if not isinstance(obj, dict):
        raise ValueError("body: expected a JSON object")
    app_id = obj.get("app_id")
    if not isinstance(app_id, str) or not app_id:
        raise ValueError("app_id: expected a non-empty string")
    gender = obj.get("gender")
    if gender not in GENDERS:
        raise ValueError(f"gender: expected one of {list(GENDERS)}")
    age = obj.get("age")
    if not _is_int(age) or not (0 <= age <= 130):
        raise ValueError("age: expected an integer in [0, 130]")
    anamnesis = obj.get("anamnesis", [])
    if not isinstance(anamnesis, list) or not all(isinstance(c, str) for c in anamnesis):
        raise ValueError("anamnesis: expected a list of strings")
    codes = []
    for i, raw in enumerate(anamnesis):
        try:
            codes.append(normalize_code(raw))
        except InvalidCodeError as exc:
            raise ValueError(f"anamnesis[{i}]: {exc}") from exc
    policy = obj.get("policy", {})
    if not isinstance(policy, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in policy.items()
    ):
        raise ValueError("policy: expected a string-to-string map")
    month = claim = 0
    if labelled:
        month = obj.get("month")
        if not _is_int(month) or month < 0:
            raise ValueError("month: expected an integer >= 0")
        claim = obj.get("claim")
        if not _is_int(claim) or claim not in (0, 1):
            raise ValueError("claim: expected 0 or 1")
    return ApplicationRecord(app_id=app_id, month=month, gender=gender, age_years=age,
                             anamnesis=codes, policy=dict(policy), claim=claim)


def read_insurance_jsonl(path: str | Path) -> tuple[list[ApplicationRecord], int, list[str]]:
    """Read a JSONL insurance file through :func:`parse_application`; returns the
    records, the count of skipped malformed lines and the first 10 reasons."""
    return _read_jsonl(path, parse_application)


def write_insurance_jsonl(records: Iterable[ApplicationRecord], path: str | Path) -> int:
    return _write_jsonl(({
        "app_id": r.app_id,
        "month": r.month,
        "gender": r.gender,
        "age": r.age_years,
        "anamnesis": r.anamnesis,
        "policy": r.policy,
        "claim": r.claim,
    } for r in records), path)


# ---------------------------------------------------------------------------
# Filtering, vocabulary, encoding
# ---------------------------------------------------------------------------


def filter_corpus(
    patients: list[PatientHistory],
    min_code_freq: int = 5,
    min_events: int = 2,
) -> tuple[list[PatientHistory], CorpusStats]:
    """Remove rare codes and short histories until both thresholds hold.

    Dropping a patient lowers code frequencies, which can push further codes
    below the threshold, so the two rules are applied alternately until a
    fixed point. The result is therefore idempotent under re-filtering.
    """
    if min_code_freq < 1 or min_events < 1:
        raise ValueError("min_code_freq and min_events must be >= 1")
    kept = list(patients)
    removed_codes: set[str] = set()
    dropped = 0
    passes = 0
    while True:
        passes += 1
        counts = Counter(e.code for p in kept for e in p.events)
        bad = {c for c, n in counts.items() if n < min_code_freq}
        removed_codes |= bad
        changed = bool(bad)
        nxt: list[PatientHistory] = []
        for p in kept:
            events = [e for e in p.events if e.code not in bad] if bad else p.events
            if len(events) < min_events:
                dropped += 1
                changed = True
            elif len(events) != len(p.events):
                nxt.append(replace(p, events=events))
            else:
                nxt.append(p)
        kept = nxt
        if not changed:
            break
    n_events = sum(len(p.events) for p in kept)
    stats = CorpusStats(
        n_patients=len(kept),
        n_codes=len({e.code for p in kept for e in p.events}),
        n_events=n_events,
        mean_events=(n_events / len(kept)) if kept else 0.0,
        removed_codes=len(removed_codes),
        dropped_patients=dropped,
        passes=passes,
    )
    return kept, stats


def build_vocabulary(patients: list[PatientHistory]) -> Vocabulary:
    """Vocabulary over an already-filtered corpus; |V| = 8 + 2 + 100 + #codes."""
    counts = Counter(e.code for p in patients for e in p.events)
    codes = list(counts)
    counts.update(GENDER_TOKENS[GENDERS.index(p.gender)] for p in patients)
    counts.update(f"[AGE_{min(max(p.age_years, 0), N_AGES - 1)}]" for p in patients)
    return Vocabulary(codes, counts)


def encode_history(
    p: PatientHistory,
    vocab: Vocabulary,
    H: int = 128,
    use_gender_age: bool = True,
) -> EncodedSample:
    """Encode one history into the fixed [CLS][GENDER][AGE][events][PAD] layout.

    Histories longer than ``H`` keep their most recent ``H`` events. Codes
    missing from the vocabulary become UNK (counted, never dropped, so the
    sequence length is stable). Ages outside 0..99 are clamped and flagged.
    With ``use_gender_age=False`` the two demographic slots hold reserved
    placeholder ids, keeping the sequence geometry unchanged.
    """
    total = 3 + H
    ids = np.zeros(total, dtype=np.int64)  # PAD_ID == 0
    age = p.age_years
    clamped = not (0 <= age <= N_AGES - 1)
    age = min(max(age, 0), N_AGES - 1)
    ids[0] = CLS_ID
    if use_gender_age:
        ids[1] = vocab.gender_id(p.gender)
        ids[2] = vocab.age_id(age)
    else:
        ids[1] = RES5_ID
        ids[2] = RES6_ID
    events = p.events[-H:] if len(p.events) > H else p.events
    unk = 0
    for i, e in enumerate(events):
        tid = vocab.code_id(e.code)
        if tid == UNK_ID:
            unk += 1
        ids[3 + i] = tid
    length = 3 + len(events)
    mask = np.zeros(total, dtype=np.int64)
    mask[:length] = 1
    return EncodedSample(ids, mask, length, unk_count=unk, age_clamped=clamped)


def decode_tokens(sample: EncodedSample, vocab: Vocabulary) -> list[str]:
    """Tokens at the non-PAD positions of an encoded sample, in order."""
    return [vocab.token(int(i)) for i in sample.token_ids[: sample.length]]


def group_visits(p: PatientHistory) -> list[Visit]:
    """Group consecutive same-day events into visits, preserving date order."""
    visits: list[Visit] = []
    for e in p.events:
        if visits and visits[-1].date == e.date:
            visits[-1].codes.append(e.code)
        else:
            visits.append(Visit(e.date, [e.code]))
    return visits
