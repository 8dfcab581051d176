import datetime as dt
import json

import numpy as np
import pytest

from ehrseq import container
from ehrseq import corpus as C
from ehrseq.icd import InvalidCodeError, code_prefix, is_valid_code, normalize_code


def interrupted(items, after):
    """Yield ``after`` items, then fail as a crash mid-write would."""
    yield from items[:after]
    raise RuntimeError("write interrupted")


def mkpatient(pid, gender, age, codes, start="2015-03-01", step_days=7):
    d0 = dt.date.fromisoformat(start)
    events = [C.Event(d0 + dt.timedelta(days=i * step_days), c) for i, c in enumerate(codes)]
    return C.PatientHistory(pid, gender, age, events)


class TestNormalizeCode:
    def test_basic_forms(self):
        assert normalize_code("J06.9") == "J06.9"
        assert normalize_code("j069") == "J06.9"
        assert normalize_code(" i25 ") == "I25"
        assert normalize_code("s7201") == "S72.01"
        assert normalize_code("E10") == "E10"

    def test_idempotent(self):
        for raw in ["j069", "I25", "s72.01", "a00"]:
            once = normalize_code(raw)
            assert normalize_code(once) == once

    @pytest.mark.parametrize("bad", ["", "9X9", "JJ06", "J0", "J06.999", "J6", "06.9", "J06.", "Ж06"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InvalidCodeError):
            normalize_code(bad)
        assert not is_valid_code(bad)

    def test_prefix(self):
        assert code_prefix("J06.9") == "J06"
        assert code_prefix("I25") == "I25"


class TestVocabularyLayout:
    def test_reserved_and_offsets(self):
        v = C.Vocabulary(["J06.9", "A00.1", "I25"])
        assert v.id_for("[PAD]") == 0
        assert v.id_for("[MASK]") == 1
        assert v.id_for("[CLS]") == 2
        assert v.id_for("[SEP]") == 3
        assert v.id_for("[UNK]") == 4
        assert v.gender_id("M") == 8
        assert v.gender_id("F") == 9
        assert v.age_id(0) == 10
        assert v.age_id(99) == 109
        # ICD block starts right after the ages, sorted lexicographically
        assert v.id_for("A00.1") == 110
        assert v.id_for("I25") == 111
        assert v.id_for("J06.9") == 112
        assert v.n_icd == 3
        assert len(v) == 8 + 2 + 100 + 3

    def test_size_formula(self):
        codes = [f"A{i:02d}.{j}" for i in range(40) for j in range(4)]
        v = C.Vocabulary(codes)
        assert len(v) == 110 + 160
        assert list(v.icd_ids) == list(range(110, 110 + 160))

    def test_order_independent_of_frequency(self):
        a = C.Vocabulary(["B01", "A01"], counts={"B01": 999, "A01": 1})
        b = C.Vocabulary(["A01", "B01"], counts={"A01": 7})
        assert a.entries == b.entries

    def test_unknown_code_maps_to_unk(self):
        v = C.Vocabulary(["J06.9"])
        assert v.code_id("J06.9") == 110
        assert v.code_id("Z99.9") == C.UNK_ID

    def test_is_icd_id(self):
        v = C.Vocabulary(["J06.9"])
        assert v.is_icd_id(110)
        assert not v.is_icd_id(109)
        assert not v.is_icd_id(C.UNK_ID)

    def test_empty_code_set_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            C.Vocabulary([])

    def test_roundtrip_through_file(self, tmp_path):
        pats = [
            mkpatient("p1", "M", 30, ["J06.9", "J06.9", "I25"]),
            mkpatient("p2", "F", 64, ["I25", "A00.1"]),
        ]
        v = C.build_vocabulary(pats)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        w = C.Vocabulary.load(path)
        assert w.entries == v.entries
        assert w.counts == v.counts
        assert w.sha256() == v.sha256()
        assert v.counts["J06.9"] == 2
        assert v.counts["[MALE]"] == 1
        assert v.counts["[AGE_64]"] == 1

    def test_load_rejects_wrong_order(self, tmp_path):
        v = C.Vocabulary(["A01", "B02"])
        lines = v.to_bytes().decode().splitlines()
        # swap the two ICD lines -> no longer canonical
        lines[-1], lines[-2] = lines[-2], lines[-1]
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="canonical"):
            C.Vocabulary.load(path)

    def test_load_rejects_truncated(self, tmp_path):
        v = C.Vocabulary(["A01", "B02"])
        text = v.to_bytes().decode().splitlines()[:-3]
        path = tmp_path / "short.tsv"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError):
            C.Vocabulary.load(path)


class TestWritersLeaveNoHalfFile:
    PATIENTS = [mkpatient("p1", "M", 30, ["J06.9", "I25"]), mkpatient("p2", "F", 80, ["A00"])]
    RECORDS = [C.ApplicationRecord("a1", 3, "M", 44, ["I25"], {"region": "north"}, 1),
               C.ApplicationRecord("a2", 0, "F", 29, [], {"region": "south"}, 0)]

    def test_patients_jsonl_failure_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        C.write_patients_jsonl(self.PATIENTS[:1], path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            C.write_patients_jsonl(interrupted(self.PATIENTS, 1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_patients_jsonl_failure_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="interrupted"):
            C.write_patients_jsonl(interrupted(self.PATIENTS, 1), tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_insurance_jsonl_failure_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "apps.jsonl"
        C.write_insurance_jsonl(self.RECORDS[1:], path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            C.write_insurance_jsonl(interrupted(self.RECORDS, 1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["apps.jsonl"]

    def test_vocabulary_save_failure_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.tsv"
        C.build_vocabulary(self.PATIENTS[:1]).save(path)
        before = path.read_bytes()

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(container.os, "fsync", no_space)  # the new bytes are written, not yet renamed
        with pytest.raises(OSError, match="No space"):
            C.build_vocabulary(self.PATIENTS).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.tsv"]

    def test_atomic_write_rejects_other_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with container.atomic_write(tmp_path / "x", "a"):
                pass
        assert list(tmp_path.iterdir()) == []


class TestIngest:
    def test_skips_malformed_lines(self, tmp_path):
        good = {
            "patient_id": "p1", "gender": "M", "age": 40,
            "events": [{"date": "2015-01-01", "icd": "j069"}, {"date": "2015-02-01", "icd": "I25"}],
        }
        lines = []
        for i in range(9):
            obj = dict(good)
            obj["patient_id"] = f"p{i}"
            lines.append(json.dumps(obj))
        lines.insert(4, '{"patient_id": "bad", "gender": "X"')  # truncated JSON
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")

        res = C.ingest_corpus(path)
        assert len(res.patients) == 9
        assert res.skipped == 1
        assert res.errors and "line 5" in res.errors[0]
        # codes come out normalized
        assert res.patients[0].events[0].code == "J06.9"

    def test_bad_gender_and_bad_code_skipped(self, tmp_path):
        rows = [
            {"patient_id": "a", "gender": "M", "age": 1,
             "events": [{"date": "2015-01-01", "icd": "A00"}]},
            {"patient_id": "b", "gender": "unknown", "age": 2, "events": []},
            {"patient_id": "c", "gender": "F", "age": 3,
             "events": [{"date": "2015-01-01", "icd": "notacode"}]},
        ]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        res = C.ingest_corpus(path)
        assert len(res.patients) == 1 and res.skipped == 2

    def test_strict_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            C.ingest_corpus(path, strict=True)

    def test_events_sorted_by_date(self, tmp_path):
        obj = {
            "patient_id": "p", "gender": "F", "age": 50,
            "events": [
                {"date": "2016-05-01", "icd": "B01"},
                {"date": "2015-01-01", "icd": "A01"},
                {"date": "2015-06-01", "icd": "C01"},
            ],
        }
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        res = C.ingest_corpus(path)
        assert [e.code for e in res.patients[0].events] == ["A01", "C01", "B01"]

    def test_patient_jsonl_roundtrip(self, tmp_path):
        pats = [mkpatient("p1", "M", 30, ["J06.9", "I25"]), mkpatient("p2", "F", 80, ["A00"])]
        path = tmp_path / "out.jsonl"
        n = C.write_patients_jsonl(pats, path)
        assert n == 2
        res = C.ingest_corpus(path)
        assert res.skipped == 0
        assert res.patients == pats

    def test_insurance_jsonl_roundtrip(self, tmp_path):
        recs = [
            C.ApplicationRecord("a1", 3, "M", 44, ["I25", "J06.9"],
                                {"product_type": "health", "currency": "USD",
                                 "region": "north", "sum_band": "s2", "term_band": "t1"}, 1),
            C.ApplicationRecord("a2", 0, "F", 29, [], {"product_type": "travel",
                                 "currency": "EUR", "region": "south",
                                 "sum_band": "s1", "term_band": "t2"}, 0),
        ]
        path = tmp_path / "apps.jsonl"
        C.write_insurance_jsonl(recs, path)
        back, skipped, errors = C.read_insurance_jsonl(path)
        assert (skipped, errors) == (0, [])
        assert back == recs

    def test_insurance_line_with_bad_fields_is_skipped(self, tmp_path):
        line = {"app_id": 7, "month": 1, "gender": "U", "age": -40, "anamnesis": [],
                "policy": {"region": 5}, "claim": 3}
        path = tmp_path / "apps.jsonl"
        path.write_text(json.dumps(line) + "\n")
        assert C.read_insurance_jsonl(path) == ([], 1, ["line 1: app_id: expected a non-empty string"])

    @pytest.mark.parametrize("month, claim, field", [
        (-1, 0, "month"), ("1", 0, "month"), (None, 0, "month"), (1.0, 0, "month"),
        (0, 3, "claim"), (0, True, "claim"), (0, None, "claim"), (0, "1", "claim"),
    ])
    def test_labelled_line_needs_month_and_claim(self, tmp_path, month, claim, field):
        obj = {"app_id": "a1", "gender": "F", "age": 30, "month": month, "claim": claim}
        obj = {k: v for k, v in obj.items() if v is not None}
        path = tmp_path / "apps.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        records, skipped, errors = C.read_insurance_jsonl(path)
        assert (records, skipped) == ([], 1) and errors[0].startswith(f"line 1: {field}:")
        with pytest.raises(ValueError, match=f"malformed application record: {field}:"):
            C.read_insurance_jsonl(path, strict=True)
        # a scoring request carries neither field
        rec = C.parse_application(obj, labelled=False)
        assert (rec.month, rec.claim) == (0, 0)


class TestFilterCorpus:
    def test_removes_rare_codes_and_short_histories(self):
        pats = [
            mkpatient("p1", "M", 30, ["A01", "A01", "B02"]),
            mkpatient("p2", "F", 40, ["A01", "B02", "C03"]),
            mkpatient("p3", "M", 50, ["A01"]),
        ]
        kept, stats = C.filter_corpus(pats, min_code_freq=2, min_events=2)
        # C03 appears once -> removed; p2 still has 2 events; p3 too short
        assert [p.patient_id for p in kept] == ["p1", "p2"]
        assert stats.removed_codes == 1
        assert stats.dropped_patients == 1
        assert {e.code for p in kept for e in p.events} == {"A01", "B02"}

    def test_cascade_until_fixed_point(self):
        # dropping p1 (loses its only frequent-enough partner) starves X,
        # which then drops p2 as well
        pats = [
            mkpatient("p1", "M", 20, ["X01", "Y01"]),
            mkpatient("p2", "F", 30, ["X01", "Z01"]),
            mkpatient("p3", "M", 40, ["Z01", "Z01"]),
        ]
        kept, stats = C.filter_corpus(pats, min_code_freq=2, min_events=2)
        assert [p.patient_id for p in kept] == ["p3"]
        assert stats.removed_codes == 2  # Y01 then X01
        assert stats.dropped_patients == 2
        assert stats.passes >= 2

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        codes = [f"A{i:02d}" for i in range(30)]
        pats = []
        for i in range(200):
            k = int(rng.integers(1, 9))
            cs = [codes[int(rng.integers(len(codes)))] for _ in range(k)]
            pats.append(mkpatient(f"p{i}", "M" if i % 2 else "F", int(rng.integers(0, 99)), cs))
        once, stats1 = C.filter_corpus(pats, min_code_freq=5, min_events=2)
        twice, stats2 = C.filter_corpus(once, min_code_freq=5, min_events=2)
        assert twice == once
        assert stats2.removed_codes == 0 and stats2.dropped_patients == 0

    def test_stats_counts(self):
        pats = [mkpatient("p1", "M", 10, ["A01", "A01", "A01"])]
        kept, stats = C.filter_corpus(pats, min_code_freq=1, min_events=1)
        assert stats.n_patients == 1
        assert stats.n_codes == 1
        assert stats.n_events == 3
        assert stats.mean_events == 3.0


class TestEncodeHistory:
    @pytest.fixture
    def vocab(self):
        return C.Vocabulary([f"A{i:02d}" for i in range(10)] + ["J06.9"])

    def test_layout(self, vocab):
        p = mkpatient("p", "F", 42, ["A01", "A02", "J06.9"])
        s = C.encode_history(p, vocab, H=6)
        assert s.token_ids.shape == (9,)
        assert s.token_ids[0] == C.CLS_ID
        assert s.token_ids[1] == vocab.gender_id("F")
        assert s.token_ids[2] == vocab.age_id(42)
        assert [vocab.token(int(t)) for t in s.token_ids[3:6]] == ["A01", "A02", "J06.9"]
        assert s.length == 6
        np.testing.assert_array_equal(s.attention_mask, [1, 1, 1, 1, 1, 1, 0, 0, 0])
        assert s.token_ids[6:].tolist() == [C.PAD_ID] * 3
        assert s.unk_count == 0 and not s.age_clamped

    def test_truncation_keeps_most_recent(self, vocab):
        codes = [f"A{i % 10:02d}" for i in range(200)]
        p = mkpatient("p", "M", 30, codes, step_days=1)
        s = C.encode_history(p, vocab, H=128)
        assert s.length == 3 + 128
        kept = [vocab.token(int(t)) for t in s.token_ids[3 : 3 + 128]]
        assert kept == codes[72:]  # events 73..200, 1-indexed

    def test_unk_counted_not_dropped(self, vocab):
        p = mkpatient("p", "M", 10, ["A01", "Z99.9", "A02"])
        s = C.encode_history(p, vocab, H=8)
        assert s.unk_count == 1
        assert s.token_ids[4] == C.UNK_ID
        assert s.length == 6  # UNK keeps its slot

    def test_age_clamping(self, vocab):
        old = C.encode_history(mkpatient("p", "M", 120, ["A01", "A02"]), vocab, H=4)
        assert old.token_ids[2] == vocab.age_id(99) and old.age_clamped
        neg = C.encode_history(mkpatient("p", "F", -3, ["A01", "A02"]), vocab, H=4)
        assert neg.token_ids[2] == vocab.age_id(0) and neg.age_clamped

    def test_without_demographics(self, vocab):
        p = mkpatient("p", "F", 42, ["A01", "A02"])
        s = C.encode_history(p, vocab, H=4, use_gender_age=False)
        assert s.token_ids[0] == C.CLS_ID
        assert s.token_ids[1] == C.RES5_ID
        assert s.token_ids[2] == C.RES6_ID
        assert s.length == 5

    def test_decode(self, vocab):
        p = mkpatient("p", "M", 7, ["A03", "A04"])
        s = C.encode_history(p, vocab, H=4)
        assert C.decode_tokens(s, vocab) == ["[CLS]", "[MALE]", "[AGE_7]", "A03", "A04"]


class TestGroupVisits:
    def test_same_day_events_share_a_visit(self):
        d = dt.date(2016, 1, 1)
        p = C.PatientHistory("p", "M", 30, [
            C.Event(d, "A01"), C.Event(d, "B02"),
            C.Event(d + dt.timedelta(days=3), "C03"),
            C.Event(d + dt.timedelta(days=3), "A01"),
            C.Event(d + dt.timedelta(days=9), "D04"),
        ])
        visits = C.group_visits(p)
        assert [v.codes for v in visits] == [["A01", "B02"], ["C03", "A01"], ["D04"]]
        # partition property: every event lands in exactly one visit, in order
        flat = [c for v in visits for c in v.codes]
        assert flat == p.codes()
