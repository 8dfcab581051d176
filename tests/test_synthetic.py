"""Distributional checks on the synthetic generators.

These are seeded statistical tests: tolerances are several standard errors
wide at the sample sizes used, so failures mean a real property broke, not
an unlucky draw.
"""

import datetime as dt

import numpy as np
import pytest

from ehrseq.corpus import GENDERS, write_patients_jsonl
from ehrseq.icd import is_valid_code
from ehrseq.synthetic import (
    GeneratorConfig,
    InsuranceConfig,
    corpus_groups,
    generate_synthetic_corpus,
    generate_synthetic_insurance,
)


@pytest.fixture(scope="module")
def corpus3k():
    return generate_synthetic_corpus(seed=101, n_patients=3000, n_codes=200)


def immediate_repeat_fraction(patients):
    rep = tot = 0
    for p in patients:
        codes = p.codes()
        for i in range(1, len(codes)):
            tot += 1
            rep += codes[i] == codes[i - 1]
    return rep / tot


def test_deterministic_given_seed(tmp_path):
    a = generate_synthetic_corpus(seed=5, n_patients=80, n_codes=60)
    b = generate_synthetic_corpus(seed=5, n_patients=80, n_codes=60)
    assert a == b
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_patients_jsonl(a, pa)
    write_patients_jsonl(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = generate_synthetic_corpus(seed=6, n_patients=80, n_codes=60)
    assert a != c


def test_basic_shape(corpus3k):
    assert len(corpus3k) == 3000
    assert len({p.patient_id for p in corpus3k}) == 3000
    for p in corpus3k[:200]:
        assert p.gender in GENDERS
        assert 0 <= p.age_years <= 99
        assert len(p.events) >= 2
        dates = [e.date for e in p.events]
        assert dates == sorted(dates)
        for e in p.events:
            assert is_valid_code(e.code)


def test_mean_events_near_target(corpus3k):
    lens = [len(p.events) for p in corpus3k]
    assert abs(np.mean(lens) - 10.0) < 0.5
    assert max(lens) <= GeneratorConfig().max_events


def test_repeat_fraction_matches_knob(corpus3k):
    assert abs(immediate_repeat_fraction(corpus3k) - 0.3) < 0.02


def test_repeat_prob_one_degenerates():
    pats = generate_synthetic_corpus(
        seed=3, n_patients=100, n_codes=60, config=GeneratorConfig(repeat_prob=1.0)
    )
    for p in pats:
        assert len(set(p.codes())) == 1


def test_repeat_prob_zero_never_repeats():
    pats = generate_synthetic_corpus(
        seed=3, n_patients=300, n_codes=60, config=GeneratorConfig(repeat_prob=0.0)
    )
    assert immediate_repeat_fraction(pats) == 0.0


def test_group_layout_is_seed_free(corpus3k):
    groups = corpus_groups(200)
    all_codes = {c for g in groups for c in g.codes}
    assert len(all_codes) == 200
    used = {e.code for p in corpus3k for e in p.events}
    assert used <= all_codes


def test_age_windows_respected(corpus3k):
    groups = corpus_groups(200)
    late_only = [g for g in groups if g.age_low >= 50]
    assert late_only, "layout should contain at least one 50+ group"
    prefixes = {pref for g in late_only for pref in g.prefixes}
    for p in corpus3k:
        if p.age_years < 50:
            assert not any(e.code[:3] in prefixes for e in p.events), (
                f"{p.patient_id} aged {p.age_years} carries a 50+ group code"
            )


def test_visit_dates_move_forward(corpus3k):
    cfg = GeneratorConfig()
    for p in corpus3k[:100]:
        assert p.events[0].date >= cfg.start_date


@pytest.fixture(scope="module")
def setup():
    pats = generate_synthetic_corpus(seed=21, n_patients=2000, n_codes=200)
    apps = generate_synthetic_insurance(
        seed=22, patients=pats, n_apps=20000, months=12, risk_groups=["I25", "I21", "I20"]
    )
    return pats, apps


class TestInsurance:

    def test_claim_rate_calibrated(self, setup):
        _, apps = setup
        rate = np.mean([a.claim for a in apps])
        assert abs(rate - 0.03) < 0.006

    def test_months_and_ids(self, setup):
        _, apps = setup
        months = {a.month for a in apps}
        assert months == set(range(12))
        assert len({a.app_id for a in apps}) == len(apps)

    def test_anamnesis_sorted_distinct(self, setup):
        _, apps = setup
        n_empty = 0
        for a in apps[:2000]:
            assert a.anamnesis == sorted(set(a.anamnesis))
            n_empty += not a.anamnesis
        frac = n_empty / 2000
        assert abs(frac - 0.25) < 0.04

    def test_policy_fields_from_catalog(self, setup):
        _, apps = setup
        from ehrseq.synthetic import POLICY_CATALOG

        for a in apps[:500]:
            assert set(a.policy) == set(POLICY_CATALOG)
            for k, v in a.policy.items():
                assert v in POLICY_CATALOG[k]

    def test_risky_anamnesis_raises_claim_rate(self, setup):
        _, apps = setup
        risky = [a.claim for a in apps if any(c[:3] in ("I25", "I21", "I20") for c in a.anamnesis)]
        other = [a.claim for a in apps if not any(c[:3] in ("I25", "I21", "I20") for c in a.anamnesis)]
        assert len(risky) > 500 and len(other) > 500
        assert np.mean(risky) > 2.5 * np.mean(other)

    def test_null_config_shows_no_risk_effect(self):
        # with gamma, age slope and policy effects all zero, every application
        # has the same claim probability, so the risky/other split is noise
        pats = generate_synthetic_corpus(seed=31, n_patients=1500, n_codes=200)
        cfg = InsuranceConfig(
            gamma=0.0,
            age_slope=0.0,
            positive_rate=0.2,
            policy_effects={k: {vk: 0.0 for vk in v} for k, v in InsuranceConfig().policy_effects.items()},
        )
        apps = generate_synthetic_insurance(
            seed=32, patients=pats, n_apps=20000, months=6, risk_groups=["I25"], config=cfg
        )
        flags = np.array([any(c[:3] == "I25" for c in a.anamnesis) for a in apps])
        claims = np.array([a.claim for a in apps], dtype=float)
        diff = claims[flags].mean() - claims[~flags].mean()
        # 4 standard errors of the rate difference at p=0.2
        se = np.sqrt(0.2 * 0.8 * (1 / flags.sum() + 1 / (~flags).sum()))
        assert abs(diff) < 4 * se

    def test_late_codes_absent_before_cutoff(self):
        pats = generate_synthetic_corpus(seed=41, n_patients=1500, n_codes=200)
        cfg = InsuranceConfig(late_code_fraction=1.0, empty_anamnesis_prob=0.0)
        apps = generate_synthetic_insurance(
            seed=42, patients=pats, n_apps=8000, months=12, risk_groups=["I25", "I21", "I20"], config=cfg
        )
        cutoff = 6
        risk_prefixes = ("I25", "I21", "I20")
        early = [c for a in apps if a.month < cutoff for c in a.anamnesis]
        late = [c for a in apps if a.month >= cutoff for c in a.anamnesis]
        assert not any(c[:3] in risk_prefixes for c in early)
        assert any(c[:3] in risk_prefixes for c in late)

    def test_insurance_deterministic(self):
        pats = generate_synthetic_corpus(seed=51, n_patients=200, n_codes=60)
        a = generate_synthetic_insurance(seed=52, patients=pats, n_apps=500, months=4, risk_groups=["I25"])
        b = generate_synthetic_insurance(seed=52, patients=pats, n_apps=500, months=4, risk_groups=["I25"])
        assert a == b

    def test_rejects_bad_args(self):
        pats = generate_synthetic_corpus(seed=1, n_patients=10, n_codes=40)
        with pytest.raises(ValueError):
            generate_synthetic_insurance(seed=1, patients=pats, n_apps=10, months=1, risk_groups=[])
        with pytest.raises(ValueError):
            generate_synthetic_insurance(seed=1, patients=[], n_apps=10, months=4, risk_groups=[])
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=1, n_patients=0, n_codes=40)
        with pytest.raises(ValueError):
            corpus_groups(10)
