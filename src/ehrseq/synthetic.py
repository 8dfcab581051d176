"""Seeded synthetic data: patient-history corpora and insurance applications.

The corpus generator draws patients with latent disease groups. Each group
owns a family of 3-character code prefixes, an age window outside which it is
never emitted, and a gender affinity. Within a group, codes follow a skewed
(Zipf) distribution, and consecutive events repeat the previous code with
probability ``repeat_prob``; non-repeat draws always pick a different code,
so the immediate-repeat rate of a corpus matches ``repeat_prob``.

The insurance generator turns corpus patients into applications whose claim
probability is logistic in the policy features, age, and whether the declared
anamnesis intersects a set of risky code prefixes. A configurable slice of
risky codes appears in anamneses only from a cutoff month on, which makes the
late evaluation months contain codes never seen during early (training)
months.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .corpus import GENDERS, ApplicationRecord, Event, PatientHistory
from .icd import code_prefix

_PREFIX_FAMILIES = [
    ("J06", "J04", "J20"),
    ("I25", "I21", "I20"),
    ("C34", "C78", "C79"),
    ("M41", "M42", "M54"),
    ("F20", "F25", "F29"),
    ("K29", "K52", "K59"),
    ("L60", "L70", "L73"),
    ("S72", "S82", "S42"),
    ("E10", "E11", "E14"),
    ("H10", "H25", "H52"),
    ("N20", "N30", "N39"),
    ("G40", "G43", "G47"),
]
_AGE_WINDOWS = [
    (0, 99), (0, 39), (10, 59), (20, 79), (30, 99), (40, 89),
    (50, 99), (60, 99), (0, 49), (25, 74), (35, 99), (15, 64),
]
_FEMALE_SHARES = [0.5, 0.35, 0.65, 0.45, 0.55, 0.3, 0.7, 0.5, 0.4, 0.6, 0.5, 0.45]
_ZIPF_S = 2.0  # exponent of the within-group code distribution
_GROUP_COUNT_PROBS = (0.5, 0.35, 0.15)  # a patient has 1, 2 or 3 groups
_VISIT_SIZE_PROBS = (0.5, 0.3, 0.2)  # a visit has 1, 2 or 3 codes


@dataclass(frozen=True)
class GroupSpec:
    name: str
    prefixes: tuple[str, ...]
    codes: tuple[str, ...]
    age_low: int
    age_high: int
    female_share: float


@dataclass
class GeneratorConfig:
    """Knobs of the corpus generator; defaults target a mid-size desk corpus."""

    mean_events: float = 10.0
    repeat_prob: float = 0.3
    max_events: int = 40
    start_date: dt.date = dt.date(2014, 1, 1)

    def validate(self) -> None:
        if not (0.0 <= self.repeat_prob <= 1.0):
            raise ValueError(f"repeat_prob must be in [0, 1], got {self.repeat_prob}")
        if self.mean_events < 2:
            raise ValueError("mean_events must be >= 2")
        if self.max_events < 2:
            raise ValueError("max_events must be >= 2")


def corpus_groups(n_codes: int) -> list[GroupSpec]:
    """Resolve the latent group layout for a given code budget.

    Deterministic in ``n_codes``: groups, their prefixes, age windows and the
    per-group code lists do not depend on the seed.
    """
    if n_codes < 20:
        raise ValueError("n_codes must be >= 20")
    n_groups = min(len(_PREFIX_FAMILIES), max(2, n_codes // 25))
    per = [n_codes // n_groups + (1 if g < n_codes % n_groups else 0) for g in range(n_groups)]
    groups = []
    for g in range(n_groups):
        prefixes = _PREFIX_FAMILIES[g]
        codes = tuple(
            f"{prefixes[j % len(prefixes)]}.{j // len(prefixes)}" for j in range(per[g])
        )
        lo, hi = _AGE_WINDOWS[g % len(_AGE_WINDOWS)]
        groups.append(
            GroupSpec(
                name=f"group{g}",
                prefixes=prefixes,
                codes=codes,
                age_low=lo,
                age_high=hi,
                female_share=_FEMALE_SHARES[g % len(_FEMALE_SHARES)],
            )
        )
    return groups


def _zipf_pmf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def generate_synthetic_corpus(
    seed: int,
    n_patients: int,
    n_codes: int = 200,
    config: GeneratorConfig | None = None,
) -> list[PatientHistory]:
    """Generate a deterministic corpus of patient histories."""
    if n_patients < 1:
        raise ValueError("n_patients must be >= 1")
    cfg = config or GeneratorConfig()
    cfg.validate()
    groups = corpus_groups(n_codes)
    pmfs = [_zipf_pmf(len(g.codes), _ZIPF_S) for g in groups]
    rng = np.random.default_rng(seed)
    patients: list[PatientHistory] = []
    for i in range(n_patients):
        gender = GENDERS[int(rng.random() < 0.5)]
        age = int(rng.integers(0, 100))
        eligible = [gi for gi, g in enumerate(groups) if g.age_low <= age <= g.age_high]
        if not eligible:
            eligible = [0]
        k = int(rng.choice(len(_GROUP_COUNT_PROBS), p=_GROUP_COUNT_PROBS)) + 1
        k = min(k, len(eligible))
        affinity = np.array(
            [groups[gi].female_share if gender == "F" else 1.0 - groups[gi].female_share
             for gi in eligible]
        )
        affinity /= affinity.sum()
        chosen = rng.choice(eligible, size=k, replace=False, p=affinity)
        chosen = [int(c) for c in chosen]

        n_events = min(cfg.max_events, 2 + int(rng.poisson(max(cfg.mean_events - 2.0, 0.0))))
        codes: list[str] = []
        last: str | None = None
        for _ in range(n_events):
            if last is not None and rng.random() < cfg.repeat_prob:
                codes.append(last)
                continue
            code = last
            for _ in range(100):  # non-repeat draws exclude the previous code
                gi = chosen[int(rng.integers(len(chosen)))] if len(chosen) > 1 else chosen[0]
                code = groups[gi].codes[int(rng.choice(len(pmfs[gi]), p=pmfs[gi]))]
                if code != last:
                    break
            codes.append(code)
            last = code

        day = cfg.start_date + dt.timedelta(days=int(rng.integers(0, 1500)))
        events: list[Event] = []
        pos = 0
        while pos < len(codes):
            size = int(rng.choice(len(_VISIT_SIZE_PROBS), p=_VISIT_SIZE_PROBS)) + 1
            for c in codes[pos : pos + size]:
                events.append(Event(day, c))
            pos += size
            day = day + dt.timedelta(days=int(rng.integers(1, 60)))
        patients.append(PatientHistory(f"p{i:06d}", gender, age, events))
    return patients


# ---------------------------------------------------------------------------
# Insurance applications
# ---------------------------------------------------------------------------

POLICY_CATALOG: dict[str, dict[str, float]] = {
    "product_type": {"term_life": 0.0, "whole_life": 0.25, "accident": 0.5,
                     "health": 0.3, "travel": -0.4},
    "currency": {"USD": 0.0, "EUR": -0.1, "RUB": 0.15},
    "region": {"north": 0.1, "south": -0.05, "east": 0.0, "west": 0.05, "capital": -0.15},
    "sum_band": {"s1": -0.3, "s2": 0.0, "s3": 0.2, "s4": 0.45},
    "term_band": {"t1": -0.1, "t2": 0.0, "t3": 0.15},
}


@dataclass
class InsuranceConfig:
    positive_rate: float = 0.03
    gamma: float = 1.5
    empty_anamnesis_prob: float = 0.25
    late_code_fraction: float = 0.3
    cutoff_month: int | None = None  # default: months // 2
    age_slope: float = 0.1  # logits per decade above age 50
    risk_age_gate: int | None = None  # risk codes add to the logit only at this age or older
    policy_effects: dict[str, dict[str, float]] = field(
        default_factory=lambda: {k: dict(v) for k, v in POLICY_CATALOG.items()}
    )

    def validate(self) -> None:
        if not (0.0 < self.positive_rate < 0.5):
            raise ValueError("positive_rate must be in (0, 0.5)")
        if not (0.0 <= self.late_code_fraction <= 1.0):
            raise ValueError("late_code_fraction must be in [0, 1]")
        if not (0.0 <= self.empty_anamnesis_prob <= 1.0):
            raise ValueError("empty_anamnesis_prob must be in [0, 1]")
        if self.risk_age_gate is not None and not (0 <= self.risk_age_gate <= 99):
            raise ValueError("risk_age_gate must be in [0, 99] or None")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def generate_synthetic_insurance(
    seed: int,
    patients: list[PatientHistory],
    n_apps: int,
    months: int,
    risk_groups: list[str],
    config: InsuranceConfig | None = None,
) -> list[ApplicationRecord]:
    """Generate application records whose claim risk depends on the anamnesis.

    ``risk_groups`` is a list of 3-character code prefixes; every distinct
    observed code from those families adds ``gamma`` to the claim logit, so
    risk grows with the recorded disease burden. With ``risk_age_gate`` set
    the burden term applies only to applicants at that age or older, an
    age-conditional effect a purely additive feature set cannot express.
    A catalog-wide sample of codes is marked "late": those codes are
    stripped from anamneses
    (and therefore from the observed-risk logit) before ``cutoff_month``, the
    way newly introduced codes only show up in recent applications. The
    intercept is calibrated so the overall claim rate matches
    ``positive_rate``.
    """
    if months < 2:
        raise ValueError("months must be >= 2")
    if not patients:
        raise ValueError("patients list must be non-empty")
    cfg = config or InsuranceConfig()
    cfg.validate()
    cutoff = months // 2 if cfg.cutoff_month is None else cfg.cutoff_month

    corpus_codes = sorted({e.code for p in patients for e in p.events})
    risk_set = {c for c in corpus_codes if code_prefix(c) in set(risk_groups)}
    rng = np.random.default_rng(seed)
    late: set[str] = set()
    if corpus_codes and cfg.late_code_fraction > 0:
        n_late = max(1, int(round(len(corpus_codes) * cfg.late_code_fraction)))
        late = set(rng.choice(corpus_codes, size=n_late, replace=False).tolist())

    catalogs = {k: sorted(v) for k, v in cfg.policy_effects.items()}
    records: list[ApplicationRecord] = []
    logits = np.zeros(n_apps)
    for i in range(n_apps):
        p = patients[int(rng.integers(len(patients)))]
        month = int(rng.integers(months))
        policy = {k: catalogs[k][int(rng.integers(len(catalogs[k])))] for k in catalogs}
        if rng.random() < cfg.empty_anamnesis_prob:
            anamnesis: list[str] = []
        else:
            anamnesis = sorted({e.code for e in p.events})
            if month < cutoff and late:
                anamnesis = [c for c in anamnesis if c not in late]
        z = sum(cfg.policy_effects[k][v] for k, v in policy.items())
        z += cfg.age_slope * (p.age_years - 50) / 10.0
        if cfg.risk_age_gate is None or p.age_years >= cfg.risk_age_gate:
            z += cfg.gamma * sum(c in risk_set for c in anamnesis)
        logits[i] = z
        records.append(
            ApplicationRecord(
                app_id=f"a{i:06d}",
                month=month,
                gender=p.gender,
                age_years=p.age_years,
                anamnesis=anamnesis,
                policy=policy,
                claim=0,
            )
        )

    # calibrate the intercept so the mean claim probability hits the target
    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _sigmoid(logits + mid).mean() > cfg.positive_rate:
            hi = mid
        else:
            lo = mid
    probs = _sigmoid(logits + 0.5 * (lo + hi))
    draws = rng.random(n_apps)
    for r, p_claim, u in zip(records, probs, draws):
        r.claim = int(u < p_claim)
    return records
