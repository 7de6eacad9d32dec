import re

import numpy as np
import pytest

from newssim.persona import (
    AGE_MEAN,
    AGE_SD,
    DEFAULT_TRAIT_STATS,
    TRAITS,
    AgentPersona,
    pin_trait,
    render_persona_text,
    sample_personas,
    save_personas,
)


def test_gamma_parameterization_recovers_moments():
    # oracle: method-of-moments shape/scale solved directly from mu and sd
    k = AGE_MEAN**2 / AGE_SD**2
    theta = AGE_SD**2 / AGE_MEAN
    assert k == pytest.approx(8.924687, abs=1e-5)
    assert theta == pytest.approx(3.193389, abs=1e-5)
    draws = np.random.default_rng(11).gamma(k, theta, size=100_000)
    assert draws.mean() == pytest.approx(AGE_MEAN, rel=0.01)
    assert draws.std() == pytest.approx(AGE_SD, rel=0.01)


def test_moment_recovery_at_1e5():
    personas = sample_personas(100_000, rng_seed=5)
    scores = np.array([p.big_five_scores for p in personas])
    means = np.asarray(DEFAULT_TRAIT_STATS.means)
    sds = np.asarray(DEFAULT_TRAIT_STATS.sds)
    assert np.all(np.abs(scores.mean(axis=0) - means) <= 0.02 * means)
    assert np.all(np.abs(scores.std(axis=0) - sds) <= 0.03 * sds)
    corr_ea = np.corrcoef(scores[:, 0], scores[:, 1])[0, 1]
    corr_en = np.corrcoef(scores[:, 0], scores[:, 3])[0, 1]
    assert corr_ea == pytest.approx(0.184, abs=0.03)
    assert corr_en == pytest.approx(-0.236, abs=0.03)


def test_age_distribution_and_floor():
    personas = sample_personas(100_000, rng_seed=5)
    ages = np.array([p.age for p in personas])
    assert 28.0 <= ages.mean() <= 29.0
    assert 9.2 <= ages.std() <= 9.9
    assert ages.min() >= 13


def test_gender_split_at_1e5():
    personas = sample_personas(100_000, rng_seed=5)
    frac_female = sum(p.gender == "female" for p in personas) / len(personas)
    assert 0.494 <= frac_female <= 0.506


def test_determinism_bit_for_bit():
    a = sample_personas(500, rng_seed=77)
    b = sample_personas(500, rng_seed=77)
    assert list(a) == list(b)
    c = sample_personas(500, rng_seed=78)
    assert list(a) != list(c)


def reference_cohort(n, rng_seed):
    """Row-by-row build over the same draws as sample_personas.

    Each score is labelled against its trait's mean one at a time, a tie
    labelling high.
    """
    stats = DEFAULT_TRAIT_STATS
    rng = np.random.default_rng(rng_seed)
    genders = np.where(rng.random(n) < 0.5, "female", "male")
    ages = np.floor(rng.gamma(AGE_MEAN**2 / AGE_SD**2, AGE_SD**2 / AGE_MEAN, size=n) + 0.5)
    ages = np.maximum(ages, 13).astype(int)
    scores = rng.multivariate_normal(np.asarray(stats.means), stats.covariance(), size=n,
                                     method="svd")
    scores = np.clip(scores, 1.0, 7.0)
    cohort = []
    for i in range(n):
        row = tuple(float(x) for x in scores[i])
        labels = tuple("high" if s >= m else "low" for s, m in zip(row, stats.means))
        cohort.append(AgentPersona(agent_id=i, gender=str(genders[i]), age=int(ages[i]),
                                   big_five_scores=row, big_five_labels=labels))
    return cohort


@pytest.mark.parametrize("n", [1, 37, 300])
@pytest.mark.parametrize("seed", [1, 5, 99])
def test_sample_equals_row_by_row_reference(n, seed):
    cohort = sample_personas(n, rng_seed=seed)
    assert list(cohort) == reference_cohort(n, seed)
    p = cohort[-1]
    assert type(p.gender) is str and type(p.age) is int
    assert all(type(x) is float for x in p.big_five_scores)


def test_scores_clamped_and_labels_consistent():
    personas = sample_personas(5000, rng_seed=3)
    means = DEFAULT_TRAIT_STATS.means
    for p in personas:
        for i, s in enumerate(p.big_five_scores):
            assert 1.0 <= s <= 7.0
            assert p.big_five_labels[i] == ("high" if s >= means[i] else "low")


def test_default_trait_stats_are_valid_moments():
    stats = DEFAULT_TRAIT_STATS
    means, sds = np.asarray(stats.means), np.asarray(stats.sds)
    corr = np.asarray(stats.correlations)
    assert means.shape == sds.shape == (len(TRAITS),) and corr.shape == (len(TRAITS),) * 2
    assert np.all(np.isfinite(means)) and np.all(sds > 0)
    assert np.array_equal(corr, corr.T) and np.all(np.diag(corr) == 1.0)
    assert np.min(np.linalg.eigvalsh(corr)) >= 0
    assert np.allclose(stats.covariance(), np.outer(sds, sds) * corr)


def test_default_cohort_reproduces_the_survey_correlations():
    expected = np.eye(5)
    expected[0, 1] = expected[1, 0] = 0.184  # extraversion-agreeableness
    expected[0, 3] = expected[3, 0] = -0.236  # extraversion-neuroticism
    scores = sample_personas(30_000, rng_seed=9).scores
    assert np.max(np.abs(np.corrcoef(scores.T) - expected)) < 0.02


def test_pin_trait_arithmetic():
    personas = sample_personas(50, rng_seed=1)
    o_idx = TRAITS.index("openness")
    n_idx = TRAITS.index("neuroticism")

    high_o = pin_trait(personas, "openness", "high", offset=1.0)
    assert all(p.big_five_scores[o_idx] == pytest.approx(5.59) for p in high_o)
    assert all(p.big_five_labels[o_idx] == "high" for p in high_o)

    low_n = pin_trait(personas, "neuroticism", "low", offset=1.0)
    assert all(p.big_five_scores[n_idx] == pytest.approx(2.31) for p in low_n)
    assert all(p.big_five_labels[n_idx] == "low" for p in low_n)

    # other traits untouched
    for before, after in zip(personas, high_o):
        for i in range(5):
            if i != o_idx:
                assert before.big_five_scores[i] == after.big_five_scores[i]

    zero = pin_trait(personas, "openness", "high", offset=0.0)
    assert all(p.big_five_scores[o_idx] == pytest.approx(4.52) for p in zero)
    assert all(p.big_five_labels[o_idx] == "high" for p in zero)


def test_pin_trait_rejects_unknown():
    personas = sample_personas(3, rng_seed=1)
    with pytest.raises(ValueError):
        pin_trait(personas, "bravery", "high")
    with pytest.raises(ValueError):
        pin_trait(personas, "openness", "medium")


def test_pin_trait_rejects_a_negative_offset():
    # offset -1 would put a `high` openness at 3.45, below the 4.52 mean
    personas = sample_personas(3, rng_seed=1)
    with pytest.raises(ValueError, match="pin offset must be >= 0, got -1"):
        pin_trait(personas, "openness", "high", offset=-1)


def test_render_mentions_each_label_once():
    p = AgentPersona(
        agent_id=0, gender="female", age=31,
        big_five_scores=(5.0, 5.0, 5.0, 5.0, 5.0),
        big_five_labels=("high",) * 5,
    )
    text = render_persona_text(p)
    assert "female" in text and "31" in text
    for trait in TRAITS:
        assert text.count(f"high {trait}") == 1


def test_render_deterministic_and_invertible():
    a, b = sample_personas(2, rng_seed=4)
    assert render_persona_text(a) == render_persona_text(a)
    for p in (a, b):
        text = render_persona_text(p)
        parsed = tuple(
            m.group(1) for m in re.finditer(r"(high|low) (\w+)", text)
        )
        assert parsed == p.big_five_labels


def test_a_cohort_renders_each_persona_text_once(monkeypatch):
    from newssim import persona

    cohort = sample_personas(5, rng_seed=2)
    pinned = pin_trait(cohort, "openness", "low")
    rendered = []
    monkeypatch.setattr(persona, "render_persona_text",
                        lambda p: rendered.append(p.agent_id) or render_persona_text(p))
    for _ in range(2):
        for c in (cohort, pinned):
            assert [c.persona_text(i) for i in range(5)] == [render_persona_text(p) for p in c]
    assert rendered == [*range(5), *range(5)]  # once per agent of each cohort
    assert all("low openness" in pinned.persona_text(i) for i in range(5))


def test_save_personas_writes_header_and_one_row_per_agent(tmp_path):
    personas = sample_personas(40, rng_seed=13)
    path = tmp_path / "cohort.tsv"
    save_personas(personas, path)
    header, *rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert header == ["agent_id", "gender", "age", *TRAITS, *(f"{t}_label" for t in TRAITS)]
    written = [(int(r[0]), r[1], int(r[2]), tuple(map(float, r[3:8])), tuple(r[8:])) for r in rows]
    assert written == [(p.agent_id, p.gender, p.age, p.big_five_scores, p.big_five_labels)
                       for p in personas]


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_personas(0, rng_seed=1)
