"""Agent persona sampling.

Each agent gets a demographic profile (gender, age) and Big Five trait scores
drawn from a correlated multivariate normal. Scores are categorized into
qualitative high/low levels against the distribution's theoretical median
(= the mean for a normal), which keeps labels independent of cohort
composition. Sampled scores are clamped to the [1, 7] instrument range.
"""

from __future__ import annotations

import typing

import numpy as np

TRAITS = ("extraversion", "agreeableness", "conscientiousness", "neuroticism", "openness")

SCORE_MIN = 1.0
SCORE_MAX = 7.0

AGE_MEAN = 28.5
AGE_SD = 9.54
AGE_MIN = 13

GENDERS = ("female", "male")
LEVELS = ("high", "low")


class BigFiveStats(typing.NamedTuple):
    """Population moments for trait sampling: means, sds, and a 5x5 correlation matrix."""

    means: tuple[float, ...]
    sds: tuple[float, ...]
    correlations: tuple[tuple[float, ...], ...]

    def covariance(self) -> np.ndarray:
        sds = np.asarray(self.sds, dtype=float)
        corr = np.asarray(self.correlations, dtype=float)
        return np.outer(sds, sds) * corr


def _default_correlations() -> tuple[tuple[float, ...], ...]:
    corr = np.eye(5)
    # the two significant pairwise correlations; all other off-diagonals are 0
    corr[0, 1] = corr[1, 0] = 0.184   # extraversion-agreeableness
    corr[0, 3] = corr[3, 0] = -0.236  # extraversion-neuroticism
    return tuple(tuple(row) for row in corr)


#: Survey moments used for cohort sampling (order: E, A, C, N, O).
DEFAULT_TRAIT_STATS = BigFiveStats(
    means=(4.02, 3.81, 4.14, 3.43, 4.52),
    sds=(1.18, 0.89, 0.99, 1.12, 1.07),
    correlations=_default_correlations(),
)


class AgentPersona(typing.NamedTuple):
    agent_id: int
    gender: str
    age: int
    big_five_scores: tuple[float, ...]
    big_five_labels: tuple[str, ...]


class Cohort:
    """A cohort that cannot change, held as columns indexed by agent id.

    `female` (n,) bool, `age` (n,) int, `scores` (n, 5) float64 and `high`
    (n, 5) bool, the high/low level of each score, in TRAITS order. Every
    column is made read-only, so cohorts can share columns; cohorts compare
    by identity. `cohort[i]` builds agent i's AgentPersona, and
    `persona_text(i)` renders its text once, for every cell sharing the
    cohort.
    """

    __slots__ = ("female", "age", "scores", "high", "_texts")

    def __init__(self, female: np.ndarray, age: np.ndarray, scores: np.ndarray,
                 high: np.ndarray):
        for column in (female, age, scores, high):
            column.flags.writeable = False
        self.female, self.age, self.scores, self.high = female, age, scores, high
        self._texts: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.age)

    def __getitem__(self, i: int) -> AgentPersona:
        i = range(len(self))[i]
        return AgentPersona(i, GENDERS[not self.female[i]], int(self.age[i]),
                            tuple(self.scores[i].tolist()),
                            tuple(LEVELS[not h] for h in self.high[i].tolist()))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def persona_text(self, i: int) -> str:
        """render_persona_text of agent i, rendered at the first call (two
        threads that race on it render the same text)."""
        text = self._texts.get(i)
        if text is None:
            text = self._texts[i] = render_persona_text(self[i])
        return text


def sample_personas(n: int, rng_seed: int = 0) -> Cohort:
    """Sample n personas deterministically for a given seed.

    Gender is a fair coin. Age is Gamma-distributed with mean 28.5 / sd 9.54
    (shape mu^2/sd^2, scale sd^2/mu), rounded half away from zero and clamped
    to a minimum of 13. Trait scores are drawn from the multivariate normal
    of DEFAULT_TRAIT_STATS, the survey moments, and clamped to [1, 7] after
    sampling; a score at or above its trait's mean is high.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)

    female = rng.random(n) < 0.5

    shape = AGE_MEAN**2 / AGE_SD**2
    scale = AGE_SD**2 / AGE_MEAN
    ages = np.floor(rng.gamma(shape, scale, size=n) + 0.5)
    ages = np.maximum(ages, AGE_MIN).astype(int)

    stats = DEFAULT_TRAIT_STATS
    means = np.asarray(stats.means, dtype=float)
    scores = rng.multivariate_normal(means, stats.covariance(), size=n, method="svd")
    np.clip(scores, SCORE_MIN, SCORE_MAX, out=scores)
    return Cohort(female, ages, scores, scores >= means)


def pin_trait(
    cohort: Cohort,
    trait: str,
    level: str,
    offset: float = 1.0,
) -> Cohort:
    """Force one trait to mean +/- offset*sd for every persona; other traits untouched.

    The pinned cohort copies the score and level columns and shares the others.
    A negative offset would put a `high` score below the mean, so it is refused.
    """
    if not offset >= 0:
        raise ValueError(f"pin offset must be >= 0, got {offset}")
    if trait not in TRAITS:
        raise ValueError(f"unknown trait {trait!r}; expected one of {TRAITS}")
    if level not in LEVELS:
        raise ValueError(f"level must be 'high' or 'low', got {level!r}")
    idx = TRAITS.index(trait)
    sign = 1.0 if level == "high" else -1.0
    scores, high = cohort.scores.copy(), cohort.high.copy()
    stats = DEFAULT_TRAIT_STATS
    scores[:, idx] = stats.means[idx] + sign * offset * stats.sds[idx]
    high[:, idx] = level == "high"
    return Cohort(cohort.female, cohort.age, scores, high)


def render_persona_text(persona: AgentPersona) -> str:
    """Stable qualitative description used in decision prompts."""
    traits = ", ".join(
        f"{label} {trait}" for trait, label in zip(TRAITS, persona.big_five_labels)
    )
    return (
        f"You are a {persona.age}-year-old {persona.gender} social media user. "
        f"Your personality shows {traits}."
    )


def save_personas(cohort: Cohort, path) -> None:
    """Write a cohort as tab-separated records (documented in the header line)."""
    genders = np.array(GENDERS)[(~cohort.female).astype(int)].tolist()
    labels = np.array(LEVELS)[(~cohort.high).astype(int)].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("agent_id\tgender\tage\t" + "\t".join(TRAITS) + "\t"
                 + "\t".join(f"{t}_label" for t in TRAITS) + "\n")
        for i, (gender, age, scores, levels) in enumerate(
                zip(genders, cohort.age.tolist(), cohort.scores.tolist(), labels)):
            fh.write(f"{i}\t{gender}\t{age}\t" + "\t".join(map(repr, scores)) + "\t"
                     + "\t".join(levels) + "\n")
