"""Agent persona sampling.

Each agent gets a demographic profile (gender, age) and Big Five trait scores
drawn from a correlated multivariate normal. Scores are categorized into
qualitative high/low levels against the distribution's theoretical median
(= the mean for a normal), which keeps labels independent of cohort
composition. Sampled scores are clamped to the [1, 7] instrument range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

TRAITS = ("extraversion", "agreeableness", "conscientiousness", "neuroticism", "openness")

SCORE_MIN = 1.0
SCORE_MAX = 7.0

AGE_MEAN = 28.5
AGE_SD = 9.54
AGE_MIN = 13

GENDERS = ("female", "male")
LEVELS = ("high", "low")


class PersonaConfigError(ValueError):
    """Invalid sampling statistics (bad sds or non-PSD correlations)."""


@dataclass(frozen=True)
class BigFiveStats:
    """Population moments for trait sampling: means, sds, and a 5x5 correlation matrix."""

    means: tuple[float, ...]
    sds: tuple[float, ...]
    correlations: tuple[tuple[float, ...], ...]

    def validate(self) -> None:
        means = np.asarray(self.means, dtype=float)
        sds = np.asarray(self.sds, dtype=float)
        corr = np.asarray(self.correlations, dtype=float)
        if means.shape != (5,) or sds.shape != (5,) or corr.shape != (5, 5):
            raise PersonaConfigError("trait stats must cover exactly 5 traits")
        if not np.all(sds > 0):
            raise PersonaConfigError("all trait sds must be strictly positive")
        if not np.allclose(corr, corr.T):
            raise PersonaConfigError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0):
            raise PersonaConfigError("correlation matrix must have unit diagonal")
        if np.min(np.linalg.eigvalsh((corr + corr.T) / 2.0)) < -1e-9:
            raise PersonaConfigError("correlation matrix must be positive semi-definite")

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


@dataclass(frozen=True)
class AgentPersona:
    agent_id: int
    gender: str
    age: int
    big_five_scores: tuple[float, ...]
    big_five_labels: tuple[str, ...]
    pinned_traits: dict[str, str] | None = field(default=None)


class Cohort(tuple):
    """A cohort that cannot change: its personas, indexed by agent id.

    Columns derived from the personas are built once per cohort by `column`.
    """

    def column(self, key, build):
        """Return build(self), built on the first call for `key`, then shared."""
        columns = self.__dict__.setdefault("_columns", {})
        if key not in columns:
            columns[key] = build(self)
        return columns[key]


def categorize_traits(scores, thresholds):
    """Label each score high/low against its threshold; ties label high.

    One agent's scores give a tuple of labels, an agents x traits matrix a list of them.
    """
    scores = np.asarray(scores, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.all(np.isfinite(thresholds)):
        raise ValueError("thresholds must be finite")
    # an object array hands out the two shared label strings, not a copy per score
    labels = np.array(["low", "high"], dtype=object)[(scores >= thresholds).astype(int)]
    return tuple(labels.tolist()) if scores.ndim == 1 else list(zip(*labels.T.tolist()))


def sample_personas(
    n: int,
    stats: BigFiveStats = DEFAULT_TRAIT_STATS,
    rng_seed: int = 0,
) -> list[AgentPersona]:
    """Sample n personas deterministically for a given seed.

    Gender is a fair coin. Age is Gamma-distributed with mean 28.5 / sd 9.54
    (shape mu^2/sd^2, scale sd^2/mu), rounded half away from zero and clamped
    to a minimum of 13. Trait scores are drawn from the multivariate normal
    implied by `stats` and clamped to [1, 7] after sampling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stats.validate()
    rng = np.random.default_rng(rng_seed)

    genders = np.where(rng.random(n) < 0.5, "female", "male")

    shape = AGE_MEAN**2 / AGE_SD**2
    scale = AGE_SD**2 / AGE_MEAN
    ages = np.floor(rng.gamma(shape, scale, size=n) + 0.5)
    ages = np.maximum(ages, AGE_MIN).astype(int)

    means = np.asarray(stats.means, dtype=float)
    scores = rng.multivariate_normal(means, stats.covariance(), size=n, method="svd")
    scores = np.clip(scores, SCORE_MIN, SCORE_MAX)

    # positional AgentPersona(agent_id, gender, age, big_five_scores, big_five_labels)
    return list(map(AgentPersona, range(n), genders.tolist(), ages.tolist(),
                    zip(*scores.T.tolist()), categorize_traits(scores, means)))


def pin_trait(
    personas: list[AgentPersona],
    trait: str,
    level: str,
    offset: float = 1.0,
    stats: BigFiveStats = DEFAULT_TRAIT_STATS,
) -> list[AgentPersona]:
    """Force one trait to mean +/- offset*sd for every persona; other traits untouched."""
    if trait not in TRAITS:
        raise ValueError(f"unknown trait {trait!r}; expected one of {TRAITS}")
    if level not in LEVELS:
        raise ValueError(f"level must be 'high' or 'low', got {level!r}")
    idx = TRAITS.index(trait)
    sign = 1.0 if level == "high" else -1.0
    pinned_score = stats.means[idx] + sign * offset * stats.sds[idx]

    out = []
    for p in personas:
        scores = list(p.big_five_scores)
        labels = list(p.big_five_labels)
        scores[idx] = pinned_score
        labels[idx] = level
        pins = dict(p.pinned_traits or {})
        pins[trait] = level
        out.append(
            replace(
                p,
                big_five_scores=tuple(scores),
                big_five_labels=tuple(labels),
                pinned_traits=pins,
            )
        )
    return out


def render_persona_text(persona: AgentPersona) -> str:
    """Stable qualitative description used in decision prompts."""
    traits = ", ".join(
        f"{label} {trait}" for trait, label in zip(TRAITS, persona.big_five_labels)
    )
    return (
        f"You are a {persona.age}-year-old {persona.gender} social media user. "
        f"Your personality shows {traits}."
    )


def save_personas(personas: list[AgentPersona], path) -> None:
    """Write a cohort as tab-separated records (documented in the header line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("agent_id\tgender\tage\t" + "\t".join(TRAITS) + "\t"
                 + "\t".join(f"{t}_label" for t in TRAITS) + "\n")
        for p in personas:
            scores = "\t".join(repr(s) for s in p.big_five_scores)
            labels = "\t".join(p.big_five_labels)
            fh.write(f"{p.agent_id}\t{p.gender}\t{p.age}\t{scores}\t{labels}\n")


def load_personas(path) -> list[AgentPersona]:
    personas = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("agent_id\t"):
            raise ValueError(f"{path}: not a persona table (bad header)")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 13:
                raise ValueError(f"{path}:{lineno}: expected 13 fields, got {len(parts)}")
            scores = tuple(float(x) for x in parts[3:8])
            labels = tuple(parts[8:13])
            if any(lab not in LEVELS for lab in labels):
                raise ValueError(f"{path}:{lineno}: bad trait label")
            personas.append(
                AgentPersona(
                    agent_id=int(parts[0]),
                    gender=parts[1],
                    age=int(parts[2]),
                    big_five_scores=scores,
                    big_five_labels=labels,
                )
            )
    return personas
