"""Cascade generation by thinning.

Between events every intensity in the model only decays, so the total
intensity just after the latest event dominates the whole next interval.
Candidate times therefore come from an exponential clock at the current
total; a candidate is accepted with probability total(candidate)/bound
and attributed to a user proportionally to the individual rates, and the
bound is refreshed (lowered) after every rejection.

Comments receive content vectors drawn uniformly from [0, 1]; the model
never sees simulated text.  Generation refuses supercritical
configurations up front: if in the worst case one comment breeds one or
more expected comments, cascades have no finite mean size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Cascade, Event, JumpTable, ModelParams
from .errors import ConfigError
from .features import FeatureStore

# random comment weights are shrunk to keep the branching ratio below this
MAX_RATIO = 0.85


@dataclass(eq=False)
class SimConfig:
    """Everything a reproducible synthetic corpus needs."""

    users: list[str]
    store: FeatureStore
    params: ModelParams
    horizon: float               # cascade window length, minutes
    max_events: int = 1000       # comment cap per cascade; hitting it flags truncation
    seed: int = 0
    n_cascades: int = 50
    origin_spacing: float = 0.0  # minutes between consecutive post origins
    group_id: str = "sim"

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:  # a NaN fails too
            raise ConfigError("horizon must be finite and positive")
        if self.max_events < 1:
            raise ConfigError("max_events must be at least 1")
        if not (isinstance(self.n_cascades, (int, np.integer)) and self.n_cascades >= 0):
            raise ConfigError("n_cascades must be a nonnegative integer")
        if not math.isfinite(self.origin_spacing):
            raise ConfigError("origin_spacing must be finite")
        if not isinstance(self.group_id, str):
            raise ConfigError("group_id must be a string")
        if not self.users:
            raise ConfigError("user population is empty")
        if (self.params.pair_dim, self.params.content_dim) != (
            self.store.pair_dim, self.store.content_dim
        ):
            raise ConfigError(
                "model weights and feature store disagree on dimensions"
            )


def _jumps_and_ratio(config):
    """The config's `JumpTable`, the U x U matrix whose column p is what one
    comment by user p adds to every user's rate through the pair weights,
    and the worst-case branching ratio read from its columns."""
    users = config.users
    jumps = JumpTable(config.params, config.store)
    pair_jumps = np.array([[jumps.pair(u, p)[1] for p in users] for u in users])
    content_part = jumps.max_comment_score
    worst = 0.0
    for column in pair_jumps.T.tolist():
        total = 0.0
        for j in column:  # left to right: from Python 3.12 `sum` compensates
            total += j + content_part
        worst = max(worst, total)
    return jumps, pair_jumps, worst / config.params.comment_decay_rate


def branching_ratio(config):
    """Worst-case expected comments bred by one comment.

    Maximizes over possible comment publishers and charges the full
    content weight (content features live in [0, 1]).
    """
    return _jumps_and_ratio(config)[2]


def _subcritical_jumps(config):
    """The table and matrix of `_jumps_and_ratio`; refuses a supercritical
    configuration."""
    jumps, pair_jumps, ratio = _jumps_and_ratio(config)
    if ratio >= 1.0:
        raise ConfigError(
            f"supercritical configuration: worst-case branching ratio {ratio:.3f} >= 1"
        )
    return jumps, pair_jumps


def simulate_cascade(config, post, rng=None, origin=0.0, cascade_id="c0"):
    """One cascade under the configured intensity, by thinning."""
    jumps, pair_jumps = _subcritical_jumps(config)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _thin(config, post, rng, origin, cascade_id, jumps, pair_jumps)


def _thin(config, post, rng, origin, cascade_id, jumps, pair_jumps):
    """simulate_cascade's thinning loop, given the config's jumps."""
    params = config.params
    users = config.users
    kd = params.content_dim
    # per-user decomposed rates, updated in place as the clock advances
    post_score = jumps.post_score(post)
    post_terms = np.array(
        [jumps.pair(u, post.publisher)[0] + post_score for u in users]
    )
    comment_terms = np.zeros(len(users))
    t = 0.0
    comments = []
    truncated = False
    # np.add.reduce is what .sum() runs, without the per-call wrappers
    while True:
        bound = np.add.reduce(post_terms) + np.add.reduce(comment_terms)
        if bound <= 0.0:
            break
        candidate = t + rng.exponential(1.0 / bound)
        if candidate >= config.horizon:
            break
        decayed_post = post_terms * np.exp(-params.post_decay_rate * (candidate - t))
        decayed_comment = comment_terms * np.exp(
            -params.comment_decay_rate * (candidate - t)
        )
        rates = decayed_post + decayed_comment
        total = np.add.reduce(rates)
        draw = rng.uniform(0.0, bound)
        post_terms, comment_terms, t = decayed_post, decayed_comment, candidate
        if draw >= total:
            continue  # rejected; the decayed total is the next bound
        idx = int(rates.cumsum().searchsorted(draw, side="right"))
        content = rng.uniform(size=kd) if kd else np.zeros(0)
        comments.append(Event(candidate, users[idx], content))
        comment_terms = comment_terms + pair_jumps[:, idx]
        if kd:
            comment_terms = comment_terms + jumps.comment_score(comments[-1])
        if len(comments) >= config.max_events:
            truncated = True
            break
    return Cascade(
        cascade_id=cascade_id,
        post=post,
        comments=comments,
        window_end=config.horizon,
        group_id=config.group_id,
        origin=origin,
        truncated=truncated,
    )


def simulate_corpus(config, n_cascades=None):
    """Independent cascades with round-robin post publishers.

    Cascade i starts at origin i * origin_spacing; each cascade runs on
    its own child seed, so the corpus is reproducible event for event.
    """
    n = config.n_cascades if n_cascades is None else n_cascades
    seeds = np.random.SeedSequence(config.seed).spawn(n + 1)
    post_rng = np.random.default_rng(seeds[0])
    kd = config.params.content_dim
    jumps, pair_jumps = _subcritical_jumps(config)
    cascades = []
    for i in range(n):
        publisher = config.users[i % len(config.users)]
        content = post_rng.uniform(size=kd) if kd else np.zeros(0)
        post = Event(0.0, publisher, content)
        cascades.append(
            _thin(
                config,
                post,
                np.random.default_rng(seeds[i + 1]),
                i * config.origin_spacing,
                f"sim-{i:05d}",
                jumps,
                pair_jumps,
            )
        )
    return cascades


def random_sim_config(
    n_users=6,
    pair_dim=3,
    content_dim=3,
    seed=0,
    params=None,
    horizon=10.0,
    post_decay_rate=0.1,
    comment_decay_rate=6.0,
    weight_scale=0.3,
    **overrides,
):
    """Random direct-pair store plus weights scaled to stay subcritical.

    Random comment weights are rescaled whenever their worst-case
    branching ratio would reach `MAX_RATIO`, so any seed and population
    size yields finite cascades.  Explicitly passed `params` are taken as
    is and refused if supercritical.  The default decay rates are much
    faster than the serving defaults so short windows still produce busy
    cascades.
    """
    rng = np.random.default_rng(seed)
    users = [f"u{i:02d}" for i in range(n_users)]
    pairs = {
        (u, p): rng.uniform(size=pair_dim) for u in users for p in users
    }
    store = FeatureStore(
        pair_names=[f"pf{i}" for i in range(pair_dim)],
        content_names=[f"cf{i}" for i in range(content_dim)],
        pairs=pairs,
        normalized=True,
    )
    explicit = params is not None
    if not explicit:
        params = ModelParams(
            post_pair_weights=weight_scale * rng.uniform(0.5, 1.0, size=pair_dim),
            post_content_weights=weight_scale * rng.uniform(0.5, 1.0, size=content_dim),
            comment_pair_weights=weight_scale * rng.uniform(0.5, 1.0, size=pair_dim),
            comment_content_weights=weight_scale * rng.uniform(0.5, 1.0, size=content_dim),
            post_decay_rate=post_decay_rate,
            comment_decay_rate=comment_decay_rate,
            pair_feature_names=list(store.pair_names),
            content_feature_names=list(store.content_names),
        )
    config = SimConfig(users=users, store=store, params=params,
                       horizon=horizon, seed=seed, **overrides)
    ratio = branching_ratio(config)
    if ratio >= MAX_RATIO:
        if explicit:
            raise ConfigError(
                f"configuration is supercritical or nearly so "
                f"(branching ratio {ratio:.3f} >= {MAX_RATIO})"
            )
        shrink = MAX_RATIO / ratio
        config.params = replace(
            params,
            comment_pair_weights=params.comment_pair_weights * shrink,
            comment_content_weights=params.comment_content_weights * shrink,
        )
    return config
