"""Cascade generation by thinning.

Between events every intensity in the model only decays, so the total
intensity just after the latest event dominates the whole next interval.
Candidate times therefore come from an exponential clock at the current
total; a candidate is accepted with probability total(candidate)/bound
and attributed to a user proportionally to the individual rates, and the
bound is refreshed (lowered) after every rejection.

Comments receive content vectors drawn uniformly from [0, 1); the model
never sees simulated text.  Generation refuses supercritical
configurations up front: if in the worst case one comment breeds one or
more expected comments, cascades have no finite mean size.

A corpus is reproducible bit for bit per seed, so the thinning loop keeps
every operation that decides one: the per-user post and comment terms as
numpy vectors, their totals as `np.add.reduce` (a pairwise sum, unlike a
running one), each decay as one scalar `np.exp` (which may differ from
`math.exp` in the last bit), and the attribution as `cumsum` with
`searchsorted`.  What it drops is per-step overhead that gives the same
floats:

- a step's draw is `bound * rng.random()`, not `rng.uniform(0.0, bound)`,
  and a comment's content is `rng.random(kd)`, not `rng.uniform(size=kd)`:
  numpy computes `uniform` as `low + (high - low) * next_double`, so both
  take the same doubles from the bit generator and round to the same
  floats (a test pins both identities on the installed numpy);
- an event is made by `Event._trusted`, without the constructor's checks:
  thinning already guarantees a time in (0, horizon), content in [0, 1)
  and no text, and `Cascade` still checks order and window;
- a comment's content score is `float(w @ content)` on the drawn vector,
  which is what `JumpTable.comment_score` returns for it;
- its pair jumps are one contiguous row of a publisher-major matrix, added
  in place: the same sums as adding a strided column to a copy.
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
        _check_count("max_events", self.max_events, 1)
        _check_count("n_cascades", self.n_cascades, 0)
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


def _check_count(name, value, least):
    """Refuse anything but an integer >= least: a NaN, a float such as 2.5
    and a bool are refused too."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _jumps_and_ratio(config):
    """The config's `JumpTable`, the U x U matrix whose row p is what one
    comment by user p adds to every user's rate through the pair weights
    (publisher-major and contiguous, so thinning adds a row in place), and
    the worst-case branching ratio read from its rows."""
    users = config.users
    jumps = JumpTable(config.params, config.store)
    comment_jumps = np.array([[jumps.pair(u, p)[1] for u in users] for p in users])
    content_part = jumps.max_comment_score
    worst = 0.0
    for row in comment_jumps.tolist():
        total = 0.0
        for j in row:  # left to right: from Python 3.12 `sum` compensates
            total += j + content_part
        worst = max(worst, total)
    return jumps, comment_jumps, worst / config.params.comment_decay_rate


def branching_ratio(config):
    """Worst-case expected comments bred by one comment.

    Maximizes over possible comment publishers and charges the full
    content weight (content features live in [0, 1]).
    """
    return _jumps_and_ratio(config)[2]


def _subcritical_jumps(config):
    """The table and matrix of `_jumps_and_ratio`; refuses a supercritical
    configuration."""
    jumps, comment_jumps, ratio = _jumps_and_ratio(config)
    if ratio >= 1.0:
        raise ConfigError(
            f"supercritical configuration: worst-case branching ratio {ratio:.3f} >= 1"
        )
    return jumps, comment_jumps


def simulate_cascade(config, post, rng=None, origin=0.0, cascade_id="c0"):
    """One cascade under the configured intensity, by thinning."""
    jumps, comment_jumps = _subcritical_jumps(config)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _thin(config, post, rng, origin, cascade_id, jumps, comment_jumps)


def _attribute(rates, draw):
    """Index of the user a draw in [0, np.add.reduce(rates)) falls to: the
    first whose running sum of rates exceeds it.

    The pairwise total can exceed the running sum by an ulp; a draw in that
    gap falls to the last user with a positive rate.
    """
    idx = int(rates.cumsum().searchsorted(draw, side="right"))
    if idx == rates.size:
        idx = int(np.flatnonzero(rates > 0.0)[-1])
    return idx


def _thin(config, post, rng, origin, cascade_id, jumps, comment_jumps):
    """simulate_cascade's thinning loop, given the config's jumps."""
    params = config.params
    users = config.users
    kd = params.content_dim
    content_weights = params.comment_content_weights
    post_rate, comment_rate = -params.post_decay_rate, -params.comment_decay_rate
    horizon, max_events = config.horizon, config.max_events
    # np.add.reduce is what .sum() runs, without the per-call wrappers
    reduce, exp, random, exponential = np.add.reduce, np.exp, rng.random, rng.exponential
    event = Event._trusted
    # per-user decomposed rates, updated as the clock advances
    post_score = jumps.post_score(post)
    post_terms = np.array(
        [jumps.pair(u, post.publisher)[0] + post_score for u in users]
    )
    comment_terms = np.zeros(len(users))
    t = 0.0
    comments = []
    truncated = False
    while True:
        bound = reduce(post_terms) + reduce(comment_terms)
        if bound <= 0.0:
            break
        candidate = t + exponential(1.0 / bound)
        if candidate >= horizon:
            break
        decayed_post = post_terms * exp(post_rate * (candidate - t))
        decayed_comment = comment_terms * exp(comment_rate * (candidate - t))
        rates = decayed_post + decayed_comment
        total = reduce(rates)
        draw = bound * random()
        post_terms, comment_terms, t = decayed_post, decayed_comment, candidate
        if draw >= total:
            continue  # rejected; the decayed total is the next bound
        idx = _attribute(rates, draw)
        content = random(kd) if kd else np.zeros(0)
        comments.append(event(candidate, users[idx], content))
        # comment_terms is this step's own array, so the jump goes in place
        comment_terms += comment_jumps[idx]
        if kd:
            comment_terms += float(content_weights @ content)
        if len(comments) >= max_events:
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
    n = config.n_cascades if n_cascades is None else _check_count(
        "n_cascades", n_cascades, 0)
    seeds = np.random.SeedSequence(config.seed).spawn(n + 1)
    post_rng = np.random.default_rng(seeds[0])
    kd = config.params.content_dim
    jumps, comment_jumps = _subcritical_jumps(config)
    cascades = []
    for i in range(n):
        publisher = config.users[i % len(config.users)]
        content = post_rng.random(kd) if kd else np.zeros(0)
        post = Event._trusted(0.0, publisher, content)
        cascades.append(
            _thin(
                config,
                post,
                np.random.default_rng(seeds[i + 1]),
                i * config.origin_spacing,
                f"sim-{i:05d}",
                jumps,
                comment_jumps,
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
