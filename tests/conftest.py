import numpy as np
import pytest

from hawkesfeed.core import Cascade, Event, ModelParams
from hawkesfeed.features import FeatureStore
from hawkesfeed.simulate import random_sim_config, simulate_corpus

USERS = ["ana", "bo", "cy", "di"]


def direct_store(pair_dim=3, content_dim=2, users=USERS, seed=0):
    """Store with explicit per-pair vectors, no corpus behind it."""
    rng = np.random.default_rng(seed)
    return FeatureStore(
        pair_names=[f"pf{i}" for i in range(pair_dim)],
        content_names=[f"cf{i}" for i in range(content_dim)],
        pairs={(u, p): rng.uniform(size=pair_dim) for u in users for p in users},
        normalized=True,
    )


def make_params(pair_dim=3, content_dim=2, seed=1, post_decay=0.05,
                comment_decay=0.8, scale=0.2):
    rng = np.random.default_rng(seed)
    return ModelParams(
        post_pair_weights=scale * rng.uniform(0.2, 1.0, pair_dim),
        post_content_weights=scale * rng.uniform(0.2, 1.0, content_dim),
        comment_pair_weights=scale * rng.uniform(0.2, 1.0, pair_dim),
        comment_content_weights=scale * rng.uniform(0.2, 1.0, content_dim),
        post_decay_rate=post_decay,
        comment_decay_rate=comment_decay,
    )


def make_cascade(comment_rows, cascade_id="c0", poster="ana", window_end=30.0,
                 origin=0.0, post_content=(0.5, 0.5), content_dim=2,
                 group_id="default", seed=None):
    """comment_rows: (time, publisher) or (time, publisher, content) tuples."""
    rng = np.random.default_rng(0 if seed is None else seed)
    comments = []
    for row in comment_rows:
        t, publisher = row[0], row[1]
        content = row[2] if len(row) > 2 else rng.uniform(size=content_dim)
        comments.append(Event(t, publisher, np.asarray(content, dtype=float)))
    return Cascade(
        cascade_id=cascade_id,
        post=Event(0.0, poster, np.asarray(post_content, dtype=float)),
        comments=comments,
        window_end=window_end,
        group_id=group_id,
        origin=origin,
    )


def random_corpus(n_cascades=8, seed=5, users=USERS, content_dim=2,
                  window_end=30.0, origin_spacing=0.0, mean_comments=5):
    """Hand-rolled random corpus; NOT drawn from the model, just valid data."""
    rng = np.random.default_rng(seed)
    cascades = []
    for i in range(n_cascades):
        n = int(rng.integers(1, 2 * mean_comments))
        times = np.sort(rng.uniform(0.2, window_end - 0.2, size=n))
        times = np.unique(times)
        rows = [
            (float(t), users[int(rng.integers(len(users)))],
             rng.uniform(size=content_dim))
            for t in times
        ]
        cascades.append(
            make_cascade(
                rows,
                cascade_id=f"r{i:03d}",
                poster=users[i % len(users)],
                window_end=window_end,
                origin=i * origin_spacing,
                post_content=rng.uniform(size=content_dim),
                content_dim=content_dim,
            )
        )
    return cascades


def hwk_intensity(params, user, cascade, local_t):
    """Pairwise-rate intensity at relative minute local_t, events before it.

    The baseline's own scratch loop before it was served on the feature
    model's state, kept as the oracle for the HWK likelihood and traces.
    """
    lam = params.post_rates.get((user, cascade.post.publisher), 0.0) * np.exp(
        -params.post_decay_rate * local_t
    )
    for e in cascade.comments:
        if e.time >= local_t:
            break
        lam += params.comment_rates.get((user, e.publisher), 0.0) * np.exp(
            -params.comment_decay_rate * (local_t - e.time)
        )
    return float(lam)


@pytest.fixture(scope="session")
def sim_setup():
    """One simulated corpus reused by read-only tests."""
    config = random_sim_config(
        n_users=5, pair_dim=3, content_dim=2, seed=42, n_cascades=30,
        origin_spacing=3.0,
    )
    return config, simulate_corpus(config)
