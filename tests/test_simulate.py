import math

import numpy as np
import pytest

from hawkesfeed.core import Event, ModelParams
from hawkesfeed.errors import ConfigError
from hawkesfeed.features import FeatureStore
from hawkesfeed.simulate import (
    SimConfig,
    branching_ratio,
    random_sim_config,
    simulate_cascade,
    simulate_corpus,
)


def single_user_config(post_weight=0.4, comment_weight=0.0, horizon=5.0,
                       post_decay=0.1, comment_decay=2.0, seed=0, **kw):
    store = FeatureStore(
        pair_names=["pf0"], content_names=[],
        pairs={("solo", "solo"): np.array([1.0])},
        normalized=True,
    )
    params = ModelParams(
        post_pair_weights=np.array([post_weight]),
        post_content_weights=np.zeros(0),
        comment_pair_weights=np.array([comment_weight]),
        comment_content_weights=np.zeros(0),
        post_decay_rate=post_decay,
        comment_decay_rate=comment_decay,
    )
    return SimConfig(users=["solo"], store=store, params=params,
                     horizon=horizon, seed=seed, **kw)


# ------------------------------------------------------------- reproducibility


def test_same_seed_reproduces_the_corpus_bitwise():
    config = random_sim_config(n_users=4, seed=7, n_cascades=12)
    first = simulate_corpus(config)
    second = simulate_corpus(config)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.cascade_id == b.cascade_id
        assert a.origin == b.origin
        assert len(a.comments) == len(b.comments)
        for x, y in zip(a.events, b.events):
            assert x.time == y.time
            assert x.publisher == y.publisher
            assert np.array_equal(x.content_features, y.content_features)


def test_different_seeds_differ():
    a = simulate_corpus(random_sim_config(n_users=4, seed=1, n_cascades=8))
    b = simulate_corpus(random_sim_config(n_users=4, seed=2, n_cascades=8))
    assert [len(c.comments) for c in a] != [len(c.comments) for c in b]


def test_round_robin_publishers_and_spaced_origins():
    config = random_sim_config(n_users=3, seed=5, n_cascades=7,
                               origin_spacing=4.0)
    corpus = simulate_corpus(config)
    for i, c in enumerate(corpus):
        assert c.post.publisher == config.users[i % 3]
        assert c.origin == 4.0 * i
        assert c.cascade_id == f"sim-{i:05d}"
        assert c.window_end == config.horizon


def test_cascade_count_override():
    config = random_sim_config(seed=3, n_cascades=20)
    assert len(simulate_corpus(config, n_cascades=4)) == 4


# ------------------------------------------------------------------- validity


def test_simulated_cascades_are_well_formed(sim_setup):
    config, corpus = sim_setup
    assert len(corpus) == config.n_cascades
    assert any(c.comments for c in corpus)
    for c in corpus:
        assert c.post.time == 0.0
        times = [e.time for e in c.comments]
        assert all(0.0 < t < config.horizon for t in times)
        assert times == sorted(times)
        for e in c.comments:
            assert e.publisher in config.users
            assert e.content_features.size == config.params.content_dim
            assert e.content_features.min() >= 0.0
            assert e.content_features.max() <= 1.0


def test_zero_weights_produce_silence():
    config = single_user_config(post_weight=0.0)
    corpus = simulate_corpus(config, n_cascades=5)
    assert all(not c.comments for c in corpus)


def test_truncation_flags_capped_cascades():
    config = random_sim_config(n_users=4, seed=11, n_cascades=30,
                               horizon=30.0, max_events=3)
    corpus = simulate_corpus(config)
    truncated = [c for c in corpus if c.truncated]
    assert truncated
    assert all(len(c.comments) == 3 for c in truncated)
    assert all(len(c.comments) <= 3 for c in corpus)


# ------------------------------------------------------------------ criticality


def test_branching_ratio_hand_value():
    # [DERIVED] two users, one pair feature, one content feature: the worst
    # publisher is the column with the larger incoming pair mass
    store = FeatureStore(
        pair_names=["pf0"], content_names=["cf0"],
        pairs={("a", "a"): np.array([0.2]), ("b", "a"): np.array([0.6]),
               ("a", "b"): np.array([0.1]), ("b", "b"): np.array([0.3])},
        normalized=True,
    )
    params = ModelParams(
        post_pair_weights=np.array([0.1]),
        post_content_weights=np.array([0.0]),
        comment_pair_weights=np.array([0.5]),
        comment_content_weights=np.array([0.25]),
        post_decay_rate=0.1,
        comment_decay_rate=2.0,
    )
    config = SimConfig(users=["a", "b"], store=store, params=params, horizon=5.0)
    # publisher a: 0.5*(0.2 + 0.6) + 2*0.25 = 0.9; publisher b: 0.5*0.4 + 0.5
    assert branching_ratio(config) == pytest.approx(0.9 / 2.0, rel=1e-12)


def test_explicit_supercritical_params_are_refused():
    config = single_user_config()
    hot = ModelParams(
        post_pair_weights=np.array([0.4]),
        post_content_weights=np.zeros(0),
        comment_pair_weights=np.array([5.0]),
        comment_content_weights=np.zeros(0),
        post_decay_rate=0.1,
        comment_decay_rate=2.0,
    )
    with pytest.raises(ConfigError):
        random_sim_config(params=hot, n_users=1, pair_dim=1, content_dim=0)



def test_simulate_cascade_refuses_a_supercritical_config():
    config = single_user_config(comment_weight=50.0)
    assert branching_ratio(config) >= 1.0
    with pytest.raises(ConfigError):
        simulate_cascade(config, Event(0.0, "solo"))
    with pytest.raises(ConfigError):
        simulate_corpus(config, n_cascades=2)

def test_random_configs_self_normalize_to_subcritical():
    # a 20-user population would be far supercritical at the raw draw
    config = random_sim_config(n_users=20, seed=13)
    ratio = branching_ratio(config)
    assert ratio == pytest.approx(0.85, abs=1e-9)
    simulate_corpus(config, n_cascades=2)


def test_config_validation():
    config = single_user_config()
    with pytest.raises(ConfigError):
        SimConfig(users=[], store=config.store, params=config.params, horizon=5.0)
    with pytest.raises(ConfigError):
        SimConfig(users=["solo"], store=config.store, params=config.params,
                  horizon=0.0)
    with pytest.raises(ConfigError):
        SimConfig(users=["solo"], store=config.store, params=config.params,
                  horizon=5.0, max_events=0)


def test_config_rejects_dimension_mismatch():
    config = single_user_config()
    wide = ModelParams(
        post_pair_weights=np.array([0.1, 0.1]),
        post_content_weights=np.zeros(0),
        comment_pair_weights=np.array([0.0, 0.0]),
        comment_content_weights=np.zeros(0),
    )
    with pytest.raises(ConfigError):
        SimConfig(users=["solo"], store=config.store, params=wide, horizon=5.0)


# ----------------------------------------------------------------- statistics


def test_post_only_counts_match_the_compensator_mean():
    # [DERIVED] without self-excitation the count is Poisson with mean
    # mu * (1 - exp(-w T)) / w; check the sample mean at 4 standard errors
    mu, w, big_t, n = 0.4, 0.1, 5.0, 2000
    config = single_user_config(post_weight=mu, post_decay=w, horizon=big_t)
    corpus = simulate_corpus(config, n_cascades=n)
    counts = np.array([len(c.comments) for c in corpus])
    expected = mu * (1.0 - math.exp(-w * big_t)) / w
    se = math.sqrt(expected / n)
    assert abs(counts.mean() - expected) < 4 * se


def test_self_excitation_breeds_extra_comments():
    quiet = single_user_config(comment_weight=0.0, seed=21)
    noisy = single_user_config(comment_weight=1.2, seed=21)  # ratio 0.6
    mean_quiet = np.mean([
        len(c.comments) for c in simulate_corpus(quiet, n_cascades=800)
    ])
    mean_noisy = np.mean([
        len(c.comments) for c in simulate_corpus(noisy, n_cascades=800)
    ])
    # subcritical cluster sizes multiply the base mean by 1/(1 - ratio)
    assert mean_noisy > 1.6 * mean_quiet
