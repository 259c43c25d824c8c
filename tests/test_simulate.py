import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed.core import Event, ModelParams
from hawkesfeed.errors import ConfigError
from hawkesfeed.features import FeatureStore
from hawkesfeed.simulate import (
    SimConfig,
    _attribute,
    branching_ratio,
    random_sim_config,
    simulate_cascade,
    simulate_corpus,
)

from conftest import simulate_corpus_loop


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


def exact_fields(c):
    """A cascade's fields with every float as `float.hex` and every content
    vector as its bytes."""
    return (c.cascade_id, c.origin.hex(), c.window_end.hex(), c.group_id, c.truncated, [
        (type(e.time), e.time.hex(), e.publisher, e.content_features.dtype,
         e.content_features.tobytes(), e.text) for e in c.events
    ])


def test_simulate_cascade_is_the_corpus_cascade():
    config = random_sim_config(n_users=4, seed=9, n_cascades=6,
                               origin_spacing=2.0, max_events=40)
    corpus = simulate_corpus(config)
    assert any(c.truncated for c in corpus) and any(c.comments for c in corpus)
    seeds = np.random.SeedSequence(config.seed).spawn(len(corpus) + 1)
    for i, want in enumerate(corpus):
        got = simulate_cascade(config, want.post, np.random.default_rng(seeds[i + 1]),
                               origin=want.origin, cascade_id=want.cascade_id)
        assert exact_fields(got) == exact_fields(want)
    # without a generator it draws from the config's seed
    post = corpus[0].post
    assert exact_fields(simulate_cascade(config, post)) == exact_fields(
        simulate_cascade(config, post, np.random.default_rng(config.seed)))


def assert_same_corpus_as_the_loop(config):
    """`simulate_corpus` equals the oracle loop field for field, and every
    event it makes is what the checked constructor makes of its fields."""
    corpus = simulate_corpus(config)
    assert [exact_fields(c) for c in corpus] == [
        exact_fields(c) for c in simulate_corpus_loop(config)]
    for c in corpus:
        for e in c.events:
            checked = Event(e.time, e.publisher, e.content_features, e.text)
            assert (type(checked.time), checked.time.hex(), checked.publisher,
                    checked.text) == (type(e.time), e.time.hex(), e.publisher, e.text)
            assert checked.content_features is e.content_features  # kept as it is
    return corpus


# populations on both sides of numpy's 8-term pairwise block and above 128
POPULATIONS = [1, 6, 7, 8, 12, 129]


@st.composite
def sim_configs(draw):
    n_users = draw(st.sampled_from(POPULATIONS))
    return random_sim_config(
        n_users=n_users,
        content_dim=draw(st.sampled_from([0, 3])),
        seed=draw(st.integers(0, 2**16)),
        # 0.0 zeroes every weight
        weight_scale=draw(st.sampled_from([0.0, 0.3, 1.0])),
        horizon=draw(st.floats(0.5, 10.0 if n_users <= 12 else 2.0)),
        max_events=draw(st.sampled_from([1, 4, 1000])),
        n_cascades=draw(st.integers(1, 4)),
        origin_spacing=draw(st.sampled_from([0.0, 1.5])),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sim_configs())
def test_simulate_corpus_is_the_loop_bit_for_bit(config):
    assert_same_corpus_as_the_loop(config)


@pytest.mark.parametrize("n_users", POPULATIONS)
@pytest.mark.parametrize("content_dim", [0, 3])
def test_the_loop_comparison_covers_truncation_and_silence(n_users, content_dim):
    # the hypothesis test's corner cases, each shown to occur
    kw = dict(n_users=n_users, content_dim=content_dim, seed=n_users, n_cascades=6,
              horizon=10.0 if n_users <= 12 else 1.0)
    corpus = assert_same_corpus_as_the_loop(random_sim_config(max_events=2, **kw))
    assert any(c.truncated for c in corpus)
    corpus = assert_same_corpus_as_the_loop(random_sim_config(weight_scale=0.0, **kw))
    assert not any(c.comments for c in corpus)


def test_a_simulated_event_takes_no_more_memory_than_a_checked_one():
    rng = np.random.default_rng(0)
    fields = [(float(t), "u01", rng.random(3)) for t in rng.random(2000)]

    def traced_bytes(make):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        events = [make(*f) for f in fields]
        size = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert len(events) == len(fields)
        return size

    traced_bytes(Event)  # warm up the allocators on both paths
    traced_bytes(Event._trusted)
    assert traced_bytes(Event._trusted) <= traced_bytes(Event)


def test_attribution_in_the_pairwise_gap_goes_to_the_last_user_with_a_rate():
    # ten users at 0.1 and two silent ones: the pairwise total is 1.0, the
    # running sum 1 - 2**-53, so a draw of the running sum is accepted but
    # lies past every running sum
    rates = np.array([0.1] * 10 + [0.0, 0.0])
    running = rates.cumsum()[-1]
    assert running < np.add.reduce(rates) == 1.0
    assert rates.cumsum().searchsorted(running, side="right") == rates.size
    assert _attribute(rates, running) == 9
    # elsewhere it is the first user whose running sum exceeds the draw
    assert _attribute(rates, 0.0) == 0
    assert _attribute(rates, 0.15) == 1
    assert _attribute(rates, float(np.nextafter(running, 0.0))) == 9
    assert _attribute(np.array([0.0, 0.5, 0.0]), 0.25) == 1


def test_uniform_draws_are_scaled_random_draws():
    # the thinning loop draws `bound * random()` and `random(k)` for what
    # were `uniform(0.0, bound)` and `uniform(size=k)`; numpy must give the
    # same floats and leave the generator in the same state
    bounds = [1e-300, 1e-12, 0.5, 1.0, 3.7, 1e12, 1e300]
    bounds += (10.0 ** np.random.default_rng(0).uniform(-300, 300, 50)).tolist()
    for seed in range(100):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for bound in bounds:
            for scale in (bound, np.float64(bound)):
                assert float(a.uniform(0.0, scale)).hex() == float(scale * b.random()).hex()
        assert a.bit_generator.state == b.bit_generator.state
    for k in range(1, 21):
        a, b = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(20):
            assert a.uniform(size=k).tobytes() == b.random(k).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


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
    assert simulate_corpus(config, n_cascades=0) == []


@pytest.mark.parametrize("n", [-1, -3, 2.5, math.nan, True, "4"])
def test_a_bad_cascade_count_override_is_refused(n):
    config = random_sim_config(seed=3, n_cascades=20)
    with pytest.raises(ConfigError, match="n_cascades"):
        simulate_corpus(config, n_cascades=n)
    with pytest.raises(ConfigError, match="n_cascades"):
        random_sim_config(seed=3, n_cascades=n)


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
    for max_events in (0, -1, math.nan, 2.5, True, np.float64(3.0), "3"):
        with pytest.raises(ConfigError, match="max_events"):
            SimConfig(users=["solo"], store=config.store, params=config.params,
                      horizon=5.0, max_events=max_events)
    assert SimConfig(users=["solo"], store=config.store, params=config.params,
                     horizon=5.0, max_events=np.int64(3)).max_events == 3


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
