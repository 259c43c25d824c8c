import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesfeed.core import (
    TIE_SHIFT,
    Cascade,
    Event,
    JumpTable,
    ModelParams,
    corpus_participants,
    event_content,
    intensity,
    separate_ties,
)
from hawkesfeed.errors import ConfigError

from conftest import (
    USERS,
    comment_influence,
    decayed_copy,
    direct_store,
    latest_before_scan,
    make_cascade,
    make_params,
    post_influence,
    scratch_state_at,
)


# ---------------------------------------------------------------- validation


def test_event_rejects_negative_time():
    with pytest.raises(ValueError):
        Event(-1.0, "ana")


def test_event_rejects_non_finite_time():
    with pytest.raises(ValueError):
        Event(float("nan"), "ana")


def test_event_rejects_unnormalized_content():
    with pytest.raises(ValueError):
        Event(0.0, "ana", np.array([0.5, 1.5]))


def test_cascade_rejects_post_off_origin():
    with pytest.raises(ValueError):
        Cascade("c", Event(1.0, "ana"), [], window_end=10.0)


def test_cascade_rejects_unordered_comments():
    for t in (3.0, 5.0):  # earlier, or tied
        with pytest.raises(ValueError, match="strictly increasing"):
            Cascade("c", Event(0.0, "ana"),
                    [Event(5.0, "bo"), Event(t, "cy")], window_end=10.0)


def test_cascade_rejects_comment_at_post_time():
    with pytest.raises(ValueError):
        Cascade("c", Event(0.0, "ana"), [Event(0.0, "bo")], window_end=10.0)


def test_cascade_rejects_comment_outside_window():
    for t in (10.0, 12.0):  # at the window's end, or past it
        with pytest.raises(ValueError, match="outside the window"):
            Cascade("c", Event(0.0, "ana"), [Event(t, "bo")], window_end=10.0)


def test_participants_and_corpus_participants():
    c = make_cascade([(1.0, "bo"), (2.0, "cy")])
    assert c.participants() == {"ana", "bo", "cy"}
    c2 = make_cascade([(1.0, "di")], cascade_id="c1")
    assert corpus_participants([c, c2]) == ["ana", "bo", "cy", "di"]



def test_latest_before_matches_linear_scan():
    rng = np.random.default_rng(11)
    for k in range(200):
        n = int(rng.integers(0, 12))
        times = np.unique(rng.uniform(0.01, 9.9, size=n))
        origin = float(rng.choice([0.0, rng.uniform(-50.0, 50.0), 1e9 + 0.1]))
        c = make_cascade([(float(t), "bo") for t in times], cascade_id=f"c{k}",
                         window_end=10.0, origin=origin)
        instants = [origin + e.time for e in c.events]
        queries = [origin, origin - 1.0, np.nextafter(origin, np.inf),
                   origin + 20.0, np.nextafter(instants[-1], np.inf), *instants,
                   *(np.nextafter(t, -np.inf) for t in instants),
                   *rng.uniform(origin - 1.0, origin + 11.0, size=5)]
        for t in queries:
            assert c.latest_before(t) is latest_before_scan(c, t), (k, t)


# ------------------------------------------------------------- tie separation


def test_separate_ties_spreads_duplicates():
    out = separate_ties([0.0, 0.0, 3.0, 3.0, 3.0])
    # the shift cascades: each duplicate lands one TIE_SHIFT after the last
    assert out == [0.0, TIE_SHIFT, 3.0, 3.0 + TIE_SHIFT, (3.0 + TIE_SHIFT) + TIE_SHIFT]


def test_separate_ties_keeps_distinct_times():
    times = [0.0, 1.5, 2.25, 9.0]
    assert separate_ties(times) == times


def test_separate_ties_output_strictly_increases():
    out = separate_ties([1.0] * 6)
    assert all(b > a for a, b in zip(out, out[1:]))


# ----------------------------------------------------------------- intensity


def test_post_only_intensity_hand_value():
    # lambda(t) = mu * exp(-w t) with mu assembled by hand
    store = direct_store(seed=3)
    params = make_params(seed=4)
    c = make_cascade([], post_content=(0.25, 0.75))
    mu = float(
        params.post_pair_weights @ store.pair_vector("bo", "ana")
        + params.post_content_weights @ np.array([0.25, 0.75])
    )
    t = 7.0
    expected = mu * math.exp(-params.post_decay_rate * t)
    assert intensity("bo", c, t, params, store) == pytest.approx(expected, rel=1e-12)


def test_intensity_excludes_event_at_query_time():
    store = direct_store()
    params = make_params()
    c = make_cascade([(5.0, "bo", (0.1, 0.9))])
    at_event = intensity("cy", c, 5.0, params, store)
    post_only = intensity("cy", make_cascade([]), 5.0, params, store)
    assert at_event == pytest.approx(post_only, rel=1e-12)
    # and just after, the jump is there
    assert intensity("cy", c, 5.0 + 1e-9, params, store) > at_event


def test_intensity_brute_force_oracle():
    # [DERIVED] direct evaluation of the two-kernel sum
    store = direct_store(seed=9)
    params = make_params(seed=10)
    c = make_cascade(
        [(1.0, "bo"), (2.5, "cy"), (4.0, "bo"), (9.5, "di")], seed=11
    )
    for t in [0.5, 1.0, 2.5, 3.7, 9.5, 25.0]:
        expected = post_influence("ana", c.post, params, store) * math.exp(
            -params.post_decay_rate * t
        )
        for e in c.comments:
            if e.time < t:
                expected += comment_influence("ana", e, params, store) * math.exp(
                    -params.comment_decay_rate * (t - e.time)
                )
        assert intensity("ana", c, t, params, store) == pytest.approx(
            expected, rel=1e-12
        )


def test_intensity_rejects_negative_time():
    with pytest.raises(ValueError):
        intensity("bo", make_cascade([]), -0.5, make_params(), direct_store())


def test_post_influence_checks_dimensions():
    params = make_params(pair_dim=4)
    with pytest.raises(ConfigError):
        JumpTable(params, direct_store(pair_dim=3)).states_at("bo", [make_cascade([])], 0.0)


def test_event_content_without_content_coordinates_ignores_the_event():
    event = Event(1.0, "ana", [0.2, 0.7])
    assert event_content(event, 0).shape == (0,)
    assert event_content(Event(1.0, "ana"), 0).shape == (0,)
    # a content-free model scores content-carrying events by pairs alone
    params = ModelParams(
        post_pair_weights=[1.0], post_content_weights=[],
        comment_pair_weights=[1.0], comment_content_weights=[],
    )
    jumps = JumpTable(params, FeatureStoreStub())
    assert jumps.pair("bo", "ana")[1] + jumps.comment_score(event) == 1.0


def test_event_content_refuses_a_dimension_mismatch():
    event = Event(1.0, "ana", [0.2, 0.7])
    assert event_content(event, 2) is event.content_features
    assert event_content(Event(1.0, "ana"), 3).tolist() == [0.0, 0.0, 0.0]
    for dim in (1, 3):
        with pytest.raises(ConfigError):
            event_content(event, dim)


def test_decay_factor_after_thousand_minutes():
    # post influence keeps exp(-1) ~ 36.8% after 1000 minutes at the
    # default rate; the complementary ~63.2% is the advertised drop
    params = ModelParams(
        post_pair_weights=[1.0], post_content_weights=[],
        comment_pair_weights=[1.0], comment_content_weights=[],
    )
    store = FeatureStoreStub()
    c = Cascade("c", Event(0.0, "ana"), [], window_end=2000.0)
    lam0 = intensity("bo", c, 0.0, params, store)
    lam1000 = intensity("bo", c, 1000.0, params, store)
    assert lam1000 / lam0 == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert 0.63 < 1.0 - lam1000 / lam0 < 0.64


class FeatureStoreStub:
    """Constant unit pair feature; enough for decay arithmetic."""

    def pair_vector(self, user, publisher):
        return np.ones(1)


def test_comment_decay_factor_after_hundred_minutes():
    params = ModelParams(
        post_pair_weights=[0.0], post_content_weights=[],
        comment_pair_weights=[1.0], comment_content_weights=[],
    )
    store = FeatureStoreStub()
    c = Cascade("c", Event(0.0, "ana"), [Event(1.0, "bo")], window_end=2000.0)
    just_after = intensity("cy", c, 1.0 + 1e-12, params, store)
    later = intensity("cy", c, 101.0, params, store)
    assert later / just_after == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_doubling_weights_doubles_intensity_exactly():
    # scaling by 2 is an exponent shift, exact in binary floating point
    store = direct_store(seed=21)
    params = make_params(seed=22)
    c = make_cascade([(1.0, "bo"), (4.4, "cy")], seed=23)
    doubled = params.scaled(2.0)
    for t in [0.3, 2.2, 8.8]:
        assert intensity("di", c, t, doubled, store) == 2.0 * intensity(
            "di", c, t, params, store
        )


def test_scaled_rejects_negative_factor():
    # negative weights are caught by the params validation
    with pytest.raises(ConfigError):
        make_params().scaled(-1.0)


# ------------------------------------------------------------ states (O(1))


def test_states_at_matches_intensity():
    # at origin 0 the global minute is the relative one
    store = direct_store(seed=31)
    params = make_params(seed=32)
    c = make_cascade([(1.0, "bo"), (3.0, "cy"), (8.0, "di")], seed=33)
    jumps = JumpTable(params, store)
    for t in [0.0, 0.5, 3.0, 5.5, 20.0]:
        s = jumps.states_at("ana", [c], t)[0]
        assert s.intensity == pytest.approx(
            intensity("ana", c, t, params, store), rel=1e-12
        )


def test_intensity_builds_no_cascade(monkeypatch):
    # the relative minute is read off the cascade as it is, not off a copy
    store = direct_store(seed=31)
    params = make_params(seed=32)
    c = make_cascade([(1.0, "bo"), (3.0, "cy"), (8.0, "di")], origin=2.9, seed=33)
    built = []
    real = Cascade.__post_init__
    monkeypatch.setattr(Cascade, "__post_init__", lambda c: built.append(c) or real(c))
    for t in [0.0, 0.5, 3.0, 5.5, 20.0]:
        assert intensity("ana", c, t, params, store) == \
            scratch_state_at("ana", c, t, params, store).intensity
    assert built == []


def test_streaming_chain_matches_scratch():
    store = direct_store(seed=41)
    params = make_params(seed=42)
    c = make_cascade([(1.0, "bo"), (2.0, "cy"), (6.5, "bo")], seed=43)
    jumps = JumpTable(params, store)
    s = jumps.states_at("ana", [c], 0.0)[0]
    for e in c.comments:
        scratch = jumps.states_at("ana", [c], e.time)[0]
        assert decayed_copy(s, e.time, params).intensity == pytest.approx(
            scratch.intensity, rel=1e-12
        )
        # absorb decays the state to the comment time itself
        jumps.absorb(s, e, e.time)
    assert s.advance(12.0, params) == pytest.approx(
        intensity("ana", c, 12.0, params, store), rel=1e-12
    )


def test_advance_refuses_rewind():
    store = direct_store()
    params = make_params()
    s = JumpTable(params, store).states_at("ana", [make_cascade([])], 5.0)[0]
    with pytest.raises(ValueError):
        s.advance(4.0, params)


def test_absorb_refuses_rewind():
    store = direct_store()
    params = make_params()
    c = make_cascade([(2.0, "bo", (0.3, 0.3))])
    jumps = JumpTable(params, store)
    s = jumps.states_at("ana", [c], 3.0)[0]
    with pytest.raises(ValueError):
        jumps.absorb(s, c.comments[0], c.comments[0].time)


# ------------------------------------------------------------------ properties

times_strategy = st.lists(
    st.floats(0.01, 29.0), min_size=0, max_size=6
).map(lambda ts: sorted(set(round(t, 3) for t in ts)))


@settings(max_examples=60, deadline=None)
@given(times=times_strategy, t=st.floats(0.0, 40.0), seed=st.integers(0, 10))
def test_intensity_nonnegative_and_jumps(times, t, seed):
    store = direct_store(seed=seed)
    params = make_params(seed=seed + 1)
    rows = [(tt, USERS[i % len(USERS)]) for i, tt in enumerate(times)]
    c = make_cascade(rows, seed=seed)
    lam = intensity("ana", c, t, params, store)
    assert lam >= 0.0
    s = JumpTable(params, store).states_at("ana", [c], t)[0]  # origin 0
    assert np.isclose(s.intensity, lam, rtol=1e-9, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(0.1, 10.0),
    dt=st.floats(0.001, 10.0),
    seed=st.integers(0, 10),
)
def test_intensity_decays_between_events(t1, dt, seed):
    # no event in (t1, t1+dt] means both terms shrink
    store = direct_store(seed=seed)
    params = make_params(seed=seed)
    c = make_cascade([(0.05, "bo", (1.0, 1.0))], seed=seed)
    lam1 = intensity("cy", c, t1, params, store)
    lam2 = intensity("cy", c, t1 + dt, params, store)
    assert lam2 <= lam1 + 1e-15
