"""`prioritize`'s certified vector order against the exact scratch order.

`prioritize` scores its scratch candidates in one vector pass over the
cascades' columns (`np.exp`, pairwise sums) and keeps that order only when
each score's error radius proves it equal to the order of the exact
`JumpTable.states_at` intensities; otherwise it rescores exactly.  Either
way the served order must be `order_candidates` over the exact
intensities: ties by recency then id included.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hawkesfeed as hf
from hawkesfeed.baselines import PairwiseHawkesParams, order_candidates
from hawkesfeed.core import Cascade, Event, JumpTable
from hawkesfeed.errors import ConfigError
from hawkesfeed.rank_eval import candidate_cascades, certified_intensities, prioritize

from conftest import (
    USERS,
    composed_store,
    direct_store,
    make_cascade,
    make_params,
    random_corpus,
    strip_some_content,
)


def exact_order(user, t, candidates, states, params, store):
    """`order_candidates` over exact intensities: supplied states, the rest
    from `states_at`."""
    fresh = [c for c in candidates if c.cascade_id not in states]
    built = dict(zip((c.cascade_id for c in fresh),
                     JumpTable(params, store).states_at(user, fresh, t)))
    scores = [(states.get(c.cascade_id) or built[c.cascade_id]).intensity
              for c in candidates]
    return order_candidates(candidates, scores, t)


class Spy:
    """Counts `JumpTable.states_at` calls, the exact fallback."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = JumpTable.states_at

        def states_at(table, *args):
            self.calls += 1
            return real(table, *args)

        monkeypatch.setattr(JumpTable, "states_at", states_at)


def ids(cascades):
    return [c.cascade_id for c in cascades]


def copy_as(cascade, cascade_id):
    return dataclasses.replace(cascade, cascade_id=cascade_id)


# ------------------------------------------------------------------ property


@st.composite
def queries(draw):
    """A small random corpus (some cascades duplicated under new ids, so
    exact ties occur), a model and store, and one query with a random
    subset of exact supplied states."""
    content_dim = draw(st.sampled_from([0, 2, 3]))
    seed = draw(st.integers(0, 10_000))
    corpus = strip_some_content(
        random_corpus(n_cascades=draw(st.integers(1, 8)), seed=seed,
                      content_dim=content_dim, origin_spacing=draw(st.sampled_from([0.0, 3.0])),
                      mean_comments=draw(st.integers(1, 12))),
        seed)
    corpus += [copy_as(c, f"{c.cascade_id}-dup")
               for c in corpus if draw(st.booleans())]
    if draw(st.booleans()):
        store = direct_store(3, content_dim, seed=seed)
        params = make_params(3, content_dim, seed=seed,
                             scale=draw(st.sampled_from([0.0, 0.2, 5.0])))
    else:
        store = composed_store(corpus, content_dim)
        params = make_params(store.pair_dim, content_dim, seed=seed)
    user = draw(st.sampled_from(USERS))
    lo, hi = min(c.origin for c in corpus), max(c.origin + c.window_end for c in corpus)
    # a comment's own minute must not count that comment
    at_comment = [c.origin + e.time for c in corpus for e in c.comments]
    t = draw(st.floats(lo, hi + 1.0) | st.sampled_from(at_comment or [lo]))
    candidates = candidate_cascades(corpus, t)
    supplied = [c for c in candidates if draw(st.booleans())]
    states = dict(zip((c.cascade_id for c in supplied),
                      JumpTable(params, store).states_at(user, supplied, t)))
    return user, t, candidates, states, params, store


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(queries())
def test_prioritize_serves_the_exact_order(query):
    assert prioritize(*query) == exact_order(*query)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(queries())
def test_every_radius_holds_the_exact_intensity(query):
    user, t, candidates, _, params, store = query
    lam, radius = certified_intensities(JumpTable(params, store), user, candidates, t)
    exact = [s.intensity for s in JumpTable(params, store).states_at(user, candidates, t)]
    assert (np.abs(lam - np.array(exact)) <= radius).all()
    assert (radius >= 0).all()


# -------------------------------------------------------------- pinned cases


def test_exact_ties_break_by_recency_then_id(monkeypatch):
    # "zed" holds no pair vector and the comments carry no content, so its
    # comments add nothing: all three intensities are the post term alone
    store, params = direct_store(), make_params()
    a = make_cascade([(2.0, "zed", [])], cascade_id="A")
    b = make_cascade([(3.0, "zed", [])], cascade_id="B")
    spy = Spy(monkeypatch)
    served = prioritize("bo", 5.0, [copy_as(a, "C"), a, b], {}, params, store)
    assert ids(served) == ["B", "A", "C"]
    assert spy.calls == 1  # the tie took the exact path


def test_all_zero_intensities_order_by_recency_then_id():
    store, params = direct_store(), make_params(scale=0.0)
    corpus = random_corpus(n_cascades=6, seed=3)
    for t in (1.0, 7.5, 20.0):
        candidates = candidate_cascades(corpus, t)
        assert prioritize("ana", t, candidates, {}, params, store) \
            == exact_order("ana", t, candidates, {}, params, store)


def test_content_free_model_serves_the_exact_order():
    corpus = random_corpus(n_cascades=8, seed=12, origin_spacing=2.0, mean_comments=8)
    rng = np.random.default_rng(12)
    rates = {(u, p): float(rng.uniform(0.0, 0.5)) for u in USERS for p in USERS}
    params, store = PairwiseHawkesParams(rates, dict(rates), 0.05, 0.8).as_feature_model()
    assert params.content_dim == 0
    for user, t in zip(rng.choice(USERS, 30), rng.uniform(0.0, 45.0, 30)):
        candidates = candidate_cascades(corpus, t)
        assert prioritize(user, t, candidates, {}, params, store) \
            == exact_order(user, t, candidates, {}, params, store)


def test_a_one_ulp_gap_to_a_supplied_state_takes_the_fallback(monkeypatch):
    store, params = direct_store(), make_params()
    a = make_cascade([(1.0, "bo"), (2.0, "cy")], cascade_id="A")
    b = make_cascade([(1.5, "di")], cascade_id="B")
    exact = JumpTable(params, store).states_at("ana", [a], 4.0)[0]
    for step in (math.inf, -math.inf):
        near = dataclasses.replace(exact, cascade_id="B", post_term=math.nextafter(
            exact.intensity, step), comment_term=0.0)
        assert near.intensity != exact.intensity
        spy = Spy(monkeypatch)
        served = prioritize("ana", 4.0, [a, b], {"B": near}, params, store)
        assert spy.calls == 1
        assert served == exact_order("ana", 4.0, [a, b], {"B": near}, params, store)
        assert ids(served) == (["B", "A"] if step > 0 else ["A", "B"])


def test_a_one_ulp_gap_between_scratch_scores_takes_the_fallback(monkeypatch):
    # two post-only cascades whose origins differ by a few ulps: search for
    # the pair whose exact intensities are one ulp apart
    store, params = direct_store(), make_params()
    a = make_cascade([], cascade_id="A", origin=1.0)
    t = 6.0
    lam_a = JumpTable(params, store).states_at("bo", [a], t)[0].intensity
    origin, b = a.origin, None
    for _ in range(200):
        origin = math.nextafter(origin, -math.inf)
        c = make_cascade([], cascade_id="B", origin=origin)
        lam = JumpTable(params, store).states_at("bo", [c], t)[0].intensity
        if lam == math.nextafter(lam_a, -math.inf):
            b = c
            break
    assert b is not None
    spy = Spy(monkeypatch)
    served = prioritize("bo", t, [b, a], {}, params, store)
    assert spy.calls == 1
    assert ids(served) == ["A", "B"]


def test_well_separated_scores_keep_the_vector_order(monkeypatch):
    store, params = direct_store(), make_params()
    corpus = random_corpus(n_cascades=8, seed=4, origin_spacing=2.0, mean_comments=8)
    spy = Spy(monkeypatch)
    candidates = candidate_cascades(corpus, 20.0)
    assert len(candidates) > 3
    served = prioritize("cy", 20.0, candidates, {}, params, store)
    assert spy.calls == 0
    monkeypatch.undo()
    assert served == exact_order("cy", 20.0, candidates, {}, params, store)


def test_content_that_does_not_fit_the_model_raises_as_the_exact_path():
    store, params = direct_store(), make_params()
    mixed = make_cascade([(1.0, "bo", [0.5, 0.5]), (2.0, "cy", [0.1, 0.2, 0.3])])
    wide = make_cascade([(1.0, "bo", [0.1, 0.2, 0.3])], cascade_id="W")
    assert mixed.columns.content is None
    for bad in (mixed, wide):
        with pytest.raises(ConfigError):
            prioritize("ana", 5.0, [bad], {}, params, store)
    with pytest.raises(ValueError):
        prioritize("ana", 5.0, [make_cascade([], origin=9.0)], {}, params, store)


@pytest.mark.parametrize("seed", range(1, 11))
def test_replay_dense_sized_corpora_serve_the_exact_order(seed):
    config = dataclasses.replace(
        hf.random_sim_config(n_users=6, seed=1, n_cascades=100, origin_spacing=0.5),
        seed=seed)
    corpus = hf.simulate_corpus(config)
    rng = np.random.default_rng(seed)
    lo, hi = corpus[50].origin, max(c.origin + c.window_end for c in corpus)
    for user, t in zip(rng.choice(config.users, 40), rng.uniform(lo, hi, 40)):
        candidates = candidate_cascades(corpus, t)
        assert prioritize(user, t, candidates, {}, config.params, config.store) \
            == exact_order(user, t, candidates, {}, config.params, config.store)


# ------------------------------------------------------------------- columns


def assert_columns_match(cascade):
    cols = cascade.columns
    assert cols.times.tolist() == [e.time for e in cascade.comments]
    assert [cols.publishers[k] for k in cols.codes] == [e.publisher for e in cascade.comments]
    assert len(set(cols.publishers)) == len(cols.publishers)
    assert cols.content.flags.c_contiguous
    d = cols.content.shape[1]
    for row, e in zip(cols.content, cascade.comments):
        want = e.content_features if e.content_features.size else np.zeros(d)
        assert row.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_columns_equal_the_events_of_every_prefix():
    source = strip_some_content(random_corpus(n_cascades=4, seed=9, content_dim=3,
                                              mean_comments=10), 9)
    for c in source:
        for k in range(len(c.comments) + 1):
            assert_columns_match(dataclasses.replace(c, comments=c.comments[:k]))


def test_the_comments_cannot_change_behind_the_columns():
    c = make_cascade([(1.0, "bo"), (2.0, "cy")])
    cols = c.columns
    assert isinstance(c.comments, tuple)
    with pytest.raises(AttributeError):
        c.comments.append(Event(3.0, "di"))
    with pytest.raises(TypeError):
        c.comments[0] = Event(0.5, "di")
    for array in (cols.times, cols.codes, cols.content):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.comments = (c.comments[0],)
    assert c.columns is cols  # nothing changed, nothing rebuilt
    assert cols.times.tolist() == [1.0, 2.0]


def test_no_cascade_field_can_be_assigned():
    c = make_cascade([(1.0, "bo"), (2.0, "cy")], origin=3.0)
    before = {f.name: getattr(c, f.name) for f in dataclasses.fields(Cascade)}
    for name in before:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, before["comments"][:1] if name == "comments" else 7.0)
    assert {name: getattr(c, name) for name in before} == before
    assert c.count_before(math.inf) == 2


def test_constructed_comments_are_a_tuple():
    post = Event(0.0, "ana")
    c = Cascade("x", post, [Event(1.0, "bo")], 5.0)
    assert isinstance(c.comments, tuple)
    assert isinstance(dataclasses.replace(c, comments=[]).comments, tuple)
