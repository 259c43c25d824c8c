"""`JumpTable.states_at` against the event-by-event scratch loops.

`states_at` scores the comment prefixes of a whole batch of cascades at
one global minute t in one vector pass; the oracles in conftest.py walk
them one event at a time with one dot product each:
`scratch_state_at_minute` at a global minute, `scratch_state_at` at a
relative one, which is the same thing at origin 0.  The floats must be
equal, not close: a moved ulp can flip a near-tie in a served rank.

A comment is before t when its global minute `origin + time` is, as
`Cascade.count_before` decides for every reader.  Asked on the relative
axis instead (`time < t - origin`), the rule counts a comment's own jump
at its global minute wherever `(origin + x) - origin` rounds above x.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed.baselines import order_candidates
from hawkesfeed.core import Cascade, Event, JumpTable, ModelParams, intensity
from hawkesfeed.errors import ConfigError
from hawkesfeed.features import FeatureStore
from hawkesfeed.rank_eval import (
    IntensityRanker,
    candidate_cascades,
    certified_intensities,
    evaluate_group,
    prioritize,
)

from conftest import (
    USERS,
    composed_store,
    direct_store,
    make_cascade,
    make_params,
    query_times,
    random_corpus,
    scratch_state_at,
    scratch_state_at_minute,
    strip_some_content,
)

CONTENT_DIMS = (0, 2, 3, 5, 15)


def model_cases():
    """(corpus, params, store) on both store layouts at every content dim."""
    for content_dim in CONTENT_DIMS:
        corpus = strip_some_content(
            random_corpus(n_cascades=6, seed=content_dim + 1, mean_comments=8,
                          content_dim=content_dim, origin_spacing=4.0),
            content_dim)
        yield corpus, make_params(3, content_dim, seed=content_dim), \
            direct_store(3, content_dim, seed=content_dim)
        store = composed_store(corpus, content_dim)
        yield corpus, make_params(store.pair_dim, content_dim, seed=content_dim), store


def assert_same_state(got, want):
    assert (got.user, got.cascade_id, got.last_update_time) == (
        want.user, want.cascade_id, want.last_update_time)
    assert got.post_term == want.post_term
    assert got.comment_term == want.comment_term


def test_cases_cover_layouts_dims_and_bare_events():
    cases = list(model_cases())
    assert {bool(s.pairs) for _, _, s in cases} == {True, False}
    assert {p.content_dim for _, p, _ in cases} == set(CONTENT_DIMS)
    for corpus, params, _ in cases:
        sizes = {e.content_features.size for c in corpus for e in c.events}
        assert sizes == ({0, params.content_dim} if params.content_dim else {0})


def prefix_kind(cascade, t):
    k = cascade.count_before(t)
    return "empty" if not k else "full" if k == len(cascade.comments) else "partial"


def test_one_batch_equals_the_oracle_state_by_state():
    # one call per global minute over every cascade opened by then: the
    # differing origins give empty, partial and full prefixes in one call
    mixed = 0
    for corpus, params, store in model_cases():
        minutes = sorted({c.origin + x for c in corpus for x in query_times(c)})
        for user in USERS:
            jumps = JumpTable(params, store)
            for t in minutes:
                batch = [c for c in corpus if c.origin <= t]
                got = jumps.states_at(user, batch, t)
                assert len(got) == len(batch)
                for s, c in zip(got, batch):
                    assert_same_state(s, scratch_state_at_minute(user, c, t, params, store))
                mixed += {prefix_kind(c, t) for c in batch} == {"empty", "partial", "full"}
    assert mixed > 100


def rounding_minutes(corpus):
    """Global minutes of the comments whose relative minute, recovered as
    `(origin + time) - origin`, is not their time."""
    return [c.origin + e.time for c in corpus for e in c.comments
            if (c.origin + e.time) - c.origin != e.time]


@st.composite
def minute_queries(draw):
    """A random corpus at irregular origins, a model and store, and one
    global minute: exactly at a comment of some cascade (often one whose
    relative minute, recomputed, rounds off its time), one ulp after, or
    anywhere.  The batch is every cascade opened by then."""
    content_dim = draw(st.sampled_from([0, 2, 3]))
    seed = draw(st.integers(0, 10_000))
    corpus = strip_some_content(
        random_corpus(n_cascades=draw(st.integers(2, 8)), seed=seed,
                      content_dim=content_dim, mean_comments=draw(st.integers(1, 12)),
                      origin_spacing=draw(st.sampled_from([0.7, math.pi, 3.0, 0.0]))),
        seed)
    if draw(st.booleans()):
        store = direct_store(3, content_dim, seed=seed)
        params = make_params(3, content_dim, seed=seed)
    else:
        store = composed_store(corpus, content_dim)
        params = make_params(store.pair_dim, content_dim, seed=seed)
    minutes = [c.origin + e.time for c in corpus for e in c.comments]
    where = draw(st.sampled_from(["rounds", "at", "after", "anywhere"]))
    if where == "anywhere":
        t = draw(st.floats(0.0, corpus[-1].origin + corpus[-1].window_end))
    else:
        t = draw(st.sampled_from(
            rounding_minutes(corpus) or minutes if where == "rounds" else minutes))
        if where == "after":
            t = math.nextafter(t, math.inf)
    batch = [c for c in corpus if c.origin <= t]
    return draw(st.sampled_from(USERS)), t, batch, params, store


def test_minute_corpora_hold_comments_whose_relative_minute_rounds_up():
    # the comments a rule on the relative axis would count at their own minute
    above = 0
    for seed in range(20):
        for spacing in (0.7, 3.0, math.pi):
            corpus = random_corpus(n_cascades=8, seed=seed, origin_spacing=spacing)
            above += sum((c.origin + e.time) - c.origin > e.time
                         for c in corpus for e in c.comments)
    assert above >= 100


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(minute_queries())
def test_states_at_is_the_minute_oracle_and_inside_the_certified_radius(query):
    user, t, batch, params, store = query
    jumps = JumpTable(params, store)
    got = jumps.states_at(user, batch, t)
    assert len(got) == len(batch)
    for s, c in zip(got, batch):
        assert_same_state(s, scratch_state_at_minute(user, c, t, params, store))
    lam, radius = certified_intensities(jumps, user, batch, t)
    assert (np.abs(lam - np.array([s.intensity for s in got])) <= radius).all()


def test_a_comment_adds_no_jump_at_its_own_global_minute():
    # at origin 3.0, (3.0 + X) - 3.0 rounds above X: decided on the
    # relative axis, the comment by "bo" counted at its own minute
    origin, x = 3.0, 1.9336138302337527
    assert (origin + x) - origin > x
    store = FeatureStore(pair_names=["p"], content_names=[],
                         pairs={(u, p): np.ones(1) for u in USERS for p in USERS})
    params = ModelParams(post_pair_weights=[1.0], post_content_weights=[],
                         comment_pair_weights=[1.0], comment_content_weights=[])
    c = Cascade("leak", Event(0.0, "ana"), [Event(x, "bo")], 10.0, origin=origin)
    jumps = JumpTable(params, store)
    s = jumps.states_at("cy", [c], origin + x)[0]
    assert s.comment_term == 0.0
    assert s.intensity == intensity("cy", c, x, params, store)
    lam, radius = certified_intensities(jumps, "cy", [c], origin + x)
    assert abs(lam[0] - s.intensity) <= radius[0]


def test_single_cascades_and_zero_length_prefixes_equal_the_oracle():
    for corpus, params, store in model_cases():
        jumps = JumpTable(params, store)
        for c in corpus:
            for user in USERS:
                # x = 0 and x exactly at the first comment both see no comment
                for x in (0.0, c.comments[0].time, *query_times(c)):
                    t = c.origin + x
                    assert_same_state(jumps.states_at(user, [c], t)[0],
                                      scratch_state_at_minute(user, c, t, params, store))
                    want = scratch_state_at(user, c, x, params, store)
                    assert intensity(user, c, x, params, store) == want.intensity
        # a batch whose prefixes are all empty: every post at the same minute
        t = corpus[-1].origin
        level = [dataclasses.replace(c, origin=t) for c in corpus]
        got = jumps.states_at("bo", level, t)
        for s, c in zip(got, level):
            assert s.comment_term == 0.0
            assert_same_state(s, scratch_state_at_minute("bo", c, t, params, store))
    assert JumpTable(params, store).states_at("bo", [], 0.0) == []


def test_one_long_prefix_among_many_empty_ones():
    # memory grows with the comments read, not cascades x longest prefix
    params, store = make_params(3, 3), direct_store(3, 3)
    users = ["bo", "cy", "di"]
    long = make_cascade([(0.01 * (i + 1), users[i % 3]) for i in range(2000)],
                        cascade_id="long", post_content=np.full(3, 0.5),
                        content_dim=3, window_end=100.0)
    empty = [make_cascade([], cascade_id=f"e{i}", post_content=np.full(3, 0.5),
                          content_dim=3) for i in range(500)]
    batch, t = [*empty[:250], long, *empty[250:]], 50.0
    jumps = JumpTable(params, store)
    jumps.states_at("ana", batch, t)  # fill the table
    tracemalloc.start()
    try:
        got = jumps.states_at("ana", batch, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a padded 501 x 2000 float array alone is 8 MB
    for s, c in zip(got, batch):
        assert_same_state(s, scratch_state_at_minute("ana", c, t, params, store))


def test_prioritize_equals_the_oracle_order():
    for corpus, params, store in model_cases():
        rng = np.random.default_rng(params.content_dim)
        lo, hi = corpus[0].origin, corpus[-1].origin + corpus[-1].window_end
        for user, t in zip(rng.choice(USERS, 30), rng.uniform(lo, hi, 30)):
            candidates = candidate_cascades(corpus, t)
            scores = [scratch_state_at_minute(user, c, t, params, store).intensity
                      for c in candidates]
            assert prioritize(user, t, candidates, {}, params, store) \
                == order_candidates(candidates, scores, t)


class CheckedRanker(IntensityRanker):
    """Checks every state a rank builds from scratch against the oracle."""

    largest_batch = 0

    def rank(self, user, t, candidates):
        fresh = [c for c in candidates
                 if user not in self.states.get(c.cascade_id, {})]
        served = super().rank(user, t, candidates)
        for c in fresh:
            want = scratch_state_at_minute(user, c, t, self.params, self.store)
            assert_same_state(self.states[c.cascade_id][user], want)
        self.largest_batch = max(self.largest_batch, len(fresh))
        return served


@pytest.mark.parametrize("policy", ["all", "active"])
def test_intensity_ranker_builds_its_states_like_the_oracle(policy):
    for corpus, params, store in model_cases():
        ranker = CheckedRanker(params, store)
        evaluate_group(ranker, corpus, policy=policy)
        assert ranker.largest_batch > 1  # some rank builds several at once


def test_negative_time_still_raises():
    params, store = make_params(), direct_store()
    c = make_cascade([(1.0, "bo"), (2.0, "cy")])
    later = dataclasses.replace(c, origin=2.0)
    jumps = JumpTable(params, store)
    with pytest.raises(ValueError, match="negative time"):
        jumps.states_at("ana", [c, later], 1.5)
    with pytest.raises(ValueError, match="negative time"):
        jumps.states_at("ana", [later], math.nextafter(2.0, -math.inf))
    with pytest.raises(ValueError, match="negative time"):
        intensity("ana", c, -1e-9, params, store)


@pytest.mark.parametrize("sizes", [[0, 6, 3], [3, 2], [3, 3, 4], [1, 1, 1]])
def test_mixed_content_sizes_raise(sizes):
    # [0, 6, 3] holds 9 = 3 * 3 numbers in all, as three d = 3 rows would
    params, store = make_params(3, 3), direct_store(3, 3)
    rows = [(1.0 + i, "bo", np.full(n, 0.5)) for i, n in enumerate(sizes)]
    c = make_cascade(rows, post_content=np.full(3, 0.5), content_dim=3)
    t = len(sizes) + 1.0
    with pytest.raises(ConfigError):
        scratch_state_at("ana", c, t, params, store)
    with pytest.raises(ConfigError):
        JumpTable(params, store).states_at("ana", [c], t)


def test_content_outside_the_prefix_is_not_read():
    # as in the event loop, a comment at or after t is never scored
    params, store = make_params(3, 3), direct_store(3, 3)
    c = make_cascade([(1.0, "bo", np.full(3, 0.5)), (2.0, "cy", np.full(6, 0.5))],
                     post_content=np.full(3, 0.5), content_dim=3)
    for t in (1.5, 2.0):
        assert_same_state(JumpTable(params, store).states_at("ana", [c], t)[0],
                          scratch_state_at("ana", c, t, params, store))


def test_post_content_of_the_wrong_size_raises():
    params, store = make_params(3, 3), direct_store(3, 3)
    c = make_cascade([(1.0, "bo", np.full(3, 0.5))], post_content=np.full(2, 0.5),
                     content_dim=3)
    with pytest.raises(ConfigError):
        JumpTable(params, store).states_at("ana", [c], 0.0)


def test_vecdot_equals_per_row_dots():
    # the batch score is `np.vecdot` on a stacked matrix; it must give the
    # per-event `w @ v` bit for bit, which `C @ w` does not
    rng = np.random.default_rng(7)
    for d in range(1, 34):
        rows = rng.uniform(size=(400, d))
        w = rng.uniform(0.0, 3.0, size=d)
        assert np.vecdot(rows, w).tolist() == [float(w @ r) for r in rows], d


def test_strided_content_scores_like_its_contiguous_copy():
    # a dot product over a strided vector may round differently from the
    # same dot over a copy; events and weights are stored contiguous
    d = 15
    rng = np.random.default_rng(3)
    wide = rng.uniform(size=(40, 2 * d))
    weights = rng.uniform(0.2, 1.0, size=(4, 2 * d))

    def params(take):
        return ModelParams(post_pair_weights=np.full(3, 0.1),
                           post_content_weights=take(weights[0]),
                           comment_pair_weights=np.full(3, 0.1),
                           comment_content_weights=take(weights[1]))

    def cascade(take):
        comments = [Event(1.0 + i, USERS[i % 4], take(row))
                    for i, row in enumerate(wide[1:])]
        return Cascade("s", Event(0.0, "ana", take(wide[0])), comments, 100.0)

    strided = (params(lambda v: v[::2]), cascade(lambda v: v[::2]))
    copied = (params(lambda v: v[::2].copy()), cascade(lambda v: v[::2].copy()))
    assert strided[0].comment_content_weights.flags.c_contiguous
    assert strided[1].comments[0].content_features.flags.c_contiguous
    store = direct_store(3, d)
    for user in USERS:
        states = []
        for p, c in (strided, copied):
            jumps = JumpTable(p, store)
            s, trail = jumps.states_at(user, [c], 0.0)[0], []
            for e in c.comments:
                s = jumps.absorb(s, e, e.time)
                trail.append((s.post_term, s.comment_term))
            states.append((trail, [intensity(user, c, t, p, store)
                                   for t in query_times(c)]))
        assert states[0] == states[1]
