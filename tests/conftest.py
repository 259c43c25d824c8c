import bisect
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

import numpy as np
import pytest

from hawkesfeed import io
from hawkesfeed.baselines import (
    WEIGHT_CAP,
    CoxParams,
    _PairDesign,
    cox_covariate,
    order_candidates,
)
from hawkesfeed.core import (
    ACTIVITY_HORIZON,
    Cascade,
    CascadeColumns,
    Event,
    IntensityState,
    JumpTable,
    ModelParams,
    candidate_cascades,
    comment_stream,
    event_content,
    in_play_order,
)
from hawkesfeed.errors import ConfigError, EstimationError
from hawkesfeed.features import (
    DEMO_LEXICON_WORDS,
    RELATIONSHIP_FEATURES,
    FeatureStore,
    annotate_corpus,
    build_feature_store,
    content_key,
    tokenize,
)
from hawkesfeed.fit import _ACTIVE_BAND, _RIDGE, _full_mask, _gap
from hawkesfeed.likelihood import (
    build_corpus_terms,
    comment_links,
    log_likelihood_derivatives,
    penalty_weights,
)
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


def hwk_intensity_at_minute(params, user, cascade, t):
    """`hwk_intensity` at global minute t: the comments whose global minute
    `origin + time` is strictly below t, decayed from x = t - origin."""
    x = t - cascade.origin
    lam = params.post_rates.get((user, cascade.post.publisher), 0.0) * np.exp(
        -params.post_decay_rate * x
    )
    for e in cascade.comments:
        if cascade.origin + e.time >= t:
            break
        lam += params.comment_rates.get((user, e.publisher), 0.0) * np.exp(
            -params.comment_decay_rate * (x - e.time)
        )
    return float(lam)


def hwk_log_likelihood(cascades, params):
    """The HWK log-likelihood at `params`, the oracle for the EM's trace; the
    population is every user holding a rate."""
    pd, cd = params.post_decay_rate, params.comment_decay_rate
    links = comment_links(cascades, pd, cd)
    design = _PairDesign(links)
    theta = np.array(
        [params.post_rates.get(k, 0.0) for k in design.post_keys]
        + [params.comment_rates.get(k, 0.0) for k in design.comment_keys]
    )
    value = design.log_likelihood(design.intensities(theta), theta)
    # rates on pairs the corpus never links still pay their publisher's exposure
    index = {name: i for i, name in enumerate(links.names)}
    for rates, keys, exposure in zip((params.post_rates, params.comment_rates),
                                     (design.post_keys, design.comment_keys),
                                     links.exposures()):
        linked = set(keys)
        for (u, p), v in rates.items():
            if (u, p) not in linked and p in index:
                value -= v * exposure[index[p]]
    return float(value)


# Corpus variants and probe times shared by the scratch-state tests.


def strip_some_content(cascades, seed):
    """The corpus with about half its events, posts included, stripped of content."""
    rng = np.random.default_rng(seed)
    out = []
    for c in cascades:
        bare = lambda e: Event(e.time, e.publisher) if rng.uniform() < 0.5 else e
        out.append(Cascade(c.cascade_id, bare(c.post), [bare(e) for e in c.comments],
                           c.window_end, c.group_id, c.origin))
    return out


WORDS = sorted({w for ws in DEMO_LEXICON_WORDS.values() for w in ws}
               | {"the", "a", "post", "reply", "about", "this", "think", "agree"})


def text_corpus(seed):
    """A simulated corpus whose events carry seeded lexicon text instead of
    content vectors: ten training cascades, then four test cascades."""
    config = random_sim_config(n_users=6, pair_dim=3, content_dim=0, seed=1,
                               horizon=3.0, n_cascades=14, origin_spacing=0.5)
    config.seed = seed
    rng = np.random.default_rng(seed)
    corpus = []
    for c in simulate_corpus(config):
        events = [
            Event(e.time, e.publisher, np.zeros(0), " ".join(
                rng.choice(WORDS, size=int(rng.integers(3, 16)))))
            for e in c.events
        ]
        corpus.append(Cascade(c.cascade_id, events[0], events[1:], c.window_end,
                              c.group_id, c.origin))
    return corpus[:10], corpus[10:]


def composed_store(corpus, content_dim):
    """Character/relationship store from the corpus; without content names
    when `content_dim` is 0 (a table reads only its pair vectors)."""
    store = build_feature_store(corpus)
    if content_dim:
        return store
    return FeatureStore(pair_names=store.pair_names, content_names=[],
                        character=store.character, relationship=store.relationship)


def stretched(cascades, k):
    """The corpus on a clock k times slower: every comment time, origin and
    window multiplied by k, contents shared.  A horizon of h minutes on
    the original is one of k h minutes on the copy."""
    return [Cascade(c.cascade_id, c.post,
                    [Event(k * e.time, e.publisher, e.content_features, e.text)
                     for e in c.comments],
                    k * c.window_end, c.group_id, k * c.origin, c.truncated)
            for c in cascades]


def query_times(cascade):
    """Before the first comment, exactly at and one ulp after every comment,
    between comments and after the window."""
    times = [0.0, cascade.window_end + 3.0]
    for e in cascade.comments:
        times += [e.time, float(np.nextafter(e.time, np.inf)), e.time + 0.37]
    return times


# The per-definition interaction counts that `extract_features` replaced
# with one accumulating pass.  Kept verbatim as the oracle for that pass.


def character_features(user, cascades):
    """Raw per-user counts, see CHARACTER_FEATURES for coordinate order."""
    posts_made = 0
    comments_received = 0
    comments_made = 0
    posts_commented = set()
    authors_commented = set()
    for c in cascades:
        if c.post.publisher == user:
            posts_made += 1
            comments_received += len(c.comments)
        for e in c.comments:
            if e.publisher == user:
                comments_made += 1
                posts_commented.add(c.cascade_id)
                authors_commented.add(c.post.publisher)
    return np.array(
        [posts_made, comments_received, comments_made,
         len(posts_commented), len(authors_commented)],
        dtype=float,
    )


def relationship_features(a, b, cascades):
    """Raw directed counts of `a` acting on `b`, see RELATIONSHIP_FEATURES."""
    on_posts = 0
    after_comment = 0
    direct_post = 0
    direct_comment = 0
    co_posts = set()
    for c in cascades:
        b_posted = c.post.publisher == b
        if b_posted and c.comments and c.comments[0].publisher == a:
            direct_post += 1
        b_commented = False
        prev_publisher = None
        for e in c.comments:
            if e.publisher == a:
                if b_posted:
                    on_posts += 1
                if b_commented:
                    after_comment += 1
                    co_posts.add(c.cascade_id)
                if prev_publisher == b:
                    direct_comment += 1
            if e.publisher == b:
                b_commented = True
            prev_publisher = e.publisher
    return np.array(
        [on_posts, after_comment, direct_post, direct_comment, len(co_posts)],
        dtype=float,
    )


# The text pipeline as it was before it counted and bounded whole corpora
# at once: one walk over the tokens per lexicon category, one
# `_apply_bounds` call per vector, and every filled event and cascade built
# through its checking constructor.  Kept as the oracle for `Lexicon.counts`,
# `content_counts`, `content_from_texts`, `normalize_store` and
# `annotate_corpus`, with one correction: a token counts at most once per
# category (the per-category count once counted a token twice that matched
# a word and a stem of its category).


def lexicon_count(lexicon, tokens, category):
    words = lexicon.categories[category]
    stems = lexicon._stems.get(category, ())
    return sum(1 for tok in tokens
               if tok in words or any(tok.startswith(s) for s in stems))


def content_features_loop(text, lexicon):
    tokens = tokenize(text)
    counts = [len(tokens), sum(1 for tok in tokens if len(tok) > 6)]
    counts += [lexicon_count(lexicon, tokens, cat) for cat in lexicon.categories]
    return np.array(counts, dtype=float)


def minmax_bounds_loop(rows):
    stacked = np.vstack(rows)
    return stacked.min(axis=0), stacked.max(axis=0)


def apply_bounds_loop(values, bounds, clamp=False):
    lo, hi = bounds
    span = hi - lo
    out = np.zeros_like(values, dtype=float)
    varying = span > 0
    out[varying] = (values[varying] - lo[varying]) / span[varying]
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out


def content_from_text_loop(store, text):
    return apply_bounds_loop(content_features_loop(text, store.lexicon),
                             store.content_bounds, clamp=True)


def normalize_store_loop(store):
    if store.normalized:
        return store
    character = dict(store.character)
    relationship = dict(store.relationship)
    content = dict(store.content)
    char_bounds = rel_bounds = content_bounds = None
    if character:
        char_bounds = minmax_bounds_loop(list(character.values()))
        character = {u: apply_bounds_loop(v, char_bounds) for u, v in character.items()}
    if relationship:
        rows = list(relationship.values()) + [np.zeros(len(RELATIONSHIP_FEATURES))]
        rel_bounds = minmax_bounds_loop(rows)
        relationship = {k: apply_bounds_loop(v, rel_bounds)
                        for k, v in relationship.items()}
    if content:
        content_bounds = minmax_bounds_loop(list(content.values()))
        content = {k: apply_bounds_loop(v, content_bounds) for k, v in content.items()}
    return FeatureStore(
        pair_names=list(store.pair_names),
        content_names=list(store.content_names),
        character=character,
        relationship=relationship,
        pairs=dict(store.pairs),
        content=content,
        character_bounds=char_bounds,
        relationship_bounds=rel_bounds,
        content_bounds=content_bounds,
        lexicon=store.lexicon,
        normalized=True,
    )


def annotate_corpus_loop(cascades, store):
    from_text = store.lexicon is not None and store.content_bounds is not None
    out = []
    for c in cascades:
        events = None
        for idx, e in enumerate(chain((c.post,), c.comments)):
            if e.content_features.size:
                continue
            v = store.content.get(content_key(c.cascade_id, idx))
            if v is None and from_text and e.text is not None:
                v = content_from_text_loop(store, e.text)
            if v is not None:
                events = events or c.events
                events[idx] = Event(e.time, e.publisher, np.asarray(v, dtype=float), e.text)
        out.append(c if events is None else Cascade(
            c.cascade_id, events[0], events[1:], c.window_end,
            c.group_id, c.origin, c.truncated))
    return out


# Every jump recomputed from the weights and features on every call, as
# the package did before `JumpTable`.  Kept verbatim (the scratch state
# renamed) as the oracle the table's intensities must equal exactly.


def post_influence(user, post, params, store):
    """Initial rate the post contributes to `user`, before any decay."""
    pair = store.pair_vector(user, post.publisher)
    if pair.size != params.pair_dim:
        raise ConfigError(
            f"store pair vectors have {pair.size} features, model expects {params.pair_dim}"
        )
    content = event_content(post, params.content_dim)
    return float(params.post_pair_weights @ pair + params.post_content_weights @ content)


def comment_influence(user, comment, params, store):
    """Jump the comment adds to `user`'s rate at the moment it arrives."""
    pair = store.pair_vector(user, comment.publisher)
    if pair.size != params.pair_dim:
        raise ConfigError(
            f"store pair vectors have {pair.size} features, model expects {params.pair_dim}"
        )
    content = event_content(comment, params.content_dim)
    return float(params.comment_pair_weights @ pair + params.comment_content_weights @ content)


def decayed_copy(state, t2, params):
    """A new state, both terms decayed to t2, written without
    `IntensityState.advance`: the oracle for the in-place decay."""
    dt = t2 - state.last_update_time
    if dt < 0:
        raise ValueError(
            f"state at {state.last_update_time} cannot rewind to {t2}"
        )
    return IntensityState(
        state.user,
        state.cascade_id,
        state.post_term * math.exp(-params.post_decay_rate * dt),
        state.comment_term * math.exp(-params.comment_decay_rate * dt),
        t2,
    )


def scratch_state_at(user, cascade, t, params, store):
    """Scratch-built state at relative time t, from events strictly before t.

    This is the one scratch evaluation of the feature model's intensity;
    at t = 0 it is the state at the moment the post appears.
    """
    if t < 0:
        raise ValueError(f"state requested at negative time {t}")
    a = post_influence(user, cascade.post, params, store) * math.exp(
        -params.post_decay_rate * t
    )
    b = 0.0
    for c in cascade.comments:
        if c.time >= t:
            break
        b += comment_influence(user, c, params, store) * math.exp(
            -params.comment_decay_rate * (t - c.time)
        )
    return IntensityState(user, cascade.cascade_id, a, b, t)


def scratch_state_at_minute(user, cascade, t, params, store):
    """Scratch-built state at global minute t, clocked at t: a scan over the
    comments whose global minute `origin + time` is strictly below t, each
    term decayed on the relative minutes from x = t - origin."""
    x = t - cascade.origin
    if x < 0:
        raise ValueError(f"state requested at negative time {x}")
    a = post_influence(user, cascade.post, params, store) * math.exp(
        -params.post_decay_rate * x
    )
    b = 0.0
    for c in cascade.comments:
        if cascade.origin + c.time >= t:
            break
        b += comment_influence(user, c, params, store) * math.exp(
            -params.comment_decay_rate * (x - c.time)
        )
    return IntensityState(user, cascade.cascade_id, a, b, t)


# What a cascade did before a global minute t, by a plain scan over every
# event: the oracle for `Cascade.latest_before` and every reader of it.


def latest_before_scan(cascade, t):
    """The cascade's latest event whose global minute is strictly before t,
    or None."""
    latest = None
    for e in cascade.events:
        if cascade.origin + e.time >= t:
            break
        latest = e
    return latest


def recency_scan(cascade, t):
    """Global minute of the cascade's latest event strictly before t; -inf
    when there is none."""
    latest = latest_before_scan(cascade, t)
    return -math.inf if latest is None else cascade.origin + latest.time


# The stream walk and the replay loop as they were before the walk handed
# out the caller's own cascades: a post-only copy of every cascade, grown
# one comment at a time once its minute had been ranked, so a copy held
# only what its cascade did before t.  `GrowingCascade` is `Cascade` as it
# was then, with `append` and the prefix rule over the comments it holds.
# Kept verbatim, the copy made without `dataclasses.replace`, as the
# oracle for `evaluate_group`'s traces; `columns`, which NN's
# representative reads, is built afresh from the comments held on each read.


@dataclass(eq=False)
class GrowingCascade:
    cascade_id: str
    post: Event
    comments: tuple
    window_end: float
    group_id: str = "default"
    origin: float = 0.0
    truncated: bool = False

    def append(self, comment):
        """Add a comment after the newest one, inside the window."""
        comments = self.comments
        prev = comments[-1].time if comments else 0.0
        if not prev < comment.time < self.window_end:
            raise ValueError(f"cascade {self.cascade_id}: comment at "
                             f"{comment.time} refused after {prev}")
        self.comments = comments + (comment,)

    def count_before(self, t):
        comments, origin = self.comments, self.origin
        # a replay only ever asks after the newest comment: skip the bisection
        if comments and origin + comments[-1].time < t:
            return len(comments)
        return bisect.bisect_left(comments, t, key=lambda e: origin + e.time)

    def latest_before(self, t):
        k = self.count_before(t)
        if k:
            return self.comments[k - 1]
        return self.post if self.origin + self.post.time < t else None

    @property
    def columns(self):
        return CascadeColumns.of(self.comments)


def walk_minutes_copies(cascades):
    """`walk_minutes` on post-only copies: the caller appends each comment
    to its copy once it has handled the whole minute."""
    copies = {c.cascade_id: GrowingCascade(c.cascade_id, c.post, (), c.window_end,
                                           c.group_id, c.origin, c.truncated)
              for c in cascades}
    ordered = sorted(copies.values(), key=in_play_order)
    pool, admitted, closes = [], 0, math.inf
    for t, rows in groupby(comment_stream(cascades), key=itemgetter(0)):
        start = admitted
        while admitted < len(ordered) and ordered[admitted].origin < t:
            admitted += 1
        if admitted > start or t >= closes:
            pool = candidate_cascades(pool + ordered[start:admitted], t)
            closes = min((c.origin + c.window_end for c in pool), default=math.inf)
        yield t, [(e, copies[c.cascade_id]) for _, c, _, e in rows], pool


def replay_copies(ranker, test_cascades, policy="all"):
    """`evaluate_group`'s rank trace, replayed on the growing copies."""
    trace = []
    for t, batch, pool in walk_minutes_copies(test_cascades):
        candidates = pool if policy == "all" else candidate_cascades(pool, t, policy)
        for e, target in batch:
            if target not in candidates:
                raise ConfigError(
                    f"cascade {target.cascade_id!r} fell out of the candidate set "
                    f"at t={t}; the {policy!r} policy cannot score this corpus"
                )
            trace.append(ranker.rank(e.publisher, t, candidates).index(target))
        for e, target in batch:
            target.append(e)
            ranker.absorb(target, e, t)
    return trace


# The proportional-rates baseline as it was before its risk sets were
# stacked: a linear scan for the covariate, a list of (rows, target) pairs
# per comment and a Python loop over them per evaluation.  Kept as the
# oracle for `cox_covariate`, `_cox_design`, the partial likelihood, its
# gradient and `fit_cox`, with two corrections.  The covariate and the
# risk sets read what each cascade did strictly before the comment's
# global minute: the scan once compared relative minutes (`time < t -
# origin`), and since `(origin + x) - origin` may round above x, a comment
# could be its own covariate.  And a cascade other than the target is at
# risk only while its window is open, in `(origin, cascade_id)` order, as
# the replay serves it under "active": the scan once kept a closed
# cascade for as long as its last event was within the horizon.


def cox_covariate_scan(cascade, t, store, feature_indices):
    """Content of the cascade's most recent event strictly before global
    minute t."""
    latest = latest_before_scan(cascade, t)
    if latest is None:
        return np.zeros(len(feature_indices))
    return event_content(latest, store.content_dim)[feature_indices]


def cox_design_loop(cascades, store, feature_indices, activity_horizon):
    """Per observed comment: covariate rows of its risk set and the target row.

    The risk set holds the cascades whose window is open at the comment
    (`origin < t < origin + window_end`) and that are active (last event
    within the horizon), in `(origin, cascade_id)` order; the comment's
    own cascade is always included so every term is well defined.
    """
    steps = []
    for c in cascades:
        for e in c.comments:
            steps.append((c.origin + e.time, c.cascade_id, c))
    steps.sort(key=lambda s: (s[0], s[1]))
    in_play_order = sorted(cascades, key=lambda c: (c.origin, c.cascade_id))
    design = []
    for t, target_id, target in steps:
        rows = []
        target_row = None
        for c in in_play_order:
            if c.cascade_id == target_id:
                in_risk = True
            else:
                last = recency_scan(c, t)
                in_risk = (c.origin < t < c.origin + c.window_end
                           and t - last <= activity_horizon)
            if in_risk:
                if c.cascade_id == target_id:
                    target_row = len(rows)
                rows.append(cox_covariate_scan(c, t, store, feature_indices))
        design.append((np.vstack(rows), target_row))
    return design


def cox_partial_log_likelihood_loop(weights, design):
    value = 0.0
    for rows, target in design:
        scores = rows @ weights
        m = scores.max()
        value += scores[target] - (m + np.log(np.exp(scores - m).sum()))
    return float(value)


def cox_gradient_loop(weights, design):
    grad = np.zeros_like(weights)
    for rows, target in design:
        scores = rows @ weights
        scores -= scores.max()
        p = np.exp(scores)
        p /= p.sum()
        grad += rows[target] - p @ rows
    return grad


def cox_hessian_loop(weights, design):
    """Per risk set, minus the softmax covariance of its rows, summed."""
    hess = np.zeros((weights.size, weights.size))
    for rows, _ in design:
        scores = rows @ weights
        p = np.exp(scores - scores.max())
        p /= p.sum()
        mean = p @ rows
        hess -= (p[:, None] * rows).T @ rows - np.outer(mean, mean)
    return hess


def fit_cox_loop(cascades, store, feature_indices=None, max_iterations=500,
                 tolerance=1e-10, weight_cap=WEIGHT_CAP,
                 activity_horizon=ACTIVITY_HORIZON):
    """Maximize the partial likelihood by gradient ascent with backtracking,
    on the corpus annotated from `store` as `fit_cox` annotates it.

    The partial likelihood is concave; separation would push weights to
    infinity, so coordinates are capped at +-weight_cap with a warning.
    """
    if feature_indices is None:
        feature_indices = np.arange(store.content_dim)
    feature_indices = np.asarray(feature_indices, dtype=int)
    if feature_indices.size == 0:
        raise EstimationError("no content features selected")
    design = cox_design_loop(annotate_corpus(cascades, store), store, feature_indices,
                             activity_horizon)
    if not design:
        raise EstimationError("training corpus has no comments, nothing to fit")
    if all(rows.shape[0] == 1 for rows, _ in design):
        raise EstimationError(
            "every risk set is a single cascade; the weights are unidentifiable"
        )
    w = np.zeros(feature_indices.size)
    f = cox_partial_log_likelihood_loop(w, design)
    step = 1.0
    for _ in range(max_iterations):
        g = cox_gradient_loop(w, design)
        improved = False
        while step > 1e-18:
            cand = np.clip(w + step * g, -weight_cap, weight_cap)
            fc = cox_partial_log_likelihood_loop(cand, design)
            if fc >= f + 1e-12:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        w, f = cand, fc
        step = min(step * 2.0, 1e6)
    if np.any(np.abs(w) >= weight_cap - 1e-9):
        warnings.warn(
            "proportional-rates weights hit the cap; the data separate the "
            "commented cascades perfectly",
            stacklevel=2,
        )
    names = [store.content_names[i] for i in feature_indices]
    return CoxParams(weights=w, feature_names=names, feature_indices=feature_indices)


# The recency, nearest-profile and proportional-rates rankers as they were
# before `RecencyRanker`, `NNRanker` and `CoxRanker` did their own scoring:
# module functions the classes forwarded to, plus the training-profile
# builder.  Kept with the profile constant, and with "before t" read on
# the global clock (`recency_scan`, the representative's filter), as the
# oracle for the classes' orders and profiles.


def rank_rchr(cascades, t):
    """Most recently active first, among events strictly before t, then by
    id; each cascade's recency is read once."""
    rows = []
    for i, c in enumerate(cascades):
        # the position i is unique, so sorting never compares cascades
        rows.append((-recency_scan(c, t), c.cascade_id, i, c))
    rows.sort()
    return [row[3] for row in rows]


EWMA_SMOOTHING = 0.3


def update_profile(profile, vector, smoothing=EWMA_SMOOTHING):
    """One moving-average step; the newest observation carries `smoothing`."""
    if profile is None:
        return np.asarray(vector, dtype=float).copy()
    return (1.0 - smoothing) * profile + smoothing * np.asarray(vector, dtype=float)


def cascade_representative(cascade, t, store, user=None, with_pairs=False):
    """Mean content of the cascade's events strictly before global minute t;
    optionally prefixed with the (user, post publisher) pair vector for the
    all-features variant."""
    vectors = [
        event_content(e, store.content_dim)
        for e in cascade.events
        if cascade.origin + e.time < t
    ]
    content = (
        np.mean(vectors, axis=0) if vectors else np.zeros(store.content_dim)
    )
    if not with_pairs:
        return content
    return np.concatenate([store.pair_vector(user, cascade.post.publisher), content])


def rank_nn(user, cascades, t, store, profile, with_pairs=False):
    """Ascending distance between the user's comment profile and each
    cascade representative; falls back to recency when no profile exists."""
    if profile is None:
        return rank_rchr(cascades, t)
    scores = []
    for c in cascades:
        rep = cascade_representative(c, t, store, user=user, with_pairs=with_pairs)
        scores.append(-float(np.linalg.norm(profile - rep)))
    return order_candidates(cascades, scores, t)


def rank_cox(params, cascades, t, store):
    """Descending linear score of the freshest content; user-independent."""
    scores = [
        float(params.weights @ cox_covariate(c, t, store, params.feature_indices))
        for c in cascades
    ]
    return order_candidates(cascades, scores, t)


def comment_profiles(cascades, store):
    """EWMA content profile per user from a corpus, in global time order."""
    rows = []
    for c in cascades:
        for i, e in enumerate(c.comments):
            rows.append((c.origin + e.time, c.cascade_id, i, e))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    profiles = {}
    for _, _, _, e in rows:
        v = event_content(e, store.content_dim)
        profiles[e.publisher] = update_profile(profiles.get(e.publisher), v)
    return profiles


# The feature-model fit as it was before its loop became the shared
# box-bounded core: `_newton_direction` and the iteration loop verbatim,
# with its constants and the three that were FitConfig fields (initial
# weight 0.01, step shrink 0.5, intensity floor 1e-12) written in.  Kept as the oracle
# that `fit` still takes the same iterates bit for bit.


def newton_direction_orthant(theta, grad, hess, mask):
    curv = np.diag(hess)
    band = min(1e-3, float(np.linalg.norm(
        np.where(mask, theta - np.maximum(theta - grad, 0.0), 0.0))))
    past = mask & (grad >= 0) & (theta * curv <= grad)
    within = mask & (grad > 0) & (theta <= band) & ~past
    newton = mask & ~past & ~within & (curv > 0)
    direction = np.zeros_like(theta)
    direction[past] = -theta[past]
    direction[within] = -grad[within] / curv[within]
    if newton.any():
        # Jacobi scaling, plus a ridge for singular free-set Hessians
        s = 1.0 / np.sqrt(curv[newton])
        h = s[:, None] * hess[np.ix_(newton, newton)] * s[None, :]
        h[np.diag_indices_from(h)] += 1e-10
        direction[newton] = -s * np.linalg.solve(h, s * grad[newton])
    return direction


# `fit._newton_direction` as it was before it took integer indices: the
# free block through `np.ix_` on boolean masks and the ridge through
# `np.diag_indices_from`.  Kept as the oracle for the same floats.


def newton_direction_masks(theta, grad, hess, lower, upper, mask):
    curv = np.diag(hess)
    band = min(_ACTIVE_BAND, float(np.linalg.norm(
        np.where(mask, theta - np.clip(theta - grad, lower, upper), 0.0))))
    gap = _gap(theta, grad, lower, upper)
    finite = np.isfinite(gap)  # an infinite gap is never passed; inf * 0 is not formed
    past = mask & finite & (np.where(finite, gap, 0.0) * curv <= np.abs(grad))
    within = mask & (grad != 0) & (gap <= band) & ~past
    newton = mask & ~past & ~within & (curv > 0)
    direction = np.zeros_like(theta)
    direction[past] = np.where(grad >= 0, -gap, gap)[past]
    direction[within] = -grad[within] / curv[within]
    if newton.any():
        # Jacobi scaling, plus a ridge for singular free-set Hessians
        s = 1.0 / np.sqrt(curv[newton])
        h = s[:, None] * hess[np.ix_(newton, newton)] * s[None, :]
        h[np.diag_indices_from(h)] += _RIDGE
        direction[newton] = -s * np.linalg.solve(h, s * grad[newton])
    return direction


def fit_loop(cascades, store, users, config, on_iterate=None):
    """(weights, objective trace, iterations, stop reason) of the old loop."""
    kp, kd = store.pair_dim, store.content_dim
    mask = _full_mask(config, kp, kd)
    z = penalty_weights(config.penalty)
    z_flat = np.repeat(z, [kp, kd, kp, kd])
    terms = build_corpus_terms(
        cascades, store, users, config.post_decay_rate, config.comment_decay_rate
    )

    def objective(theta, order=0):
        """Objective, or with order 2 (objective, gradient, Hessian)."""
        value, grad, hess = log_likelihood_derivatives(
            terms, theta, floor=1e-12, order=order
        )
        f = -value + float(z_flat @ theta)
        return (f, z_flat - grad, -hess) if order else f

    theta = np.where(mask, 0.01, 0.0)
    f, g, h = objective(theta, 2)
    trace = [f]
    stop_reason = "iteration cap"
    it = 0
    for it in range(1, config.max_iterations + 1):
        direction = newton_direction_orthant(theta, g, h, mask)
        step = 1.0
        while step > 1e-18:
            cand = np.maximum(theta + step * direction, 0.0)
            fc = objective(cand)
            if fc <= f and f - fc >= 1e-4 * float(g @ (theta - cand)):
                break
            step *= 0.5
        else:
            stop_reason = "line search"
            break
        theta = cand
        f_prev, f = f, fc
        trace.append(f)
        if on_iterate is not None:
            on_iterate(theta.copy())
        _, g, h = objective(theta, 2)
        if (f_prev - f) <= config.tolerance * max(1.0, abs(f_prev)):
            stop_reason = "tolerance"
            break
    return theta, trace, it, stop_reason


# The simulator as it was before its loop dropped the per-step overhead:
# every event through the checked constructor, draws by `rng.uniform`,
# each comment's content scored by `JumpTable.comment_score` and its pair
# jumps read from a column of a user-major matrix into a new vector.  Kept
# verbatim as the oracle that `simulate_corpus` still draws the same
# corpora bit for bit.


def thin_loop(config, post, rng, origin, cascade_id, jumps, pair_jumps):
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


def simulate_corpus_loop(config, n_cascades=None):
    """`simulate_corpus` on `thin_loop`, for a subcritical config."""
    n = config.n_cascades if n_cascades is None else n_cascades
    seeds = np.random.SeedSequence(config.seed).spawn(n + 1)
    post_rng = np.random.default_rng(seeds[0])
    kd = config.params.content_dim
    users = config.users
    jumps = JumpTable(config.params, config.store)
    pair_jumps = np.array([[jumps.pair(u, p)[1] for p in users] for u in users])
    cascades = []
    for i in range(n):
        publisher = config.users[i % len(config.users)]
        content = post_rng.uniform(size=kd) if kd else np.zeros(0)
        post = Event(0.0, publisher, content)
        cascades.append(
            thin_loop(
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


@pytest.fixture(scope="session")
def sim_setup():
    """One simulated corpus reused by read-only tests."""
    config = random_sim_config(
        n_users=5, pair_dim=3, content_dim=2, seed=42, n_cascades=30,
        origin_spacing=3.0,
    )
    return config, simulate_corpus(config)


# The io writers as they were before every file went through the C
# encoder: store and model files through `json.dump`, a corpus as the list
# of all its records before the first line.  Kept as the oracles for the
# same bytes.


def dump_object_json(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")


def write_corpus_list(path, cascades):
    def event_record(e, wall_clock=None):
        record = {"t": e.time, "publisher": e.publisher}
        if wall_clock is not None:
            record["wall_clock"] = wall_clock
        if e.text is not None:
            record["text"] = e.text
        if e.content_features.size:
            record["content_features"] = e.content_features.tolist()
        return record

    records = []
    for c in cascades:
        events = [
            event_record(c.post, io._wall_clock_text(c.origin) if c.origin else None)
        ]
        events += [event_record(e) for e in c.comments]
        record = {
            "cascade_id": c.cascade_id,
            "group_id": c.group_id,
            "window_end": c.window_end,
            "events": events,
        }
        if c.origin:
            record["origin"] = c.origin
        if c.truncated:
            record["truncated"] = True
        records.append(record)
    io._write_lines(path, records)

