import math
import warnings

import numpy as np
import pytest

from hawkesfeed.baselines import (
    ACTIVITY_HORIZON,
    WEIGHT_CAP,
    CoxParams,
    _PairDesign,
    cox_covariate,
    order_candidates,
)
from hawkesfeed.core import Cascade, Event, IntensityState, ModelParams, event_content
from hawkesfeed.errors import ConfigError, EstimationError
from hawkesfeed.features import DEMO_LEXICON_WORDS, FeatureStore, build_feature_store
from hawkesfeed.fit import _full_mask
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
    """`decay_state` as it was before the decay moved into
    `IntensityState.advance`: a new state, both terms decayed to t2."""
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


# The proportional-rates baseline as it was before its risk sets were
# stacked: a linear scan for the covariate, a list of (rows, target) pairs
# per comment and a Python loop over them per evaluation.  Kept verbatim
# as the oracle for `cox_covariate`, `_cox_design`, the partial likelihood,
# its gradient and `fit_cox`.


def cox_covariate_scan(cascade, t, store, feature_indices):
    """Content of the cascade's most recent event strictly before t."""
    local_t = t - cascade.origin
    latest = None
    for idx, e in enumerate(cascade.events):
        if e.time >= local_t:
            break
        latest = (idx, e)
    if latest is None:
        return np.zeros(len(feature_indices))
    _, e = latest
    return event_content(e, store.content_dim)[feature_indices]


def cox_design_loop(cascades, store, feature_indices, activity_horizon):
    """Per observed comment: covariate rows of its risk set and the target row.

    The risk set holds cascades initiated before the comment and active
    (last event within the horizon); the comment's own cascade is always
    included so every term is well defined.
    """
    steps = []
    for c in cascades:
        for e in c.comments:
            steps.append((c.origin + e.time, c.cascade_id, c))
    steps.sort(key=lambda s: (s[0], s[1]))
    design = []
    for t, target_id, target in steps:
        rows = []
        target_row = None
        for c in cascades:
            if c.cascade_id == target_id:
                in_risk = True
            else:
                last = c.last_event_global(before=t)
                in_risk = (
                    c.origin < t and last is not None and t - last <= activity_horizon
                )
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
    """Maximize the partial likelihood by gradient ascent with backtracking.

    The partial likelihood is concave; separation would push weights to
    infinity, so coordinates are capped at +-weight_cap with a warning.
    """
    if feature_indices is None:
        feature_indices = np.arange(store.content_dim)
    feature_indices = np.asarray(feature_indices, dtype=int)
    if feature_indices.size == 0:
        raise EstimationError("no content features selected")
    design = cox_design_loop(cascades, store, feature_indices, activity_horizon)
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
# builder.  Kept verbatim, with the profile constant, as the oracle for
# the classes' orders and profiles.


def rank_rchr(cascades, t):
    """Most recently active first, among events strictly before t, then by
    id; each cascade's recency is read once."""
    rows = []
    for i, c in enumerate(cascades):
        last = c.last_event_global(before=t)
        # the position i is unique, so sorting never compares cascades
        rows.append((math.inf if last is None else -last, c.cascade_id, i, c))
    rows.sort()
    return [row[3] for row in rows]


EWMA_SMOOTHING = 0.3


def update_profile(profile, vector, smoothing=EWMA_SMOOTHING):
    """One moving-average step; the newest observation carries `smoothing`."""
    if profile is None:
        return np.asarray(vector, dtype=float).copy()
    return (1.0 - smoothing) * profile + smoothing * np.asarray(vector, dtype=float)


def cascade_representative(cascade, t, store, user=None, with_pairs=False):
    """Mean content of the cascade's events strictly before relative time
    t - origin; optionally prefixed with the (user, post publisher) pair
    vector for the all-features variant."""
    local_t = t - cascade.origin
    vectors = [
        event_content(e, store.content_dim)
        for e in cascade.events
        if e.time < local_t
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


@pytest.fixture(scope="session")
def sim_setup():
    """One simulated corpus reused by read-only tests."""
    config = random_sim_config(
        n_users=5, pair_dim=3, content_dim=2, seed=42, n_cascades=30,
        origin_spacing=3.0,
    )
    return config, simulate_corpus(config)
