"""Feature extraction: interaction counts and lexicon word counts.

Two families feed the model.  Publisher-user features describe the two
people around an event: five per-user character counts for each side and
five directed relationship counts for each direction of the pair, twenty
coordinates in all.  Content features describe the event text: two
structural counts plus one count per lexicon category, fifteen
coordinates with the default lexicon.

Counts are taken on the training corpus only and min-max normalized to
[0, 1] per coordinate; values computed later for unseen text are scaled
with the frozen bounds and clamped.  Users or pairs never seen in
training read as zero vectors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import Cascade, Event, corpus_participants
from .errors import ConfigError

CHARACTER_FEATURES = (
    "activity",          # posts made
    "attractiveness",    # comments received on own posts
    "sociability",       # comments made
    "responsiveness",    # distinct posts commented on
    "connectivity",      # distinct users whose posts one commented on
)

RELATIONSHIP_FEATURES = (
    "post_influence",            # comments a makes on b's posts
    "comment_influence",         # comments a makes after some earlier comment by b
    "direct_post_influence",     # times a is the first commenter on b's post
    "direct_comment_influence",  # times a comments immediately after b's comment
    "co_commenting",             # distinct posts where a comments after b commented
)

STRUCTURAL_CONTENT_FEATURES = ("lng:word_count", "lng:long_words")

# Example words for every lexicon category, small but real enough to drive
# the whole text pipeline end to end.
DEMO_LEXICON_WORDS = {
    "lng:pronouns": ("i", "them", "itself"),
    "lng:common_verbs": ("walk", "went", "see"),
    "lng:adverbs": ("very", "really", "quickly"),
    "lng:quantifiers": ("few", "many", "much"),
    "lng:numbers": ("second", "thousand"),
    "lng:swear_words": ("damn", "piss", "fuck"),
    "psy:social_processes": ("mate", "talk", "they", "child"),
    "psy:affective_processes": ("happy", "cried", "abandon"),
    "psy:positive_emotion": ("love", "nice", "sweet"),
    "psy:negative_emotion": ("hurt", "ugly", "nasty"),
    "psy:cognitive_processes": ("cause", "know", "ought"),
    "psy:perceptual_processes": ("observing", "heard", "feeling"),
    "psy:biological_processes": ("eat", "blood", "pain"),
}

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(text):
    """Lowercase and split on every non-alphanumeric run."""
    return [tok for tok in _TOKEN_SPLIT.split(text.lower()) if tok]


@dataclass(eq=False)
class Lexicon:
    """Ordered word categories with exact or prefix matching.

    In prefix mode an entry ending in '*' matches every token that starts
    with the stem; entries without '*' still match exactly.
    """

    categories: dict[str, frozenset[str]]
    matching_mode: str = "exact"

    def __post_init__(self):
        if self.matching_mode not in ("exact", "prefix"):
            raise ConfigError(f"unknown lexicon matching mode {self.matching_mode!r}")
        if not self.categories:
            raise ConfigError("lexicon has no categories")
        clean = {}
        self._stems = {}
        for cat, words in self.categories.items():
            words = frozenset(w.lower() for w in words)
            if not words:
                raise ConfigError(f"lexicon category {cat!r} is empty")
            clean[cat] = words
            if self.matching_mode == "prefix":
                self._stems[cat] = tuple(w[:-1] for w in words if w.endswith("*"))
                clean[cat] = frozenset(w for w in words if not w.endswith("*"))
        self.categories = clean

    def count(self, tokens, category):
        words = self.categories[category]
        n = sum(1 for tok in tokens if tok in words)
        stems = self._stems.get(category)
        if stems:
            n += sum(1 for tok in tokens if any(tok.startswith(s) for s in stems))
        return n

    def words(self, category):
        """Entries as written, wildcards restored; for serialization."""
        out = sorted(self.categories[category])
        out += sorted(s + "*" for s in self._stems.get(category, ()))
        return out


def demo_lexicon():
    return Lexicon({cat: frozenset(words) for cat, words in DEMO_LEXICON_WORDS.items()})


def table_pair_manifest():
    """The twenty publisher-user coordinate names, in storage order."""
    names = [f"chr_pub:{n}" for n in CHARACTER_FEATURES]
    names += [f"chr_user:{n}" for n in CHARACTER_FEATURES]
    names += [f"rltn_pub:{n}" for n in RELATIONSHIP_FEATURES]
    names += [f"rltn_user:{n}" for n in RELATIONSHIP_FEATURES]
    return names


def content_manifest(lexicon):
    return list(STRUCTURAL_CONTENT_FEATURES) + list(lexicon.categories)


def content_features(text, lexicon):
    """Raw counts for one piece of text: word count, long words, then one
    count per lexicon category in manifest order."""
    tokens = tokenize(text)
    counts = [len(tokens), sum(1 for tok in tokens if len(tok) > 6)]
    counts += [lexicon.count(tokens, cat) for cat in lexicon.categories]
    return np.array(counts, dtype=float)


def content_key(cascade_id, index):
    """Key of an event in the store's content map; index 0 is the post."""
    return f"{cascade_id}:{index}"


@dataclass(eq=False)
class FeatureStore:
    """Feature lookups for the model, plus the bounds that froze them.

    Two storage layers exist.  Corpus-derived stores hold per-user
    character vectors and sparse directed relationship vectors and compose
    publisher-user vectors on demand.  Synthetic or custom stores can
    instead carry explicit vectors in `pairs`, keyed (user, publisher).
    The per-event content map and `content_from_text` are read by
    `annotate_corpus` alone, which puts each event's vector on the event.
    """

    pair_names: list[str]
    content_names: list[str]
    character: dict = field(default_factory=dict)
    relationship: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    content: dict = field(default_factory=dict)
    character_bounds: tuple | None = None
    relationship_bounds: tuple | None = None
    content_bounds: tuple | None = None
    lexicon: Lexicon | None = None
    normalized: bool = False

    def __post_init__(self):
        if (self.character or self.relationship) and len(self.pair_names) != 2 * len(
            CHARACTER_FEATURES
        ) + 2 * len(RELATIONSHIP_FEATURES):
            raise ConfigError(
                "composed stores need one pair name per character/relationship "
                "coordinate on each side"
            )

    @property
    def pair_dim(self):
        return len(self.pair_names)

    @property
    def content_dim(self):
        return len(self.content_names)

    def pair_vector(self, user, publisher):
        """Features of (publisher -> user) influence; zeros where unknown."""
        if self.pairs:
            v = self.pairs.get((user, publisher))
            return v if v is not None else np.zeros(self.pair_dim)
        if not self.character and not self.relationship:
            return np.zeros(self.pair_dim)
        k = len(CHARACTER_FEATURES)
        r = len(RELATIONSHIP_FEATURES)
        zeros_c = np.zeros(k)
        zeros_r = np.zeros(r)
        return np.concatenate([
            self.character.get(publisher, zeros_c),
            self.character.get(user, zeros_c),
            self.relationship.get((publisher, user), zeros_r),
            self.relationship.get((user, publisher), zeros_r),
        ])

    def content_from_text(self, text):
        """Normalized, clamped content vector for unseen text."""
        if self.lexicon is None:
            raise ConfigError("store has no lexicon, cannot extract from text")
        if self.content_bounds is None:
            raise ConfigError("store has no content bounds, normalize on training data first")
        raw = content_features(text, self.lexicon)
        return _apply_bounds(raw, self.content_bounds, clamp=True)


def _minmax_bounds(rows):
    stacked = np.vstack(rows)
    return stacked.min(axis=0), stacked.max(axis=0)


def _apply_bounds(values, bounds, clamp=False):
    lo, hi = bounds
    span = hi - lo
    out = np.zeros_like(values, dtype=float)
    varying = span > 0
    out[varying] = (values[varying] - lo[varying]) / span[varying]
    # constant coordinates carry no information and read as 0
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out


def extract_features(cascades, lexicon=None):
    """Raw (unnormalized) feature store for a corpus.

    One pass accumulates every character and relationship count; content
    counts come from event text where present.  Events that already carry
    content vectors keep them and stay out of the raw content map.  The
    users are the corpus participants, so every poster and commenter has a
    character row.
    """
    k = len(CHARACTER_FEATURES)
    char = {u: np.zeros(k) for u in corpus_participants(cascades)}
    rel = {}

    def rel_row(a, b):
        row = rel.get((a, b))
        if row is None:
            row = rel[(a, b)] = np.zeros(len(RELATIONSHIP_FEATURES))
        return row

    content = {}
    content_dim = None
    if lexicon is not None:
        content_dim = len(STRUCTURAL_CONTENT_FEATURES) + len(lexicon.categories)

    for cascade in cascades:
        poster = cascade.post.publisher
        char[poster][0] += 1
        char[poster][1] += len(cascade.comments)
        first_commenter_seen = False
        commented_before = set()
        credited_co = set()
        prev_publisher = None
        for e in cascade.comments:
            a = e.publisher
            char[a][2] += 1
            if not first_commenter_seen:
                rel_row(a, poster)[2] += 1
                first_commenter_seen = True
            rel_row(a, poster)[0] += 1
            for b in commented_before:
                rel_row(a, b)[1] += 1
                if (a, b) not in credited_co:
                    rel_row(a, b)[4] += 1
                    credited_co.add((a, b))
            if prev_publisher is not None:
                rel_row(a, prev_publisher)[3] += 1
            commented_before.add(a)
            prev_publisher = a
        for idx, e in enumerate(cascade.events):
            if e.content_features.size:
                if content_dim is not None and e.content_features.size != content_dim:
                    raise ConfigError(
                        f"cascade {cascade.cascade_id}: event {idx} carries "
                        f"{e.content_features.size} content features, lexicon "
                        f"implies {content_dim}"
                    )
                continue
            if e.text is not None and lexicon is not None:
                content[content_key(cascade.cascade_id, idx)] = content_features(
                    e.text, lexicon
                )

    # distinct-count character coordinates need their own pass over the pairs
    posts_by = {}
    authors_by = {}
    for cascade in cascades:
        for e in cascade.comments:
            posts_by.setdefault(e.publisher, set()).add(cascade.cascade_id)
            authors_by.setdefault(e.publisher, set()).add(cascade.post.publisher)
    for u, row in char.items():
        row[3] = len(posts_by.get(u, ()))
        row[4] = len(authors_by.get(u, ()))

    names = (
        content_manifest(lexicon)
        if lexicon is not None
        else list(STRUCTURAL_CONTENT_FEATURES)
    )
    return FeatureStore(
        pair_names=table_pair_manifest(),
        content_names=names,
        character=char,
        relationship=rel,
        content=content,
        lexicon=lexicon,
        normalized=False,
    )


def normalize_store(store):
    """Min-max normalize a raw store in place of its values, freezing bounds.

    Bounds come from the extracted entries themselves; absent relationship
    pairs count as zero rows, which pins that family's minimum at zero.
    """
    if store.normalized:
        return store
    character = dict(store.character)
    relationship = dict(store.relationship)
    content = dict(store.content)
    char_bounds = rel_bounds = content_bounds = None
    if character:
        char_bounds = _minmax_bounds(list(character.values()))
        character = {u: _apply_bounds(v, char_bounds) for u, v in character.items()}
    if relationship:
        rows = list(relationship.values()) + [np.zeros(len(RELATIONSHIP_FEATURES))]
        rel_bounds = _minmax_bounds(rows)
        relationship = {k: _apply_bounds(v, rel_bounds) for k, v in relationship.items()}
    if content:
        content_bounds = _minmax_bounds(list(content.values()))
        content = {k: _apply_bounds(v, content_bounds) for k, v in content.items()}
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


def build_feature_store(cascades, lexicon=None):
    """Extract on the given (training) corpus and normalize."""
    return normalize_store(extract_features(cascades, lexicon))


def annotate_corpus(cascades, store):
    """The corpus with each event's content vector filled in by the one
    rule: its own vector, else the store's map entry, else the store's
    lexicon on its text, else none (read as zeros).  Every reader, serving
    included, takes the vector from the event, so a corpus is annotated
    before `prioritize` or `intensity` sees it, as `rank` and `evaluate`
    do.  A cascade with nothing to fill is returned as it is."""
    from_text = store.lexicon is not None and store.content_bounds is not None
    out = []
    for c in cascades:
        events = None
        for idx, e in enumerate(chain((c.post,), c.comments)):
            if e.content_features.size:
                continue
            v = store.content.get(content_key(c.cascade_id, idx))
            if v is None and from_text and e.text is not None:
                v = store.content_from_text(e.text)
            if v is not None:
                events = events or c.events
                events[idx] = Event(e.time, e.publisher, np.asarray(v, dtype=float), e.text)
        out.append(c if events is None else Cascade(
            c.cascade_id, events[0], events[1:], c.window_end,
            c.group_id, c.origin, c.truncated))
    return out


FEATURE_SETS = ("all", "chr", "rltn", "lng", "psy")


def feature_set_masks(set_name, pair_names, content_names):
    """Boolean masks selecting a named coordinate family.

    chr and rltn select publisher-user coordinates; lng and psy select
    content coordinates by their manifest prefix; all selects everything.
    """
    pair_names = list(pair_names)
    content_names = list(content_names)
    if set_name == "all":
        return (np.ones(len(pair_names), bool), np.ones(len(content_names), bool))
    if set_name == "chr":
        pair = np.array([n.startswith(("chr_pub:", "chr_user:")) for n in pair_names])
        content = np.zeros(len(content_names), bool)
    elif set_name == "rltn":
        pair = np.array([n.startswith(("rltn_pub:", "rltn_user:")) for n in pair_names])
        content = np.zeros(len(content_names), bool)
    elif set_name == "lng":
        pair = np.zeros(len(pair_names), bool)
        content = np.array([n.startswith("lng:") for n in content_names])
    elif set_name == "psy":
        pair = np.zeros(len(pair_names), bool)
        content = np.array([n.startswith("psy:") for n in content_names])
    else:
        raise ConfigError(f"unknown feature set {set_name!r}, pick from {FEATURE_SETS}")
    if not pair.any() and not content.any():
        raise ConfigError(
            f"feature set {set_name!r} selects nothing in this manifest"
        )
    return pair, content
