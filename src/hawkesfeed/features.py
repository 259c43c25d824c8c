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

Each thing is done once.  `Lexicon.counts` walks a text's tokens once
for all categories (a token counts at most once per category).  A
corpus's texts are counted into one matrix (`content_counts`), and a
family of vectors is scaled by one `_apply_bounds` call on its stacked
rows: the scaling is elementwise, so every row gets the floats it would
get alone.  `annotate_corpus` checks all the vectors it fills in at once
and builds the events without repeating the `Event` checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, groupby

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
    with the stem; entries without '*' still match exactly.  A token counts
    at most once per category, whether it matches a word, a stem, or both.
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
        # exact word -> positions of the categories holding it, and every
        # (stem, position) pair: what `counts` reads for each token
        index = {}
        for i, words in enumerate(clean.values()):
            for w in words:
                index.setdefault(w, []).append(i)
        self._index = {w: tuple(cats) for w, cats in index.items()}
        self._stem_pairs = tuple(
            (stem, i) for i, cat in enumerate(clean)
            for stem in self._stems.get(cat, ()))

    def counts(self, tokens):
        """The number of tokens in each category, in category order, from
        one pass over the tokens."""
        out = [0] * len(self.categories)
        index, stem_pairs = self._index, self._stem_pairs
        for tok in tokens:
            hits = index.get(tok, ())
            if stem_pairs:
                hits = set(hits)
                hits.update(i for stem, i in stem_pairs if tok.startswith(stem))
            for i in hits:
                out[i] += 1
        return out

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


def content_counts(texts, lexicon):
    """Raw counts for several texts as the rows of one (n, d) matrix: word
    count, long words, then one count per lexicon category in manifest
    order."""
    rows = []
    for text in texts:
        tokens = tokenize(text)
        rows.append([len(tokens), sum(1 for tok in tokens if len(tok) > 6),
                     *lexicon.counts(tokens)])
    width = len(STRUCTURAL_CONTENT_FEATURES) + len(lexicon.categories)
    return np.array(rows, dtype=float).reshape(len(rows), width)


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
    The per-event content map and `content_from_texts` are read by
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

    def content_from_texts(self, texts):
        """Normalized, clamped content vectors for unseen texts, as the rows
        of one matrix."""
        if self.lexicon is None:
            raise ConfigError("store has no lexicon, cannot extract from text")
        if self.content_bounds is None:
            raise ConfigError("store has no content bounds, normalize on training data first")
        return _apply_bounds(content_counts(texts, self.lexicon), self.content_bounds,
                             clamp=True)


def _apply_bounds(values, bounds, clamp=False):
    """Min-max scaling of a vector, or of each row of a matrix: elementwise,
    so a row of a matrix gets the floats it would get alone."""
    lo, hi = bounds
    span = hi - lo
    out = np.zeros_like(values, dtype=float)
    varying = span > 0
    out[..., varying] = (values[..., varying] - lo[varying]) / span[varying]
    # constant coordinates carry no information and read as 0
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out


def _normalized(vectors, pinned=None):
    """Min-max bounds of a {key: vector} map and the map scaled by them,
    every vector by one `_apply_bounds` call; a `pinned` row counts toward
    the bounds only."""
    stacked = np.vstack(list(vectors.values()))
    rows = stacked if pinned is None else np.vstack([stacked, pinned])
    bounds = rows.min(axis=0), rows.max(axis=0)
    return bounds, dict(zip(vectors, _apply_bounds(stacked, bounds)))


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

    text_keys, texts = [], []
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
                text_keys.append(content_key(cascade.cascade_id, idx))
                texts.append(e.text)

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

    content = {}
    if texts:
        content = dict(zip(text_keys, content_counts(texts, lexicon)))
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
    character, relationship, content = {}, {}, {}
    char_bounds = rel_bounds = content_bounds = None
    if store.character:
        char_bounds, character = _normalized(store.character)
    if store.relationship:
        rel_bounds, relationship = _normalized(
            store.relationship, np.zeros(len(RELATIONSHIP_FEATURES)))
    if store.content:
        content_bounds, content = _normalized(store.content)
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
    do.  A cascade with nothing to fill is returned as it is.

    The texts to fill are counted and bounded as one matrix, and every new
    vector is checked once, together, to be one-dimensional and lie in
    [0, 1] (a NaN is refused too), as the `Event` constructor would check
    it; the events are then built without the constructor's checks.  When
    the batch fails, the vectors go through the constructor in corpus
    order, so the first one refused raises the constructor's own error."""
    from_text = store.lexicon is not None and store.content_bounds is not None
    filled, texts = [], []  # (cascade position, event index, map vector or None)
    for pos, c in enumerate(cascades):
        for idx, e in enumerate(chain((c.post,), c.comments)):
            if e.content_features.size:
                continue
            v = store.content.get(content_key(c.cascade_id, idx))
            if v is not None:
                v = np.asarray(v, dtype=float)
                # a vector of another shape is refused below, in corpus order
                filled.append((pos, idx, np.ascontiguousarray(v) if v.ndim == 1 else v))
            elif from_text and e.text is not None:
                filled.append((pos, idx, None))
                texts.append(e.text)
    out = list(cascades)
    if not filled:
        return out
    from_texts = iter(store.content_from_texts(texts) if texts else ())
    vectors = [next(from_texts) if v is None else v for _, _, v in filled]
    values = np.concatenate(vectors) if all(v.ndim == 1 for v in vectors) else None
    # written so that a NaN, which fails every comparison, is refused too
    if values is None or (values.size and not (values.min() >= 0.0 and values.max() <= 1.0)):
        for v in vectors:  # the constructor refuses the first bad one, in corpus order
            Event(0.0, "", v)
    for pos, group in groupby(zip(filled, vectors), key=lambda item: item[0][0]):
        c = out[pos]
        events = c.events
        for (_, idx, _), v in group:
            e = events[idx]
            events[idx] = Event._trusted(e.time, e.publisher, v, e.text)
        out[pos] = Cascade(c.cascade_id, events[0], events[1:], c.window_end,
                           c.group_id, c.origin, c.truncated)
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
