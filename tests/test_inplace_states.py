"""The streaming state moves in place, and only forward.

`IntensityState.advance` and `JumpTable.absorb` move the state they are
given, so `IntensityRanker`, and HWK's `PairwiseRanker`, updates the
states it owns without a copy per call (its traces and live states are
pinned to the copying oracle in test_jump_table.py).  They land on the
floats of conftest's copying oracles, and nothing moves a state back in
time.
"""

from dataclasses import astuple

import pytest

from hawkesfeed.core import IntensityState, JumpTable
from hawkesfeed.rank_eval import IntensityRanker

from conftest import (
    comment_influence,
    decayed_copy,
    direct_store,
    make_cascade,
    make_params,
)


def state():
    return IntensityState("ana", "c0", 0.7, 0.3, 1.0)


def test_advance_and_absorb_move_the_state_itself_to_the_copies_floats():
    params, store, s = make_params(), direct_store(), state()
    comment = make_cascade([(4.0, "bo")]).comments[0]
    want = decayed_copy(s, 2.5, params)
    assert s.advance(2.5, params) == want.intensity
    assert s == want
    want = decayed_copy(s, 4.0, params)
    want.comment_term += comment_influence("ana", comment, params, store)
    assert JumpTable(params, store).absorb(s, comment, 4.0) is s
    assert s == want


def test_advance_refuses_to_rewind_and_leaves_the_state():
    params, s = make_params(), state()
    before = astuple(s)
    with pytest.raises(ValueError, match="rewind"):
        s.advance(0.5, params)
    assert astuple(s) == before


def test_ranking_or_absorbing_before_a_live_state_clock_raises():
    params, store = make_params(), direct_store()
    a = make_cascade([(1.0, "bo")], cascade_id="A")
    b = make_cascade([(2.0, "cy")], cascade_id="B")
    ranker = IntensityRanker(params, store)
    ranker.rank("ana", 5.0, [a, b])
    held = {cid: astuple(users["ana"]) for cid, users in ranker.states.items()}
    with pytest.raises(ValueError, match="rewind"):
        ranker.rank("ana", 4.0, [a, b])
    # every state sits at 5.0, so the first advance refuses and none moves
    assert {cid: astuple(users["ana"]) for cid, users in ranker.states.items()} == held
    with pytest.raises(ValueError, match="rewind"):
        ranker.absorb(a, a.comments[0], 4.0)
