"""The pages' stale-writer bitmask must always equal its definition.

``TmPage.stale`` and ``AurcPage.stale`` hold bit w exactly when
``notified[w] > applied[w]``.  They are kept up to date incrementally
in ``record_notice`` and ``mark_applied``, so every path that moves a
watermark is driven here in random interleavings and checked against
the recomputed set.  ``pending_writers()`` must also stay equal, element
for element and in order, to the watermark scan it replaced: its order
is the diff-request issue order that the golden cycle fixtures pin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.aurc import AurcPage
from repro.dsm.diffs import DiffRecord
from repro.dsm.page import TmPage

WORDS = 8
OWN = 0  # the node whose view the page is; it closes its own intervals

# Few writers and ids, so ops collide on one watermark often; writers
# past 63 put the mask beyond one machine word.
writers = st.sampled_from([0, 1, 2, 5, 63, 64, 200])
ids = st.integers(0, 6)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("notice"), writers, ids),
        st.tuples(st.just("applied"), writers, ids),
        st.tuples(st.just("snapshot"),
                  st.dictionaries(writers, ids, max_size=4)),
        st.tuples(st.just("close"), ids),
        st.tuples(st.just("incoming"), writers, ids),
        st.tuples(st.just("frame")),
    ),
    max_size=60)


def _model_pending(page):
    return [w for w, notice in page.notified.items()
            if notice > page.applied.get(w, 0)]


def _step(page, op):
    """Apply one op; returns the model's expected ``record_notice``
    result for notices, else None."""
    kind = op[0]
    if kind == "notice":
        _, writer, interval = op
        was_valid = page.frame is not None and not _model_pending(page)
        if isinstance(page, AurcPage):
            got = page.record_notice(writer, interval, writer, 0)
        else:
            got = page.record_notice(writer, interval)
        now_valid = page.frame is not None and not _model_pending(page)
        assert got == (was_valid and not now_valid)
    elif kind == "applied":
        page.mark_applied(op[1], op[2])
    elif kind == "frame":
        page.ensure_frame()
    elif isinstance(page, AurcPage):
        # AURC has no diffs or snapshots of its own: page replies and
        # automatic updates advance the watermarks through mark_applied.
        if kind == "snapshot":
            for writer, through in op[1].items():
                page.mark_applied(writer, through)
        elif kind == "close":
            page.mark_applied(OWN, op[1])
        else:
            page.mark_applied(op[1], op[2])
    elif kind == "snapshot":
        page.adopt_snapshot(op[1])
    elif kind == "close":
        page.arm_write_collection()
        page.record_write(0, 1, np.array([float(op[1])]))
        page.close_interval(op[1], writer=OWN)
    else:
        _, writer, to_id = op
        page.apply_incoming(DiffRecord(
            writer=writer, page=0, from_id=0, to_id=to_id,
            indices=np.array([1], dtype=np.int32),
            values=np.array([float(to_id)])))


@pytest.mark.parametrize("page_cls", [TmPage, AurcPage])
@given(ops=ops)
@settings(max_examples=150, deadline=None)
def test_stale_mask_matches_watermark_model(page_cls, ops):
    page = page_cls(0, WORDS)
    for op in ops:
        _step(page, op)
        pending = _model_pending(page)
        assert page.stale == sum(1 << w for w in pending)
        assert page.pending_writers() == pending
        assert page.is_valid() == (page.frame is not None and not pending)
