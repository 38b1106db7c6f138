"""Write-notice processing must cost the same at any node count.

Validity is answered from the pages' stale-writer bitmask, so merging
one write notice does a fixed number of watermark lookups no matter how
many writers a page has seen.  These tests count calls, not wall time:
the counts are deterministic, so a per-check rescan of the watermark
maps (a lookup per notified writer on every validity check) shows up as
a count that grows with the writer count.
"""

from collections import Counter

import pytest

from repro.apps.em3d import Em3d
from repro.dsm.aurc import AurcPage
from repro.dsm.compact import NodeIntMap
from repro.dsm.page import TmPage
from repro.hardware.params import MachineParams
from repro.harness.runner import ProtocolConfig, run_app

WRITER_COUNTS = (16, 64, 256)
MAP_METHODS = ("get", "__getitem__", "__setitem__", "__contains__",
               "__iter__", "items", "keys", "values")


def _count_calls(monkeypatch, calls: Counter, owner, name: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _notice(page, writer: int, interval_id: int) -> bool:
    if isinstance(page, AurcPage):
        return page.record_notice(writer, interval_id, writer, 0)
    return page.record_notice(writer, interval_id)


def _page_rounds(page_cls, writers: int, monkeypatch):
    """Notice, apply, notice rounds over ``writers`` writers of one page.

    Returns (map lookups per notice, map calls made by ``is_valid``).
    """
    page = page_cls(0, 8)
    page.ensure_frame()
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        for name in MAP_METHODS:
            _count_calls(patch, calls, NodeIntMap, name)
        notices = lookups = valid_calls = 0
        for interval in (1, 2, 3):
            for writer in range(writers):
                before = calls["get"]
                _notice(page, writer, interval)
                lookups += calls["get"] - before
                notices += 1
                before = sum(calls.values())
                page.is_valid()
                valid_calls += sum(calls.values()) - before
            assert not page.is_valid()
            if interval < 3:
                for writer in range(writers):
                    page.mark_applied(writer, interval)
                assert page.is_valid()
    return lookups / notices, valid_calls


@pytest.mark.parametrize("page_cls", [TmPage, AurcPage])
def test_page_notice_lookups_do_not_grow_with_writers(page_cls,
                                                      monkeypatch):
    per_notice = {}
    for writers in WRITER_COUNTS:
        per_notice[writers], valid_calls = _page_rounds(
            page_cls, writers, monkeypatch)
        assert valid_calls == 0, "is_valid() must not touch the maps"
    assert len(set(per_notice.values())) == 1, per_notice


def _em3d_lookups_per_notice(nprocs: int, monkeypatch) -> float:
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        _count_calls(patch, calls, NodeIntMap, "get")
        _count_calls(patch, calls, AurcPage, "record_notice")
        app = Em3d(nprocs, n_nodes=512, degree=2, iterations=1)
        result = run_app(app, ProtocolConfig.aurc(),
                         params=MachineParams.preset(
                             "paper1996", n_processors=nprocs))
    assert result.verified
    assert calls["record_notice"] > 0
    return calls["get"] / calls["record_notice"]


def test_aurc_em3d_lookups_per_notice_flat_across_node_counts(monkeypatch):
    per_notice = {n: _em3d_lookups_per_notice(n, monkeypatch)
                  for n in WRITER_COUNTS}
    assert max(per_notice.values()) < 6, per_notice
    spread = max(per_notice.values()) / min(per_notice.values()) - 1
    assert spread < 0.25, per_notice
