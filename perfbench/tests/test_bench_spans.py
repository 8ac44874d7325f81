"""Span recorder: self-time arithmetic, nesting, patch and restore."""

from __future__ import annotations

import pytest

import spans


def _span(span_id, parent, start, end, name="x.y"):
    return spans.Span(name=name, span_id=span_id, parent=parent, question=0, phase="query",
                      start=start, end=end)


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children [1, 3] and [4, 9]; the second has a child
    # [5, 7] and one [8, 12] that runs past its parent's end.
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 9.0),
        _span(3, 2, 5.0, 7.0),
        _span(4, 2, 8.0, 12.0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 4.0}


def test_overlapping_children_are_not_counted_twice():
    own = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 4.0, 8.0)])
    assert own[0] == 4.0


def test_recorder_links_parents_and_tags_questions():
    recorder = spans.Recorder()
    with recorder.scope("query", question=3):
        with recorder.span("a.outer"):
            with recorder.span("b.inner"):
                pass
        with recorder.span("a.next"):
            pass
    with recorder.span("c.untagged"):
        pass
    outer, inner, nxt, untagged = recorder.spans
    assert (outer.parent, inner.parent, nxt.parent, untagged.parent) == (None, 0, None, None)
    assert [s.question for s in recorder.spans] == [3, 3, 3, None]
    assert [s.phase for s in recorder.spans] == ["query", "query", "query", ""]
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.layer == "b"


def _snapshot(table):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in table]


def test_patch_then_restore_leaves_every_attribute_identical():
    table = spans.patch_table()
    before = _snapshot(table)
    recorder = spans.Recorder()
    with spans.patched(recorder):
        during = _snapshot(table)
        assert all(a is not b for (_, _, a), (_, _, b) in zip(before, during))
    after = _snapshot(table)
    assert all(a is b for (_, _, a), (_, _, b) in zip(before, after))


def test_restore_happens_when_the_block_raises():
    table = spans.patch_table()
    before = _snapshot(table)
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Recorder()):
            raise RuntimeError("boom")
    assert all(a is b for (_, _, a), (_, _, b) in zip(before, _snapshot(table)))


def test_patched_functions_record_spans_with_counts():
    from ragroute import agent
    from ragroute.retrieval import Bm25Index, DenseIndex
    from ragroute.corpus import Chunk
    import numpy as np

    recorder = spans.Recorder()
    chunks = [Chunk("d:00000", "d", "alpha beta", 0, 2), Chunk("d:00001", "d", "beta gamma", 2, 2)]
    dense = DenseIndex(np.eye(2, dtype=np.float32), [c.chunk_id for c in chunks])
    with spans.patched(recorder):
        with recorder.scope("query", question=0):
            agent.dense_search(dense, np.array([1.0, 0.0]), 2)
            agent.bm25_search(Bm25Index.build(chunks), ["beta", "gamma"], 2)
    names = [s.name for s in recorder.spans]
    assert names == ["retrieval.dense_search", "retrieval.bm25_build", "retrieval.bm25_search"]
    assert recorder.spans[0].counts == {"rows": 2}
    assert recorder.spans[2].counts == {"postings": 3}
