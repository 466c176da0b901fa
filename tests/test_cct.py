"""Calling context trees: construction, attribution, traversal."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiler.cct import CCT, DUMMY_ACCESS, DUMMY_FIRST_TOUCH, CCTNode
from repro.runtime.callstack import SourceLoc

MAIN = SourceLoc("main")
F = SourceLoc("f", "a.c", 1)
G = SourceLoc("g", "a.c", 2)
H = SourceLoc("h", "a.c", 3)


class TestNodeCreation:
    def test_node_for_creates_path(self):
        cct = CCT()
        node = cct.node_for((MAIN, F, G))
        assert node.frame == G
        assert node.parent.frame == F
        assert node.parent.parent is cct.root

    def test_node_for_reuses_nodes(self):
        cct = CCT()
        a = cct.node_for((MAIN, F))
        b = cct.node_for((MAIN, F))
        assert a is b

    def test_root_frame_deduplicated(self):
        cct = CCT()
        with_root = cct.node_for((MAIN, F))
        without_root = cct.node_for((F,))
        assert with_root is without_root

    def test_path_roundtrip(self):
        cct = CCT()
        node = cct.node_for((MAIN, F, G, H))
        assert node.path() == (MAIN, F, G, H)


class TestMetrics:
    def test_attribute_accumulates(self):
        cct = CCT()
        cct.attribute((MAIN, F), {"M": 3.0})
        cct.attribute((MAIN, F), {"M": 2.0})
        assert cct.node_for((MAIN, F)).metrics["M"] == 5.0

    def test_zero_values_not_stored(self):
        cct = CCT()
        node = cct.attribute((MAIN, F), {"M": 0.0})
        assert "M" not in node.metrics

    def test_subtree_metric(self):
        cct = CCT()
        cct.attribute((MAIN, F), {"M": 1.0})
        cct.attribute((MAIN, F, G), {"M": 2.0})
        cct.attribute((MAIN, H), {"M": 4.0})
        assert cct.node_for((MAIN, F)).subtree_metric("M") == 3.0
        assert cct.total("M") == 7.0

    def test_missing_metric_is_zero(self):
        cct = CCT()
        assert cct.total("NOPE") == 0.0


class TestTraversal:
    def test_walk_preorder(self):
        cct = CCT()
        cct.node_for((MAIN, F, G))
        cct.node_for((MAIN, H))
        frames = [n.frame.func for n in cct.root.walk()]
        assert frames[0] == "main"
        assert set(frames) == {"main", "f", "g", "h"}

    def test_walk_matches_recursive_preorder_on_deep_wide_tree(self):
        """The explicit-stack walk visits nodes in the recursive
        pre-order, so ``subtree_metric`` sums the same floats in the
        same order."""

        def recursive(node):
            yield node
            for child in node.children.values():
                yield from recursive(child)

        rng = random.Random(3)
        cct = CCT()
        locs = [SourceLoc(f"f{i}", "t.c", i) for i in range(12)]
        for _ in range(400):
            # Paths up to 60 frames deep over a 12-frame alphabet: wide
            # near the root, a few long chains below.
            depth = rng.choice((1, 2, 3, 5, 60))
            path = (MAIN,) + tuple(rng.choice(locs) for _ in range(depth))
            cct.attribute(path, {"M": rng.uniform(0.1, 1e6)})
        ref = list(recursive(cct.root))
        assert len(ref) > 2000
        got = list(cct.root.walk())
        assert [id(n) for n in got] == [id(n) for n in ref]
        for node in ref[::97]:
            want = sum(n.metrics.get("M", 0.0) for n in recursive(node))
            assert node.subtree_metric("M") == want
        assert cct.total("M") == sum(n.metrics.get("M", 0.0) for n in ref)

    def test_n_nodes(self):
        cct = CCT()
        cct.node_for((MAIN, F, G))
        cct.node_for((MAIN, F, H))
        assert cct.n_nodes() == 4

    def test_find_by_function(self):
        cct = CCT()
        cct.node_for((MAIN, F, G))
        cct.node_for((MAIN, H, G))
        assert len(cct.find("g")) == 2
        assert cct.find("missing") == []


class TestDummyFrames:
    def test_dummy_separators_distinct(self):
        assert DUMMY_ACCESS != DUMMY_FIRST_TOUCH

    def test_mixed_path_attribution(self):
        """Allocation path + dummy + access path forms one augmented path."""
        cct = CCT()
        alloc = (MAIN, SourceLoc("operator new[]"))
        access = (MAIN, F)
        cct.attribute(alloc + (DUMMY_ACCESS,) + access, {"M": 1.0})
        node = cct.node_for(alloc + (DUMMY_ACCESS,) + access)
        assert node.metrics["M"] == 1.0
        assert DUMMY_ACCESS in [f.frame for f in _ancestors(node)]


def _ancestors(node: CCTNode):
    while node is not None:
        yield node
        node = node.parent


# ---------------------------------------------------------------------- #

frames = st.sampled_from([MAIN, F, G, H])
paths = st.lists(frames, min_size=1, max_size=5).map(lambda p: (MAIN,) + tuple(p))


@given(attributions=st.lists(st.tuples(paths, st.floats(0.1, 100)), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_total_equals_sum_of_attributions(attributions):
    """Invariant: the tree total of a metric equals the sum of everything
    attributed, regardless of path structure."""
    cct = CCT()
    expected = 0.0
    for path, value in attributions:
        cct.attribute(path, {"M": value})
        expected += value
    assert cct.total("M") == pytest.approx(expected)


@given(ps=st.lists(paths, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_node_count_bounded_by_frames(ps):
    """The CCT never holds more nodes than 1 + total frames attributed."""
    cct = CCT()
    for p in ps:
        cct.node_for(p)
    assert cct.n_nodes() <= 1 + sum(len(p) for p in ps)
