"""Call stacks and source locations."""

import itertools
import json
import pickle
from dataclasses import dataclass

import pytest

from repro.analysis.io import _path
from repro.runtime.callstack import CallStack, SourceLoc


@dataclass(frozen=True, order=True)
class DataclassSourceLoc:
    """``SourceLoc`` as a frozen, ordered dataclass: the semantics frames
    must keep."""

    func: str
    file: str = ""
    line: int = 0


class TestSourceLoc:
    def test_equality_and_hash(self):
        a = SourceLoc("f", "x.c", 10)
        b = SourceLoc("f", "x.c", 10)
        assert a == b
        assert hash(a) == hash(b)

    def test_ordering_is_defined(self):
        assert sorted([SourceLoc("b"), SourceLoc("a")])[0].func == "a"

    def test_str_with_and_without_file(self):
        assert "x.c:10" in str(SourceLoc("f", "x.c", 10))
        assert str(SourceLoc("f")) == "f"

    FIELDS = [("main",), ("f", "x.c", 10), ("f", "x.c", 9), ("f", "y.c", 1),
              ("g",), ("a", "", 3)]

    def test_same_semantics_as_the_dataclass(self):
        """Hash values, equality, ordering and repr among frames are the
        frozen ordered dataclass's."""
        new = [SourceLoc(*f) for f in self.FIELDS]
        old = [DataclassSourceLoc(*f) for f in self.FIELDS]
        for n, o, f in zip(new, old, self.FIELDS):
            assert hash(n) == hash(o) == hash(tuple(SourceLoc(*f)))
            assert repr(n) == repr(o).replace("DataclassSourceLoc", "SourceLoc")
        for (a, oa), (b, ob) in itertools.product(zip(new, old), repeat=2):
            assert (a == b) == (oa == ob)
            assert (a < b) == (oa < ob)
        assert [old[new.index(n)] for n in sorted(new)] == sorted(old)
        # Call paths (tuples of frames) hash and compare frame-wise.
        path = tuple(new[:3])
        assert hash(path) == hash(tuple(tuple(f) for f in path))

    def test_pickles_and_encodes_as_before(self):
        path = tuple(SourceLoc(*f) for f in self.FIELDS)
        assert pickle.loads(pickle.dumps(path)) == path
        assert type(pickle.loads(pickle.dumps(path[1]))) is SourceLoc
        # The archive encoding of a path is unchanged: [func, file, line].
        assert json.dumps(_path(path)) == json.dumps(
            [[f.func, f.file, f.line] for f in
             (DataclassSourceLoc(*f) for f in self.FIELDS)]
        )


class TestCallStack:
    def test_default_root_is_main(self):
        assert CallStack().snapshot() == (SourceLoc("main"),)

    def test_push_pop(self):
        cs = CallStack()
        cs.push(SourceLoc("g"))
        assert cs.depth == 2
        assert cs.pop() == SourceLoc("g")
        assert cs.depth == 1

    def test_cannot_pop_root(self):
        cs = CallStack()
        with pytest.raises(IndexError):
            cs.pop()

    def test_snapshot_is_immutable_copy(self):
        cs = CallStack()
        cs.push(SourceLoc("g"))
        snap = cs.snapshot()
        cs.pop()
        assert snap == (SourceLoc("main"), SourceLoc("g"))

    def test_with_leaf_appends_access_site(self):
        cs = CallStack()
        cs.push(SourceLoc("kernel"))
        path = cs.with_leaf(SourceLoc("load", "k.c", 42))
        assert path[-1] == SourceLoc("load", "k.c", 42)
        assert path[:-1] == cs.snapshot()

    def test_custom_root(self):
        cs = CallStack(SourceLoc("thread_start"))
        assert cs.snapshot()[0].func == "thread_start"
