"""The indent-2 JSON writer against json itself.

`fan.dumps_json` writes every indented JSON text of the package: fan,
embedding and certificate files and the CLI report.  On random trees it must
give json.dumps's text with an indent of 2 byte for byte, sorted or not, and
raise json's TypeError, message included, on every tree json rejects.  The
trees mix what the writer encodes itself (exact str, int, bool, None, lists,
tuples and str-keyed dicts) with what it hands back to json: floats,
subclasses, an IntEnum and dicts with non-str keys.  A list item that is
exactly [str, int] is written in one format, so pairs and near misses of
that shape are pinned as examples.
"""

import json
import math
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from toricurve.fan import dumps_json

# derandomized, so the suite is a deterministic gate; widen max_examples
# locally to search harder
PROPERTY = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class Colour(IntEnum):
    RED = 1
    DEEP = -12345678901234567890123456789012


class Name(str):
    pass


class Items(list):
    pass


class Record(dict):
    pass


# quotes, backslashes, control characters, non-ASCII, astral-plane and lone
# surrogates, which ensure_ascii writes as escapes
awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€",
                           "\U0001f600", "\U00010000", "\ud800"])
strings = st.text(st.one_of(awkward, st.characters()), max_size=6)
scalars = st.one_of(
    strings,
    st.integers(),
    st.integers(10**29, 10**40).flatmap(lambda n: st.sampled_from((n, -n))),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 1e300)),
    st.sampled_from(Colour),
    strings.map(Name),
)
other_keys = st.one_of(st.integers(-5, 5), st.floats(), st.booleans(), st.none(), strings.map(Name))
# values json rejects
unserializable = st.sampled_from((frozenset({1}), b"x", Fraction(1, 3)))


def trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=3).map(Items),
        st.dictionaries(strings, kids, max_size=4),
        st.dictionaries(strings, kids, max_size=3).map(Record),
        st.dictionaries(st.one_of(strings, other_keys), kids, max_size=3),
    ), max_leaves=30)


def same_as_json(tree) -> None:
    for sort_keys in (False, True):
        try:
            expected = json.dumps(tree, indent=2, sort_keys=sort_keys)
        except TypeError as exc:
            with pytest.raises(TypeError) as caught:
                dumps_json(tree, sort_keys=sort_keys)
            assert str(caught.value) == str(exc)
        else:
            assert dumps_json(tree, sort_keys=sort_keys) == expected


@PROPERTY
@given(trees(scalars))
@example({"b": [1, [], {}], "a": ({"z": None, "y": True},)})
@example([math.nan, math.inf, -math.inf, -0.0, 0.1])
@example({Colour.RED: [Colour.DEEP], Name("k"): Name('"\n')})
@example(Items([Record(b=1, a=[2, 3]), {3: "x", None: 2, 1.5: False}]))
@example(["\U0001f600\ud800\x00", 10**40, -(10**30)])
# [str, int] items, which the writer formats in one piece, and near misses,
# which it must not: a bool or None second, the wrong order, a tuple, a third
# entry, a pair one level down, a str subclass or an IntEnum in a pair
@example([["a\"\\é\n", 2**70], ["x", -1], ["", 0]])
@example([["x", True], ["x", False], ["x", None]])
@example([[1, "x"], ("x", 1), ["x", 1, 2], [["x", 1]], ["x"], Items(["x", 1])])
@example([[Name("x"), 1], ["x", Colour.RED], ["x", Colour.DEEP]])
@example({"b": [["x", 1]], "a": {"d": [["y", -2], ["w", 2**64]], "c": [["z", 3]]}})
def test_the_writer_writes_json_text(tree):
    same_as_json(tree)


@PROPERTY
@given(trees(st.one_of(scalars, unserializable)))
@example({"a": [1, {"b": frozenset()}]})
@example({(1, 2): 3})
@example({"a": 1, 2: "b"})  # sorted, str and int keys do not compare
def test_the_writer_rejects_what_json_rejects(tree):
    same_as_json(tree)
