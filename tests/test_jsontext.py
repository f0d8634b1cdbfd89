import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balines.jsontext import to_json_text

_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-7, 1.5e300]))
_STRINGS = st.one_of(st.text(), st.text(alphabet='"\\/\x00\x07\x1f\x7f\n\t\r'
                                                 'é \ud800\U0001f600ab'))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(-2 ** 300, 2 ** 300), _FLOATS, _STRINGS)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_writer_is_the_indented_sorted_dump(tree):
    assert to_json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [mp.mpf(1) / 3, Fraction(1, 2), {1, 2}, b"x"],
                         ids=["mpf", "Fraction", "set", "bytes"])
def test_writer_refuses_what_json_refuses(value):
    for tree in (value, [1, {"a": value}]):
        with pytest.raises(TypeError):
            json.dumps(tree, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            to_json_text(tree)
