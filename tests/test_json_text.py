"""cli._json_text writes the bytes of json.dumps(obj, indent=2,
allow_nan=False) and a newline (property tests).

The documents nest dicts, lists and tuples over str keys that need
escaping or none, and over floats, big ints, bools, None and strings.
NaN and both infinities raise EvaluationError with json's own text.
"""

import enum
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringwave.cli import _json_text
from ringwave.errors import EvaluationError

AWKWARD_KEYS = ["", '"', "\\", "\t", "\x7f", "é", "\U0001f600", "a b", "max_deviation"]
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300, 0.1]
KEYS = st.one_of(st.sampled_from(AWKWARD_KEYS), st.text())
SCALARS = st.one_of(
    st.sampled_from(AWKWARD_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)
OUT_OF_RANGE = [math.nan, math.inf, -math.inf]


class Level(enum.IntEnum):  # json writes an int or float subclass by value
    HIGH = 2


class Metres(float):
    def __repr__(self):
        return f"Metres({float(self)!r})"


@given(DOCUMENTS)
@example(dict(zip(AWKWARD_KEYS, AWKWARD_FLOATS + [10**30])))
@example({"frames": [{"beta": -0.0, "c1": 7.750528609238502e-09}, {}],
          "max_deviation": None, "pass": True, "grid": (-0.99, 0.0, 0.99)})
@example([(), [], {}, "", True, False, None, -(2**64), "\U0001f600\x7f\t\"\\"])
@example({"": {"é": ("\x7f",)}, '"': "plus", "\\": [1e308, -1e308]})
@example({"level": Level.HIGH, "length": Metres(1.5), "list": [Level.HIGH, Metres(-0.0)]})
@example(0.5)
@example("sign")
# each object is written from a template cached by its keys and its depth:
# one key set at two depths, a key set met float-only and then with other
# values, and float-only objects whose keys need escaping in json or in %
@example([{"x": 0.5, "y": -0.0}, [{"x": 1e-300, "y": 5e-324}], {"z": {"x": 1.5, "y": 2.5}}])
@example([{"beta": 0.5, "c1": 0.25}, {"beta": 1, "c1": 0.25}, {"beta": None, "c1": 0.25},
          {"beta": Metres(0.5), "c1": 0.25}, {"beta": 0.5, "c1": 0.25}])
@example({"é": 0.5, '"': -0.0, "\\": 1e308, "\t": 5e-324, "\U0001f600": 0.1})
@example({"%": 0.5, "%r": -0.0, "100%s": 1e-300, "%%": 2.5})
def test_json_text_is_json_dumps_with_indent_2(document):
    assert _json_text(document) == json.dumps(document, indent=2, allow_nan=False) + "\n"


@given(
    st.sampled_from(OUT_OF_RANGE),
    st.lists(st.sampled_from(["list", "tuple", "dict", "twin"]), max_size=6),
    KEYS,
)
@example(math.nan, [], "")
@example(math.inf, ["dict", "list"], "frames")
@example(-math.inf, ["tuple", "dict", "dict"], "\x7f")
@example(math.nan, ["twin"], "beta")  # its key set is met float-only first
def test_nan_and_infinities_raise_at_any_depth(bad, nesting, key):
    document = bad
    for kind in nesting:  # each level has a finite sibling before or after
        document = {"list": [0.5, document], "tuple": (document, 1),
                    "dict": {"x": 1.5, key: document},
                    "twin": [{"x": 1.5, key: 0.5}, {"x": 1.5, key: document}]}[kind]
    with pytest.raises(EvaluationError) as raised:
        _json_text(document)
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    assert str(raised.value) == f"cannot write JSON: {message}"
    with pytest.raises(ValueError) as json_raised:  # json's indent encoder says the same
        json.dumps(document, indent=2, allow_nan=False)
    assert str(json_raised.value) == message


@pytest.mark.parametrize("document", [
    {1: 0.5}, {None: 0.5}, {"a": {1.5: 0}}, [{("a",): 1}],
    {1, 2}, [b"bytes"], {"z": 1j}, object(),
], ids=["int-key", "none-key", "float-key-nested", "tuple-key",
        "set", "bytes", "complex", "object"])
def test_non_str_keys_and_unsupported_types_raise_type_error(document):
    with pytest.raises(TypeError):
        _json_text(document)
