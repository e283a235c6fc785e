"""`cli.json_text` against `json.dumps(obj, indent=2)`, the layout that
`--json` promises."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ualg.cli import json_text

# text with the characters that need escapes: quotes, backslashes,
# control characters, non-ASCII and astral characters, lone surrogates
ODD_TEXT = st.sampled_from(["", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r",
                            "é", "ü ", "\U0001f600", "\ud800"])
TEXT = st.one_of(ODD_TEXT, st.text(max_size=6),
                 st.lists(ODD_TEXT, max_size=3).map("".join))
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(-2**70, 2**70),
    st.sampled_from([0, -1, 2**64, 2**64 + 1, -2**64 - 1, 10**30]),
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_matches_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_empty_containers_and_scalars():
    for obj in ([], (), {}, [[], {}, ()], {"": {}, "a": []}, None, True, 2**64, "é"):
        assert json_text(obj) == json.dumps(obj, indent=2)


class Count(int):
    pass


class Name(str):
    pass


def test_subclasses_in_json_order():
    # bool is an int subclass and is written as true/false, not 1/0;
    # other int and str subclasses are written as their values
    obj = [True, False, 1, 0, Count(3), Name("n"), {Name("k"): Count(-2)}, 1.5]
    assert json_text(obj) == json.dumps(obj, indent=2)
    assert json_text([True, 1]) == "[\n  true,\n  1\n]"


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2, 3}]}, (b"bytes",)])
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        json_text(obj)
