import itertools

import pytest

from ualg import BudgetExceeded, build_truncated, search_bounded_retraction
from ualg.core import UalgError
from ualg.free_semigroup import word_str


def test_element_count_and_order():
    T = build_truncated(["a", "b"], 3)
    assert len(T.elements) == 2 + 4 + 8
    assert T.elements[0] == ("a",)
    assert T.elements[2] == ("a", "a")
    assert [word_str(w) for w in T.elements[:6]] == ["a", "b", "aa", "ab", "ba", "bb"]


def test_partial_concatenation():
    T = build_truncated(["a"], 3)
    assert T.concat(("a",), ("a", "a")) == ("a", "a", "a")
    assert T.concat(("a", "a"), ("a", "a")) is None


def test_build_guards():
    with pytest.raises(UalgError):
        build_truncated([], 3)
    with pytest.raises(UalgError):
        build_truncated(["a", "a"], 3)
    with pytest.raises(UalgError):
        build_truncated(["a"], 0)
    with pytest.raises(BudgetExceeded):
        build_truncated(["a", "b", "c"], 12, budget=1000)


def test_structure_checks():
    # (uv)w = u(vw), and uw = vw or wu = wv only if u = v, wherever defined
    T = build_truncated(["a", "b"], 4)
    for u, v, w in itertools.product(T.elements, repeat=3):
        uv, vw = T.concat(u, v), T.concat(v, w)
        if uv is not None and vw is not None:
            left, right = T.concat(uv, w), T.concat(u, vw)
            assert left is None or right is None or left == right
        if u != v:
            assert T.concat(u, w) is None or T.concat(u, w) != T.concat(v, w)
            assert T.concat(w, u) is None or T.concat(w, u) != T.concat(w, v)


def test_identity_retraction_when_k_equals_bound():
    T = build_truncated(["a", "b"], 3)
    result = search_bounded_retraction(T, 3)
    assert result.found == {w: w for w in T.elements}
    assert result.transcript == ()


def test_absence_one_generator():
    T = build_truncated(["a"], 8)
    result = search_bounded_retraction(T, 3)
    assert result.absent
    assert result.transcript
    last = result.transcript[-1]
    assert last.forced is None
    # the forced chain r(a^{m+1}) = r(a^m)r(a) breaks as soon as the
    # forced image leaves the retract
    assert "length 4 > 3" in last.note


def test_absence_two_generators():
    T = build_truncated(["a", "b"], 6)
    result = search_bounded_retraction(T, 2)
    assert result.absent
    assert any(s.forced is None for s in result.transcript)


def test_absence_for_all_proper_bounds():
    # the bounded echo of free semigroups never being proper retracts
    for L in range(2, 8):
        for k in range(1, L):
            T = build_truncated(["a"], L)
            assert search_bounded_retraction(T, k).absent, (L, k)


def test_guard_validation():
    T = build_truncated(["a"], 4)
    with pytest.raises(UalgError):
        search_bounded_retraction(T, 0)
    with pytest.raises(UalgError):
        search_bounded_retraction(T, 5)
