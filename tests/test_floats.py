from __future__ import annotations

from tweetflow.floats import _sum_left


def test_adds_left_to_right_uncompensated():
    # CPython 3.12's builtin sum() compensates and gives 1.0 here
    assert repr(_sum_left([0.1] * 10)) == "0.9999999999999999"


def test_order_of_terms_matters():
    assert _sum_left([1e16, 1.0, 1.0]) == 1e16
    assert _sum_left([1.0, 1.0, 1e16]) == 1e16 + 2.0


def test_empty_and_generator_inputs():
    assert _sum_left([]) == 0.0
    assert _sum_left(x * x for x in (0.5, 1.5)) == 2.5
