"""Float sums with the same bits on every supported Python.

CPython 3.12 made builtin sum() of floats compensated, so sum([0.1] * 10)
is 1.0 there and 0.9999999999999999 on 3.10 and 3.11. Every float sum
that reaches an output goes through _sum_left instead, which adds the
terms one at a time as the 3.10 and 3.11 builtin does. The name is
private because it runs once per TF-IDF row: perfbench/layertrace.py
times every public tweetflow function, one span per call.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from operator import add


def _sum_left(values: Iterable[float]) -> float:
    """((0.0 + v0) + v1) + ..., in iteration order."""
    return reduce(add, values, 0.0)
