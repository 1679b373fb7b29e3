"""Admissible (t, k, n) triples and the derived deletion parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParamOutOfRange


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def floor_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return n.bit_length() - 1


def max_k(t: int, n_odd: bool) -> int:
    """Largest admissible k: floor(t/2)-1 for even n, ceil(t/2)-1 for odd n."""
    return (t + 1) // 2 - 1 if n_odd else t // 2 - 1


@dataclass(frozen=True, slots=True)
class ConstructionParams:
    t: int
    k: int
    n: int
    N: int
    d: int
    x: int
    y: int
    p: int

    @property
    def tree_order(self) -> int:
        return self.t + 1 - self.k

    @property
    def tree_size(self) -> int:
        return 1 << self.tree_order

    @property
    def num_trees(self) -> int:
        return (1 << self.k) - 1

    def to_json(self) -> str:
        return json.dumps(
            {"t": self.t, "k": self.k, "n": self.n, "N": self.N,
             "d": self.d, "x": self.x, "y": self.y, "p": self.p}
        ) + "\n"


def full_size(t: int, k: int) -> int:
    """N = (2^k - 1) * 2^(t+1-k), the vertex count of the full-size graph.

    Raises ParamOutOfRange for t < 7, k < 2 or k > t+1."""
    if t < 7:
        raise ParamOutOfRange(f"t={t}: t must be >= 7")
    if k < 2:
        raise ParamOutOfRange(f"k={k}: k must be >= 2")
    if k > t + 1:
        raise ParamOutOfRange(f"k={k}: k must be <= t+1 = {t + 1}")
    return ((1 << k) - 1) << (t + 1 - k)


def make_params(t: int, k: int, n: int) -> ConstructionParams:
    """Validate (t, k, n) and derive N, d, x, y, p.

    Raises ParamOutOfRange naming the violated constraint, checked in the
    order t, k >= 2, the parity bound on k, then the range of n.
    """
    km = max_k(t, n_odd=bool(n % 2))
    if t >= 7 and k > km:  # km >= 2 for t >= 7: a k < 2 falls through to full_size
        bound = "ceil(t/2)-1" if n % 2 else "floor(t/2)-1"
        raise ParamOutOfRange(f"k={k}: k must be <= {bound} = {km} for this n parity")
    # n > 2^t, checked before a huge t makes 2^t; full_size checks t and k
    if t >= 7 and k >= 2 and (n < 1 or ceil_log2(n) <= t):
        raise ParamOutOfRange(f"n={n}: need n > 2^t for t={t}")
    N = full_size(t, k)
    M = 1 << (t + 1 - k)
    if n > N:
        raise ParamOutOfRange(f"n={n}: need n <= N = {N}")
    d = N - n
    x = d // M
    y = d - x * M
    p = floor_log2(x + 1)
    assert 0 <= x < 1 << (k - 1) and 0 <= y < M and p < k
    assert ceil_log2(N) == t + 1
    return ConstructionParams(t=t, k=k, n=n, N=N, d=d, x=x, y=y, p=p)
