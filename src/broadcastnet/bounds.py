"""Edge-count upper bounds and the two comparison tables.

All evaluations are exact integer arithmetic; every half term in the
closed forms is an integer once multiplied out (k/2 * 2^k = k * 2^[k-1]),
and fractional middle terms are rounded up explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParamOutOfRange
from .params import ceil_log2, floor_log2, full_size, make_params, max_k


def bound_farley(n: int) -> int:
    """General upper bound ceil(n * ceil(log2 n) / 2)."""
    if n < 2:
        raise ParamOutOfRange("bound defined for n >= 2")
    return (n * ceil_log2(n) + 1) // 2


def hl_decomposition(n: int) -> tuple[int, int, int] | None:
    """Unique (p, k, r) with n = 2^p - 2^k - r, 0 <= k <= p-2, 0 <= r < 2^k.

    None when n < 4 or n is a power of two (no admissible k exists).  With
    p = ceil(log2 n), 2^p - n < 2^(p-1), so k <= p-2 and r < 2^k always hold."""
    if n < 4:
        return None
    p = ceil_log2(n)
    rem = (1 << p) - n
    if rem == 0:
        return None
    k = floor_log2(rem)
    return p, k, rem - (1 << k)


def _hl_value(n: int) -> int | None:
    """Direct-construction bound at n, None where n has no decomposition."""
    dec = hl_decomposition(n)
    if dec is None:
        return None
    p, k, _ = dec
    return n * (p - k + 1) - (1 << (p - k)) - (p - k) * (3 * p + k - 3) // 2 + 2 * k


def bound_hl_direct(n: int) -> int:
    """Direct-construction bound n(p-k+1) - 2^(p-k) - (p-k)(3p+k-3)/2 + 2k."""
    value = _hl_value(n)
    if value is None:
        raise ParamOutOfRange("bound defined for n >= 4" if n < 4 else
                              f"n={n} is a power of two; no decomposition n = 2^p - 2^k - r")
    return value


def bound_knodel_even(n: int) -> int:
    """Modified-Knoedel-graph bound n * floor(log2 n) / 2 for even n."""
    if n % 2:
        raise ParamOutOfRange(f"n={n} must be even")
    if n < 2:
        raise ParamOutOfRange(f"n={n}: bound defined for n >= 2")
    return n * floor_log2(n) // 2


def hln_hypotheses(n_even: int) -> dict[str, bool]:
    """The four hypotheses attached to the odd-n bound, evaluated at the even n."""
    m = ceil_log2(n_even)
    prime = m > 1 and all(m % q for q in range(2, int(m**0.5) + 1))
    not_mersenne = (m + 1) & m != 0  # m != 2^j - 1
    divides = n_even % m == 0 if m else False
    order_ok = False
    if prime and m > 2:
        divisors = [d for d in range(1, m - 1) if (m - 1) % d == 0]
        order_ok = all(pow(2, d, m) != 1 for d in divisors)
    return {"log_prime": prime, "log_not_mersenne": not_mersenne,
            "log_divides_n": divides, "two_has_full_order": order_ok}


def _hln_value(n: int) -> int:
    """The odd-n bound at the even n = n_odd - 1:
    ceil(n*floor(log n)/2 + n/ceil(log n)) + ceil(log n) - 2."""
    fl, cl = floor_log2(n), ceil_log2(n)
    return n * fl // 2 + (n + cl - 1) // cl + cl - 2


def bound_hln_odd(n_odd: int) -> tuple[int, dict[str, bool]]:
    """Odd-n bound evaluated at n = n_odd - 1.

    The numeric value is always computed; the hypothesis flags say whether
    the bound's stated hypotheses actually hold at this n."""
    if n_odd % 2 == 0:
        raise ParamOutOfRange(f"n={n_odd} must be odd")
    if n_odd < 3:
        raise ParamOutOfRange(f"n={n_odd}: bound defined for n >= 3")
    return _hln_value(n_odd - 1), hln_hypotheses(n_odd - 1)


def closed_form_5a(t: int, k: int) -> int:
    """(5a): (k+1)N - (t - k/2 + 2)2^k + t - k + 2, for an admissible (t, k)."""
    return (k + 1) * full_size(t, k) - (t + 2) * (1 << k) + k * (1 << (k - 1)) + t - k + 2


def closed_form_5b(t: int, k: int, n: int, p: int) -> int:
    """(5b): (k+1-p)n - (t - k/2 + p + 2)2^k + t - k - (p-2)2^p, for an admissible (t, k, n)."""
    return ((k + 1 - p) * n - (t + p + 2) * (1 << k) + k * (1 << (k - 1))
            + t - k - (p - 2) * (1 << p))


def bound_5a(t: int, k: int) -> int:
    """(5a) at (t, k); ParamOutOfRange unless (t, k, N) is admissible."""
    make_params(t, k, full_size(t, k))
    return closed_form_5a(t, k)


def bound_5b(t: int, k: int, n: int) -> int:
    """(5b) at (t, k, n); ParamOutOfRange unless (t, k, n) is admissible."""
    return closed_form_5b(t, k, n, make_params(t, k, n).p)


def _window_5b(t: int, k: int, N: int, n: int) -> int | None:
    """(5b) at n inside the window 2^t < n <= N = full_size(t, k), else None;
    k must already meet the parity bound of n.  p = floor(log2(x + 1)) with
    x = (N - n) div 2^(t+1-k), as make_params derives it."""
    if not (1 << t) < n <= N:
        return None
    return closed_form_5b(t, k, n, floor_log2(((N - n) >> (t + 1 - k)) + 1))


# ---------------------------------------------------------------------------
# per-n report


@dataclass
class BoundReport:
    n: int
    bounds: dict[str, dict]

    @property
    def best(self) -> str | None:
        usable = {name: b["value"] for name, b in self.bounds.items()
                  if b["applicable"]}
        if not usable:
            return None
        return min(usable, key=lambda name: (usable[name], name))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "bounds": self.bounds, "best": self.best},
                          separators=(",", ":")) + "\n"


def bound_report(n: int) -> BoundReport:
    """Evaluate bounds (1)-(5) at one n >= 2 with applicability flags."""
    if n < 2:
        raise ParamOutOfRange(f"n={n}: bounds defined for n >= 2")
    bounds: dict[str, dict] = {}

    def entry(name, fn, *args, reason=""):
        try:
            value = fn(*args)
        except ParamOutOfRange as exc:
            bounds[name] = {"value": None, "applicable": False, "reason": str(exc)}
            return
        bounds[name] = {"value": value, "applicable": True, "reason": reason}

    entry("farley", bound_farley, n)
    entry("hl_direct", bound_hl_direct, n)
    if n % 2 == 0:
        entry("knodel_even", bound_knodel_even, n)
    else:
        bounds["knodel_even"] = {"value": None, "applicable": False, "reason": "n is odd"}
    if n % 2 == 1:
        value, flags = bound_hln_odd(n)
        bounds["hln_odd"] = {"value": value, "applicable": all(flags.values()),
                             "reason": json.dumps(flags, sort_keys=True),
                             "hypotheses": flags}
    else:
        bounds["hln_odd"] = {"value": None, "applicable": False, "reason": "n is even"}

    t = ceil_log2(n) - 1
    ks = range(2, max_k(t, n_odd=bool(n % 2)) + 1) if t >= 7 else ()
    cells = [(v, k) for k in ks if (v := _window_5b(t, k, full_size(t, k), n)) is not None]
    if cells:
        value, k = min(cells)
        bounds["construction"] = {"value": value, "applicable": True, "reason": f"t={t}, k={k}"}
    else:
        bounds["construction"] = {"value": None, "applicable": False,
                                  "reason": f"no admissible k at t={t}"}
    return BoundReport(n=n, bounds=bounds)


# ---------------------------------------------------------------------------
# tables


def table1(t_min: int, t_max: int) -> list[tuple[int, int, int, int, int]]:
    """Rows (t, k, N, ours, hl) over the full-size parameter grid, 7 <= t_min <= t_max."""
    if not 7 <= t_min <= t_max:
        raise ParamOutOfRange(f"t range [{t_min}, {t_max}] is empty or starts below 7")
    rows = []
    for t in range(t_min, t_max + 1):
        for k in range(2, max_k(t, n_odd=False) + 1):
            N = full_size(t, k)
            rows.append((t, k, N, closed_form_5a(t, k), bound_hl_direct(N)))
    return rows


def table1_csv(t_min: int, t_max: int) -> str:
    lines = ["t,k,n,ours,hl"]
    lines += [",".join(str(x) for x in row) for row in table1(t_min, t_max)]
    return "\n".join(lines) + "\n"


_FACSIMILE_ROWS_T14 = [
    16385, 16386, 16387, 24575, 24576, 24577, 24578, 24579,
    28671, 28672, 28673, 28674, 30719, 30720, 30721, 30722, 30723,
    31743, 31744, 31745, 31746, 31747, 32255,
]


def _facsimile_rows(t: int, tops: list[int]) -> list[int]:
    if t == 14:
        return list(_FACSIMILE_ROWS_T14)
    lo = (1 << t) + 1
    rows = {lo, lo + 1, lo + 2}
    for N in tops[:-1]:
        rows.update(range(N - 1, N + 4))
    rows.add(tops[-1] - 1)
    return sorted(r for r in rows if lo <= r < tops[-1])


def table2(t: int, n_values: list[int] | None = None,
           facsimile: bool = False) -> tuple[list[str], list[list]]:
    """Header and rows for the shrunk-size comparison table.

    Cells hold ints or None (blank).  Columns: n, one per k, the odd-n
    bound, the direct-construction bound.  Every k column meets the parity
    bound for odd and even n alike, so a k cell is (5b) inside the window
    2^t < n <= N_k and blank outside it.  Needs t >= 7 and every n >= 2."""
    if t < 7:
        raise ParamOutOfRange(f"t={t}: t must be >= 7")
    ks = range(2, max_k(t, n_odd=False) + 1)
    tops = [full_size(t, k) for k in ks]
    if n_values is None:
        if facsimile:
            n_values = _facsimile_rows(t, tops)
        else:
            n_values = range((1 << t) + 1, tops[-1])
    header = ["n"] + [f"k={k}" for k in ks] + ["hln", "hl"]
    hl_floor = tops[-2] if len(tops) > 1 else 0
    rows = []
    for n in n_values:
        if n < 2:
            raise ParamOutOfRange(f"n={n}: rows defined for n >= 2")
        row: list = [n]
        for k, N in zip(ks, tops):
            row.append(_window_5b(t, k, N, n))
        row.append(_hln_value(n - 1) if n % 2 else None)
        row.append(None if facsimile and n <= hl_floor else _hl_value(n))
        rows.append(row)
    return header, rows


def table2_csv(t: int, n_values: list[int] | None = None, facsimile: bool = False) -> str:
    header, rows = table2(t, n_values, facsimile)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if c is None else str(c) for c in row))
    return "\n".join(lines) + "\n"
