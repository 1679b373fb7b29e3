"""Edge-count upper bounds and the two comparison tables.

All evaluations are exact integer arithmetic; every half term in the
closed forms is an integer once multiplied out (k/2 * 2^k = k * 2^[k-1]),
and fractional middle terms are rounded up explicitly.

Table 2 is evaluated in pieces, not cell by cell.  Its rows split into runs
of consecutive ascending n, and over a run each column is a short list of
pieces: a count of blank cells, or a range of values, one per n, whose
start and step are the closed form at the piece's first two n.  Rows whose
runs are not ascending and disjoint are evaluated once per distinct n, in
ascending order, and read out in the caller's order.

- A k column is (5b) inside the window 2^t < n <= N and blank outside it.
  With h = t+1-k and M = 2^h, p = floor(log2(x+1)) for x = (N-n) div M
  is constant while 2^p - 1 <= x <= 2^(p+1) - 2, that is for n in
  (N - (2^(p+1)-1)M, N - (2^p-1)M].  There only the (k+1-p)n term of (5b)
  varies, so each p is one piece of slope k+1-p.
- The hl column is blank for n < 4 and at powers of two.  Elsewhere
  n = 2^P - 2^K - r with P = ceil(log2 n) and K = floor(log2(2^P - n)),
  both constant for n in [2^P - 2^(K+1) + 1, 2^P - 2^K], where the bound
  is linear of slope P-K+1: one piece per (P, K).
- The hln column holds the odd-n bound on odd n and is blank on even n.
  Its n/ceil(log n) term is not linear, so it is mapped over each stretch
  of n-1 with constant floor and ceil of log2, and interleaved with blanks.

The per-n functions (bound_5b, bound_hl_direct, bound_hln_odd,
bound_report) evaluate one cell each, and are what the tests hold the
pieces against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, groupby, islice, repeat
from operator import sub

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


def _hl_value(n: int, p: int, k: int) -> int:
    """The direct-construction bound at n = 2^p - 2^k - r."""
    return n * (p - k + 1) - (1 << (p - k)) - (p - k) * (3 * p + k - 3) // 2 + 2 * k


def bound_hl_direct(n: int) -> int:
    """Direct-construction bound n(p-k+1) - 2^(p-k) - (p-k)(3p+k-3)/2 + 2k."""
    dec = hl_decomposition(n)
    if dec is None:
        raise ParamOutOfRange("bound defined for n >= 4" if n < 4 else
                              f"n={n} is a power of two; no decomposition n = 2^p - 2^k - r")
    p, k, _ = dec
    return _hl_value(n, p, k)


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


def _hln_value(n: int, fl: int, cl: int) -> int:
    """The odd-n bound at the even n = n_odd - 1, with fl = floor(log n) and
    cl = ceil(log n): ceil(n*fl/2 + n/cl) + cl - 2."""
    return n * fl // 2 + (n + cl - 1) // cl + cl - 2


def bound_hln_odd(n_odd: int) -> tuple[int, dict[str, bool]]:
    """Odd-n bound evaluated at n = n_odd - 1.

    The numeric value is always computed; the hypothesis flags say whether
    the bound's stated hypotheses actually hold at this n."""
    if n_odd % 2 == 0:
        raise ParamOutOfRange(f"n={n_odd} must be odd")
    if n_odd < 3:
        raise ParamOutOfRange(f"n={n_odd}: bound defined for n >= 3")
    n = n_odd - 1
    return _hln_value(n, floor_log2(n), ceil_log2(n)), hln_hypotheses(n)


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


def _line(f, lo: int, hi: int) -> range:
    """f(n) for lo <= n <= hi, as a range: f must be linear in n there, with
    a nonzero slope.  Start and step are f at lo and lo + 1."""
    start = f(lo)
    step = f(lo + 1) - start
    return range(start, start + step * (hi - lo + 1), step)


def _k_pieces(t: int, k: int, N: int, first: int, last: int) -> list[int | range]:
    """The k column for first <= n <= last: blank outside the window
    2^t < n <= N, one piece per p inside it."""
    lo, hi = max(first, (1 << t) + 1), min(last, N)
    if lo > hi:
        return [last - first + 1]
    h = t + 1 - k
    pieces = [lo - first]
    p = floor_log2(((N - lo) >> h) + 1)
    while lo <= hi:
        top = min(hi, N - (((1 << p) - 1) << h))  # the last n with this p
        pieces.append(_line(lambda n: closed_form_5b(t, k, n, p), lo, top))
        lo, p = top + 1, p - 1
    pieces.append(last - hi)
    return pieces


def _hl_pieces(first: int, last: int, floor: int) -> list[int | range]:
    """The hl column for first <= n <= last: blank for n <= floor (at least
    3) and at powers of two, one piece per decomposition (p, k) elsewhere."""
    lo = max(first, floor + 1)
    if lo > last:
        return [last - first + 1]
    pieces = [lo - first]
    while lo <= last:
        p = ceil_log2(lo)
        if lo == 1 << p:
            pieces.append(1)
            lo += 1
            continue
        k = floor_log2((1 << p) - lo)
        top = min(last, (1 << p) - (1 << k))  # the last n with this k
        pieces.append(_line(lambda n: _hl_value(n, p, k), lo, top))
        lo = top + 1
    return pieces


def _hln_cells(first: int, last: int, blank, fmt):
    """The hln column for first <= n <= last: the odd-n bound on odd n,
    blank on even n."""
    pieces, m = [], first - first % 2  # the even n = n_odd - 1 of the first odd n
    while m < last:
        fl, cl = floor_log2(m), ceil_log2(m)
        stop = min(last, m + 1 if fl == cl else 1 << cl)  # fl and cl are constant up to stop
        pieces.append(map(_hln_value, range(m, stop, 2), repeat(fl), repeat(cl)))
        m = stop + stop % 2
    values = fmt(chain.from_iterable(pieces))
    cells = chain(repeat(blank, 1 - first % 2), chain.from_iterable(zip(values, repeat(blank))))
    return islice(cells, last - first + 1)


def _runs(ns: list[int]) -> list[tuple[int, int]]:
    """ns as maximal runs (first, last) of consecutive ascending n, in order."""
    runs, i = [], 0
    for key, run in groupby(map(sub, ns, count())):  # n - i is constant on a run
        size = len(tuple(run))
        runs.append((key + i, key + i + size - 1))
        i += size
    return runs


def _columns(t: int, n_values, facsimile: bool, blank, fmt) -> tuple[list[str], list]:
    """Header and one iterator per column of the shrunk-size table, blank
    cells as ``blank`` and each run of values passed through ``fmt``.

    Every column is made of pieces over the runs of consecutive n: a count
    of blank cells, or a range of values, one per n (the hln column
    alternates its values with blanks).  When the runs are not ascending
    and disjoint, the sorted distinct n are evaluated instead, and each
    column's cells are read out in the order of ``n_values``."""
    if t < 7:
        raise ParamOutOfRange(f"t={t}: t must be >= 7")
    ks = range(2, max_k(t, n_odd=False) + 1)
    tops = [full_size(t, k) for k in ks]
    if n_values is None:
        if facsimile:
            n_values = _facsimile_rows(t, tops)
        else:
            n_values = range((1 << t) + 1, tops[-1])
    ns = list(n_values)
    if ns and min(ns) < 2:
        bad = next(n for n in ns if n < 2)
        raise ParamOutOfRange(f"n={bad}: rows defined for n >= 2")
    runs = _runs(ns)
    if any(last >= first for (_, last), (first, _) in zip(runs, runs[1:])):
        distinct = sorted(set(ns))
        header, columns = _columns(t, distinct, facsimile, blank, fmt)
        at = list(map(dict(zip(distinct, count())).__getitem__, ns))
        return header, [map(list(column).__getitem__, at) for column in columns]

    def column(pieces):
        return chain.from_iterable(repeat(blank, piece) if isinstance(piece, int) else fmt(piece)
                                   for piece in pieces)

    hl_floor = max(3, tops[-2] if facsimile and len(tops) > 1 else 0)
    columns = [chain.from_iterable(fmt(range(first, last + 1)) for first, last in runs)]
    columns += [column([piece for first, last in runs for piece in _k_pieces(t, k, N, first, last)])
                for k, N in zip(ks, tops)]
    columns.append(chain.from_iterable(_hln_cells(first, last, blank, fmt) for first, last in runs))
    columns.append(column([piece for first, last in runs
                           for piece in _hl_pieces(first, last, hl_floor)]))
    return ["n"] + [f"k={k}" for k in ks] + ["hln", "hl"], columns


def table2(t: int, n_values: list[int] | None = None,
           facsimile: bool = False) -> tuple[list[str], list[list]]:
    """Header and rows for the shrunk-size comparison table.

    Cells hold ints or None (blank).  Columns: n, one per k, the odd-n
    bound, the direct-construction bound.  Every k column meets the parity
    bound for odd and even n alike, so a k cell is (5b) inside the window
    2^t < n <= N_k and blank outside it.  Needs t >= 7 and every n >= 2."""
    header, columns = _columns(t, n_values, facsimile, None, iter)  # ints as they are
    return header, list(map(list, zip(*columns)))


def table2_csv(t: int, n_values: list[int] | None = None, facsimile: bool = False) -> str:
    header, columns = _columns(t, n_values, facsimile, "", partial(map, str))
    return "\n".join(chain([",".join(header)], map(",".join, zip(*columns)))) + "\n"
