import random

import pytest

from broadcastnet import (
    ParamOutOfRange,
    bound_5a,
    bound_5b,
    bound_farley,
    bound_hl_direct,
    bound_hln_odd,
    bound_knodel_even,
    bound_report,
    table1,
    table2,
)
from broadcastnet import bounds
from broadcastnet.bounds import hl_decomposition, table1_csv, table2_csv
from broadcastnet.params import full_size, max_k


def test_farley():
    assert bound_farley(192) == 768  # ceil(192 * 8 / 2)
    assert bound_farley(2) == 1
    assert bound_farley(1000) == 5000  # ceil(log 1000) = 10
    assert bound_farley(5) == 8  # odd product rounds up: ceil(15/2)
    with pytest.raises(ParamOutOfRange):
        bound_farley(1)


def test_hl_decomposition_unique():
    assert hl_decomposition(192) == (8, 6, 0)
    assert hl_decomposition(448) == (9, 6, 0)
    assert hl_decomposition(31745) == (15, 9, 511)
    assert hl_decomposition(256) is None  # exact power of two


def test_hl_direct_values():
    assert bound_hl_direct(192) == 557
    assert bound_hl_direct(448) == 1751
    assert bound_hl_direct(114688) == 458679
    assert bound_hl_direct(31745) == 222016
    assert bound_hl_direct(32255) == 225586
    with pytest.raises(ParamOutOfRange):
        bound_hl_direct(256)


def test_knodel_even():
    assert bound_knodel_even(192) == 672
    assert bound_knodel_even(4) == 4
    with pytest.raises(ParamOutOfRange):
        bound_knodel_even(193)


def test_hln_odd_values():
    assert bound_hln_odd(16385)[0] == 115871
    assert bound_hln_odd(24575)[0] == 173670
    assert bound_hln_odd(31745)[0] == 224338
    assert bound_hln_odd(16387)[0] == 115808
    assert bound_hln_odd(30721)[0] == 217101
    with pytest.raises(ParamOutOfRange):
        bound_hln_odd(16384)


def test_hln_hypotheses_flagged():
    value, flags = bound_hln_odd(16385)
    # ceil(log 16384) = 14 is not prime, so the stated hypotheses fail,
    # yet the numeric value is still reported for comparison
    assert value == 115871
    assert flags["log_prime"] is False


def test_bounds_5a_5b():
    assert bound_5a(7, 2) == 551
    assert bound_5b(14, 2, 16385) == 49109
    assert bound_5b(14, 3, 16385) == 49044
    assert bound_5b(14, 6, 32255) == 224963
    with pytest.raises(ParamOutOfRange):
        bound_5a(7, 4)


@pytest.mark.parametrize("t,k", [(7, 9), (7, -1)])
def test_bound_5a_undefined_full_size(t, k):
    # 2^(t+1-k) or 2^k is undefined: a domain error, not a shift error
    with pytest.raises(ParamOutOfRange):
        bound_5a(t, k)


def test_5b_reduces_to_5a_at_full_size():
    for t in range(7, 15):
        for k in range(2, t // 2):
            N = ((1 << k) - 1) << (t + 1 - k)
            assert bound_5b(t, k, N) == bound_5a(t, k)


def test_all_bounds_are_plain_ints():
    for t in range(7, 19):
        for k in range(2, t // 2):
            assert isinstance(bound_5a(t, k), int)
    for n in range(129, 400):
        assert isinstance(bound_farley(n), int)
        if n % 2 == 0:
            assert isinstance(bound_knodel_even(n), int)


def test_table1_shape():
    rows = table1(7, 18)
    assert len(rows) == 48
    assert rows[0] == (7, 2, 192, 551, 557)


def test_table1_improvement_column():
    for _, _, _, ours, hl in table1(7, 18):
        assert ours < hl


def test_construction_beats_even_n_bound_in_table_range():
    # the comparison the tables are built around: for even n in the t=14
    # range, the best construction value undercuts the even-n bound;
    # violations would be reported, none are expected
    violations = []
    for n in range(16386, 32256, 1606):
        n += n % 2
        vals = [bound_5b(14, k, n) for k in range(2, 7)
                if n <= ((1 << k) - 1) << (15 - k)]
        if min(vals) >= bound_knodel_even(n):
            violations.append(n)
    assert not violations


def test_table1_csv_header_and_row():
    csv = table1_csv(7, 7)
    assert csv.splitlines() == ["t,k,n,ours,hl", "7,2,192,551,557"]


def test_table2_first_row():
    # hl cell checked by hand: p=15, k=13, r=8191 -> 16385*3 - 4 - 55 + 26
    _, rows = table2(14, n_values=[16385])
    assert rows[0] == [16385, 49109, 49044, 48909, 48628, 48043, 115871, 49122]


def test_table2_facsimile_blanks():
    header, rows = table2(14, facsimile=True)
    assert header == ["n", "k=2", "k=3", "k=4", "k=5", "k=6", "hln", "hl"]
    by_n = {r[0]: r for r in rows}
    assert by_n[24577][1] is None  # above the k=2 ceiling
    assert by_n[16386][6] is None  # even rows carry no odd-n bound
    assert by_n[16385][7] is None  # facsimile hides the direct bound here
    assert by_n[31745][7] == 222016
    assert by_n[32255] == [32255, None, None, None, None, 224963, 227942, 225586]


def test_table2_csv_blank_cells():
    csv = table2_csv(14, n_values=[24577])
    line = csv.splitlines()[1]
    assert line.startswith("24577,,98205,")


def test_bound_report_even():
    rep = bound_report(192)
    assert rep.bounds["construction"]["value"] == 551
    assert rep.bounds["knodel_even"]["value"] == 672
    assert rep.bounds["hln_odd"]["applicable"] is False
    assert rep.best == "construction"


def test_bound_report_odd():
    rep = bound_report(16385)
    assert rep.bounds["construction"]["value"] == 48043  # best k = 6
    assert rep.bounds["knodel_even"]["applicable"] is False
    assert rep.bounds["hln_odd"]["value"] == 115871
    assert rep.best == "construction"


def test_bound_report_power_of_two():
    rep = bound_report(256)
    assert rep.bounds["hl_direct"]["applicable"] is False
    assert rep.bounds["construction"]["applicable"] is False
    assert rep.bounds["farley"]["value"] == 1024


def test_direct_cells_match_validating_bounds():
    # every table2 k cell is bound_5b where it is admissible and blank where
    # it raises (the hl cell likewise bound_hl_direct); the hln cell is the
    # odd-n value; the construction entry of bound_report is the least
    # bound_5b over the admissible k
    def validating(fn, *args):
        try:
            return fn(*args)
        except ParamOutOfRange:
            return None

    for t in (7, 8, 9):
        ns = range((1 << t) + 1, (1 << (t + 1)) + 1)
        header, rows = table2(t, n_values=ns)
        ks = [int(name[2:]) for name in header[1:-2]]
        assert [row[0] for row in rows] == list(ns)
        for n, row in zip(ns, rows):
            assert row[1:-2] == [validating(bound_5b, t, k, n) for k in ks], n
            assert row[-2] == (bound_hln_odd(n)[0] if n % 2 else None), n
            assert row[-1] == validating(bound_hl_direct, n), n
            values = [v for k in range(2, t) if (v := validating(bound_5b, t, k, n)) is not None]
            construction = bound_report(n).bounds["construction"]
            assert construction["value"] == (min(values) if values else None), n


@pytest.mark.parametrize("call, args, named", [
    (bound_report, (1,), "n=1"),
    (bound_report, (0,), "n=0"),
    (bound_report, (-3,), "n=-3"),
    (bound_knodel_even, (0,), "n=0"),
    (bound_knodel_even, (-2,), "n=-2"),
    (bound_hln_odd, (1,), "n=1"),
    (bound_hln_odd, (-1,), "n=-1"),
    (table2, (5,), "t=5"),
    (table2, (2,), "t=2"),
    (table2, (7, [129, 1]), "n=1"),
    (table1, (5, 5), "[5, 5]"),
    (table1, (9, 7), "[9, 7]"),
    (table1, (3, 8), "[3, 8]"),
])
def test_out_of_domain_is_a_domain_error_naming_the_value(call, args, named):
    # outside its domain a library entry point raises ParamOutOfRange that
    # names the value it was given, never a bare exception or an empty table
    with pytest.raises(ParamOutOfRange) as exc:
        call(*args)
    assert named in str(exc.value)


def _validating_row(t, ks, n):
    """The table2 row at n from the per-n functions: a k cell is bound_5b
    where it is admissible, the hl cell bound_hl_direct where n has a
    decomposition, the hln cell the odd-n value on odd n, else blank."""
    def validating(fn, *args):
        try:
            return fn(*args)
        except ParamOutOfRange:
            return None

    return ([n] + [validating(bound_5b, t, k, n) for k in ks]
            + [bound_hln_odd(n)[0] if n % 2 else None, validating(bound_hl_direct, n)])


@pytest.mark.parametrize("t", range(7, 17))
def test_piece_edges_match_validating_bounds(t):
    # the table is made of pieces: per k, the window 2^t < n <= N_k and
    # one piece per p, ending at N_k - (2^p - 1)M; for hl, one piece per
    # (P, K), ending at 2^P - 2^K, and a blank at each power of two.  Each
    # edge and its neighbours, in runs that cross it, against the per-n
    # functions
    ks = range(2, t // 2)
    edges = {2, 3, 4, 5}
    for k in ks:
        N, h = ((1 << k) - 1) << (t + 1 - k), t + 1 - k
        edges |= {1 << t, (1 << t) + 1, N, N + 1}
        edges |= {N - (((1 << p) - 1) << h) + d for p in range(k) for d in (-1, 0, 1)}
    for P in (t, t + 1):
        edges |= {(1 << P) - (1 << K) + d for K in range(P - 1) for d in (-1, 0, 1)}
    edges |= {1 << j for j in range(1, t + 2)}
    ns = sorted(n for n in edges if n >= 2)
    header, rows = table2(t, n_values=ns)
    assert header[1:-2] == [f"k={k}" for k in ks]
    assert rows == [_validating_row(t, ks, n) for n in ns]


def _shuffled_default_rows(t: int) -> list[int]:
    """Table 2's default rows for t, 50 of them twice, in a seeded shuffle."""
    rng = random.Random(t)
    ns = list(range((1 << t) + 1, full_size(t, max_k(t, n_odd=False))))
    ns += rng.sample(ns, 50)
    rng.shuffle(ns)
    return ns


@pytest.mark.parametrize("t,ns", [
    (14, [16390, 16385, 24577, 16386]),         # unsorted
    (14, [16385, 16385]),                       # a repeat
    (14, [16385, 16386, 16388, 24575, 24576]),  # gaps
    (14, [24578, 24577, 24576, 24575]),         # descending
    (14, range(32250, 32260)),                  # a range past the last column's window
    (14, [2, 3, 4, 5, 6, 7, 8, 9]),             # below 2^t, through two powers of two
    (12, _shuffled_default_rows(12)),           # every default row, shuffled, with repeats
], ids=[f"ns{i}" for i in range(7)])
def test_irregular_rows_match_one_row_calls(t, ns, monkeypatch):
    # any n_values gives, row for row, what one-row calls give, in its
    # order; a one-shot generator is read once and gives the same.  Rows
    # out of order cost no more k-column pieces than the same rows sorted
    one_by_one = [table2(t, n_values=[n])[1][0] for n in ns]
    assert table2(t, n_values=ns)[1] == one_by_one
    assert table2(t, n_values=(n for n in ns))[1] == one_by_one
    csv = table2_csv(t, n_values=iter(list(ns))).splitlines()
    assert csv[1:] == [table2_csv(t, n_values=[n]).splitlines()[1] for n in ns]
    assert csv[1:] == [",".join("" if c is None else str(c) for c in row) for row in one_by_one]
    calls = []
    k_pieces = bounds._k_pieces
    monkeypatch.setattr(bounds, "_k_pieces", lambda *args: calls.append(args) or k_pieces(*args))

    def k_calls(rows):
        calls.clear()
        table2(t, n_values=rows)
        return len(calls)

    assert k_calls(ns) <= k_calls(sorted(ns))


def test_bad_row_in_a_generator_is_named():
    with pytest.raises(ParamOutOfRange, match="n=1"):
        table2(7, n_values=iter([129, 1, 0]))
    with pytest.raises(ParamOutOfRange, match="n=0"):
        table2_csv(7, n_values=iter([129, 130, 0]))
