import hashlib
import json
import sys

import pytest

from conftest import reference_export, reference_report

from broadcastnet import CertificationReport, Graph, Schedule, build, certify_graph, make_params
from broadcastnet import verify
from broadcastnet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_command(capsys):
    code, out, _ = run_cli(capsys, "params", "--t", "14", "--k", "3", "--n", "16385")
    assert code == 0
    obj = json.loads(out)
    assert (obj["d"], obj["x"], obj["y"], obj["p"]) == (12287, 2, 4095, 1)


def test_params_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "params", "--t", "7", "--k", "4", "--n", "192")
    assert code == 1
    assert "error" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("certify", "--t", "7", "--k", "9"),
    ("construct", "--t", "7", "--k", "-1", "--out", "g.json"),
])
def test_full_size_out_of_range_exit_1(tmp_path, monkeypatch, capsys, argv):
    # no --n: the full size N is undefined for these (t, k)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g.json").exists()


def test_schedule_failing_its_own_check_exit_1(monkeypatch, capsys):
    import broadcastnet.cli as cli
    make = cli.make_schedule

    def with_illegal_call(g, layout, params, u):
        s = make(g, layout, params, u)
        rounds = [list(calls) for calls in s.rounds]
        rounds[0].append((s.origin, s.origin))  # the originator calls itself
        return Schedule(g.labels, s.origin, rounds)

    monkeypatch.setattr(cli, "make_schedule", with_illegal_call)
    code, out, err = run_cli(capsys, "schedule", "--t", "7", "--k", "2", "--originator", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("generated schedule failed its own check: ")
    assert err.count("\n") == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--t-min", "7"])  # missing --t-max
    assert exc.value.code == 2


def test_table1_row(capsys):
    code, out, _ = run_cli(capsys, "table1", "--t-min", "7", "--t-max", "7")
    assert code == 0
    assert out.splitlines() == ["t,k,n,ours,hl", "7,2,192,551,557"]


def test_table2_facsimile(capsys):
    code, out, _ = run_cli(capsys, "table2", "--t", "14", "--paper-facsimile")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k=2,k=3,k=4,k=5,k=6,hln,hl"
    assert lines[1] == "16385,49109,49044,48909,48628,48043,115871,"
    assert lines[-1] == "32255,,,,,224963,227942,225586"


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "192")
    assert code == 0
    obj = json.loads(out)
    assert obj["bounds"]["construction"]["value"] == 551
    assert obj["best"] == "construction"


def test_construct_writes_file_and_accounting(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "construct", "--t", "7", "--k", "2",
                           "--out", str(out_file), "--format", "json")
    assert code == 0
    acc = json.loads(out)
    assert acc["total_edges"]["measured"] == 551
    data = json.loads(out_file.read_text())
    assert data["n"] == 192 and len(data["edges"]) == 551


def test_construct_defaults_to_full_size(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "construct", "--t", "7", "--k", "2",
                           "--out", str(out_file), "--format", "dot")
    assert code == 0
    assert out_file.read_text().startswith("graph ")


def test_certify_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "certify", "--t", "7", "--k", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["max_round"] == 8


def test_certify_single_originator(capsys):
    code, out, _ = run_cli(capsys, "certify", "--t", "7", "--k", "2",
                           "--n", "191", "--originator", "0")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["per_originator"]) == 1


def test_certify_deterministic_across_jobs(capsys):
    _, out1, _ = run_cli(capsys, "certify", "--t", "7", "--k", "2", "--jobs", "1")
    _, out2, _ = run_cli(capsys, "certify", "--t", "7", "--k", "2", "--jobs", "2")
    assert out1 == out2


def test_exact_on_exported_graph(tmp_path, capsys):
    import broadcastnet as bn
    q = bn.build_hypercube(3)
    path = tmp_path / "q3.json"
    path.write_text(q.to_graph().to_json())
    code, out, _ = run_cli(capsys, "exact", "--graph", str(path), "--originator", "0")
    assert code == 0
    assert out.strip() == "3"


def test_export_round_trip(tmp_path, capsys):
    import broadcastnet as bn
    q = bn.build_hypercube(2)
    path = tmp_path / "q2.json"
    path.write_text(q.to_graph().to_json())
    code, out, _ = run_cli(capsys, "export", "--graph", str(path),
                           "--format", "edgelist")
    assert code == 0
    assert out.splitlines() == ["0 1", "0 2", "1 3", "2 3"]


def _whole_file_writer(*args, **kwargs):
    raise AssertionError("the CLI writes a graph file or a report in blocks, not whole")


@pytest.mark.parametrize("fmt", ["json", "edgelist", "dot"])
def test_construct_and_export_write_in_blocks(tmp_path, monkeypatch, capsys, fmt):
    params = make_params(8, 3, 400)
    g, _, _ = build(params)
    want = reference_export(g, fmt)
    source = tmp_path / "g.json"
    source.write_bytes(reference_export(g, "json"))
    monkeypatch.setattr(Graph, "export", _whole_file_writer)
    monkeypatch.setattr(Graph, "to_json", _whole_file_writer)
    code, _, _ = run_cli(capsys, "construct", "--t", "8", "--k", "3", "--n", "400",
                         "--format", fmt, "--out", str(tmp_path / "built"))
    assert code == 0 and (tmp_path / "built").read_bytes() == want
    code, _, _ = run_cli(capsys, "export", "--graph", str(source), "--format", fmt,
                         "--out", str(tmp_path / "converted"))
    assert code == 0 and (tmp_path / "converted").read_bytes() == want
    code, out, _ = run_cli(capsys, "export", "--graph", str(source), "--format", fmt)
    assert code == 0 and out.encode() == want


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_certify_writes_its_report_in_blocks(monkeypatch, capsys, jobs):
    params = make_params(8, 3, 400)
    g, layout, _ = build(params)
    want = reference_report(certify_graph(g, layout, params))
    monkeypatch.setattr(verify, "_BLOCK", 7)  # 400 originators cross many blocks
    monkeypatch.setattr(CertificationReport, "to_json", _whole_file_writer)
    code, out, _ = run_cli(capsys, "certify", "--t", "8", "--k", "3", "--n", "400",
                           "--jobs", jobs)
    assert code == 0 and out == want


def test_schedule_command(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--t", "7", "--k", "2",
                           "--originator", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["completes_at"] <= 8


def test_byte_identical_reruns(capsys, tmp_path):
    args = ("construct", "--t", "7", "--k", "3", "--n", "191",
            "--out", str(tmp_path / "a"), "--format", "edgelist")
    _, out1, _ = run_cli(capsys, *args)
    data1 = (tmp_path / "a").read_bytes()
    args = ("construct", "--t", "7", "--k", "3", "--n", "191",
            "--out", str(tmp_path / "b"), "--format", "edgelist")
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert data1 == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("argv", [
    ("certify", "--t", "7", "--k", "2", "--originator", "abc"),
    ("certify", "--t", "7", "--k", "2", "--jobs", "0"),
    ("certify", "--t", "7", "--k", "2", "--jobs", "-2"),
    ("table2", "--t", "7", "--n-min", "150", "--n-max", "140"),
    ("table2", "--t", "7", "--n-min", "5", "--n-max", "6"),
    ("table2", "--t", "7", "--n-min", "128", "--n-max", "130"),
    ("table2", "--t", "7", "--n-min", "250", "--n-max", "257"),
    ("table2", "--t", "7", "--n-min", "1000", "--n-max", "1001"),
    ("table2", "--t", "5"),
    ("table2", "--t", "6", "--paper-facsimile"),
    ("table2", "--t", "-1"),
    ("bounds", "--n", "0"),
    ("bounds", "--n", "1"),
    ("bounds", "--n", "-3"),
    ("table1", "--t-min", "9", "--t-max", "7"),
    ("table1", "--t-min", "1", "--t-max", "7"),
    ("table1", "--t-min", "6", "--t-max", "6"),
])
def test_bad_flag_values_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def test_huge_int_flags_print_without_traceback(capsys):
    # both commands format values past Python's default 4300-digit limit
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "params", "--t", "14300", "--k", "2", "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "bounds", "--n", "9" * 4299)
    assert code == 0 and err == ""
    assert json.loads(out, parse_int=str)["n"] == "9" * 4299
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("flags", [("--n-min", "3", "--n-max", "2"), ("--n-max", "2")])
def test_table2_range_error_for_huge_t_is_short(capsys, flags):
    # the range (2^t, 2^(t+1)] is written with t's value, not spelled out
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--t", "100000", *flags])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.encode()) < 300
    (line,) = [x for x in err.splitlines() if "error:" in x]
    assert line.endswith("is empty or leaves (2^t, 2^(t+1)] for t=100000")


@pytest.mark.parametrize("argv", [
    ("params", "--k", "2", "--n", "5"),
    ("construct", "--k", "2", "--out", "g.json"),
    ("certify", "--k", "2"),
    ("schedule", "--k", "2", "--originator", "0"),
    ("table2",),
])
def test_huge_t_ends_in_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # 2^t of t = 10^19 cannot be allocated: params rejects n before making
    # it, and the commands that need N or 2^t fail at once
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv[0], "--t", str(10 ** 19), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "params":
        assert err == f"error: n=5: need n > 2^t for t={10 ** 19}\n"


_TWO = '[{"id":0,"tree":1,"pos":"","cube":null},{"id":1,"tree":2,"pos":"","cube":null}]'
_EVIL = json.dumps('a" ];\n evil [label="x')  # would add a node to a DOT export


@pytest.mark.parametrize("command", [("exact", "--originator", "0"),
                                     ("export", "--format", "edgelist"),
                                     ("export", "--format", "dot")])
@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    '{"edges":[]}',
    '{"vertices":"abc","edges":[]}',
    '{"vertices":[{"id":0,"tree":1,"pos":""}],"edges":[]}',
    '{"vertices":[{"id":"0","tree":1,"pos":"","cube":null}],"edges":[]}',
    '{"vertices":' + _TWO + ',"edges":[[0,2]]}',
    '{"vertices":' + _TWO + ',"edges":[[0,-1]]}',
    '{"vertices":' + _TWO + ',"edges":[[1,1]]}',
    '{"vertices":' + _TWO + ',"edges":[[0,1.0]]}',
    '{"vertices":[{"id":0,"tree":1,"pos":"","cube":' + _EVIL + '}],"edges":[]}',
    '{"vertices":[{"id":0,"tree":1,"pos":' + _EVIL + ',"cube":null}],"edges":[]}',
    '{"n":5,"vertices":[{"id":0,"tree":1,"pos":"","cube":null}],"edges":[]}',
    '{"n":"x","vertices":[{"id":0,"tree":1,"pos":"","cube":null}],"edges":[]}',
])
def test_malformed_graph_file_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], "--graph", str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exact_disconnected_graph_exit_1(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices":' + _TWO + ',"edges":[]}')
    code, out, err = run_cli(capsys, "exact", "--graph", str(path), "--originator", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "disconnected" in err


# SHA-256 of stdout (and of the written file for construct).  A change of
# internal representation must keep these outputs byte-identical.
GOLDEN = [
    (("params", "--t", "14", "--k", "3", "--n", "16385"),
     "d1de695c5ca665a58bbd4c4b1c32c6a720abe448bd119d868246d6bc4e6e5ee7", None),
    (("bounds", "--n", "200"),
     "dc09ddd250308899391f51e996593d1b2fa2597b97741629eac5a1a6040af76c", None),
    (("construct", "--t", "7", "--k", "2", "--format", "json"),
     "f97598df1eeaf0063c53e82f85dd806d45334ae4a8a4029feddd26ccf0a59d57",
     "7f488fe62b40c2549fdbb770466f6bc7bd6cce82ef5eb80cbbf85f5b84246362"),
    (("certify", "--t", "7", "--k", "2"),
     "0fd06ead106918c2ce4e4dc1b0ef8323bea5d80e53e51ccbae423937507cad45", None),
    (("certify", "--t", "7", "--k", "3", "--n", "161"),
     "3c8b55d2d04b0e2e776779b7f0e68ee968305da98ebd10d96df6b533213c1084", None),
    (("construct", "--t", "7", "--k", "3", "--n", "161", "--format", "json"),
     "a03e3524f6537883ef3037442f7a82451cec28b0c288b9f576663b9d9e26ac8d",
     "ac215683305e1020d22500949585c79dacf5597e79efc3b57dc77a44c088a7ac"),
    (("construct", "--t", "8", "--k", "3", "--n", "400", "--format", "edgelist"),
     "7d2faf8dcce680e39c1524d892e80c04c104bfb398505141ef80e3d3552bee3a",
     "2a283d101cb5878e38f5f57bb8cdc4b0f2351a2587bff7d7154e8ac34bf12a8b"),
    (("construct", "--t", "9", "--k", "4", "--n", "703", "--format", "dot"),
     "ea15ae366a87584abe3c3f62c153684da8e64b0898b691fd1744654ebf424be6",
     "164509f564c8ae986040d4123ba15fce3a61b479920ba2191cf663990614f5d6"),
    (("schedule", "--t", "7", "--k", "2", "--originator", "5"),
     "56fc6f95eb69ecfb28ddd6eddbeac96b295e0d168e7deb4ec39049ae903027d1", None),
    (("schedule", "--t", "7", "--k", "3", "--n", "161", "--originator", "0"),
     "227f19a0cefccda390f805af276218125702ca9afa1d3ff29303bd9a6c8b35a0", None),
    (("schedule", "--t", "7", "--k", "3", "--n", "161", "--originator", "100"),
     "b8b6c6f2dc509b944fab59c5b20aa00f02fdf0f1e995ddd8fbacc5fa322f0011", None),
    # p=2 regime (tree 1, and with it w, is deleted): a cube root and a
    # low-half tree vertex; then w as originator where it survives
    (("schedule", "--t", "9", "--k", "4", "--n", "703", "--originator", "0"),
     "ac646fa32960a8a82132d11d1a09a6043dbbf11905366146b92cbc0bc1e59cee", None),
    (("schedule", "--t", "9", "--k", "4", "--n", "703", "--originator", "650"),
     "a41d837f68726e46db1211947d6afb5369ab997bb681c4380d8937a2e464fae4", None),
    (("schedule", "--t", "8", "--k", "3", "--n", "400", "--originator", "63"),
     "f7cac12bde68b7f91fde3489d079e7ea0d8b7627a3abd8f5a8d4024b1ed01078", None),
    (("certify", "--t", "8", "--k", "3", "--n", "400"),
     "6769a4d0098f0f6ebde1dfd2ebbd0eb61b588cffab6cba6c6780bd37b7484d4f", None),
    (("table1", "--t-min", "7", "--t-max", "18"),
     "d3fd3460e232365bc481060a846c2ca3462c4d9da510391823f6c06f76aec9fd", None),
    (("table2", "--t", "9"),
     "9f1f51c8049243481caf78f33572f101aa81304e1d2f452dd6d099dfe5ffd607", None),
    # t != 14: facsimile rows around every k column's ceiling
    (("table2", "--t", "9", "--paper-facsimile"),
     "e29e300e64f03efee6cfc4c5c5c75bf7cb3806e4a6f0cbce8a02aceaa7ea34ef", None),
    # up to n = 2^(t+1), where the direct bound is inapplicable
    (("table2", "--t", "10", "--n-min", "1025", "--n-max", "2048"),
     "2070c35852df0b848aaa968d2fb9e10e98225600726893dd4af45b241f214b35", None),
    (("bounds", "--n", "16385"),
     "183e18a51fc72d1be38084c76de58338b34746bb31a4d9a1ffb92d9c29146881", None),
    (("bounds", "--n", "24577"),
     "a844f62372c1844beb076ecd9cc5bc87d0f67754e43c49c7e5a5c5dcfdf9a2ee", None),
    (("bounds", "--n", "31745"),
     "62bbba92d67a418d24813c7f3e791d2b3adab43bda637fe8545e368b60089e07", None),
]


@pytest.mark.parametrize("argv,out_digest,file_digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_golden_output_digests(tmp_path, capsys, argv, out_digest, file_digest):
    argv = list(argv)
    if file_digest:
        argv += ["--out", str(tmp_path / "g")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    if file_digest:
        assert hashlib.sha256((tmp_path / "g").read_bytes()).hexdigest() == file_digest
