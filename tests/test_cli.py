import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from expodom.cli import SIZE_GUARD, main
from expodom.graph import Graph, path, star, format_edge_list
from expodom.graph6 import emit_graph6, parse_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.txt"):
    target = tmp_path / name
    target.write_text(format_edge_list(g))
    return str(target)


def test_compute_star(tmp_path, capsys):
    src = write_graph(tmp_path, star(3))
    code, out, _ = run_cli(capsys, "compute", src)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["gamma"] == 1
    assert data["gamma_e"] == 1
    assert data["gamma_ef_star"] == {"num": "1", "den": "1"}


def test_compute_fixture_f2(capsys):
    code, out, _ = run_cli(capsys, "compute", "--fixture", "f2")
    assert code == 0
    data = json.loads(out)
    assert data["gamma_e"] == 6
    assert data["gamma_e_star"] == 4
    assert data["gamma_e_star_witness"] == [0, 1, 8, 15]
    assert data["gamma_ef_star"] == {"num": "4", "den": "1"}


def test_compute_p10(tmp_path, capsys):
    src = write_graph(tmp_path, path(10))
    code, out, _ = run_cli(capsys, "compute", src)
    assert code == 0
    assert json.loads(out)["gamma_ef_star"] == {"num": "2", "den": "1"}


def test_compute_graph6_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(star(3))))
    code, out, _ = run_cli(capsys, "compute", "-", "--format", "graph6")
    assert code == 0
    assert json.loads(out)["gamma"] == 1


def test_compute_byte_identical(tmp_path, capsys):
    src = write_graph(tmp_path, path(6))
    _, first, _ = run_cli(capsys, "compute", src)
    _, second, _ = run_cli(capsys, "compute", src)
    assert first == second


def test_compute_size_guard(tmp_path, capsys):
    src = write_graph(tmp_path, path(30))
    code, _, err = run_cli(capsys, "compute", src)
    assert code == 65
    assert "refusing" in err
    code, out, _ = run_cli(capsys, "compute", src, "--no-ilp")
    assert code == 0
    data = json.loads(out)
    assert data["gamma_e"] is None
    assert data["gamma"] == 10


def test_compute_no_lp(tmp_path, capsys):
    src = write_graph(tmp_path, path(4))
    code, out, _ = run_cli(capsys, "compute", src, "--no-lp")
    assert code == 0
    assert json.loads(out)["gamma_ef_star"] is None


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 65
    assert "self-loop" in err


def test_missing_file_exit(capsys):
    code, _, _ = run_cli(capsys, "compute", "/nonexistent/file")
    assert code == 65


def test_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 64
    assert run_cli(capsys, "conjecture", "--id", "9")[0] == 64
    assert run_cli(capsys, "frobnicate")[0] == 64
    assert run_cli(capsys)[0] == 64


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.split()
    assert len(lines) == 2
    assert {parse_graph6(s).n for s in lines} == {4}


def test_tau_cli(tmp_path, capsys):
    src = write_graph(tmp_path, path(3))
    code, out, _ = run_cli(capsys, "tau", src, "--vertex", "0")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == {"num": "4", "den": "1"}
    assert data["witness"] == []
    code, _, _ = run_cli(capsys, "tau", src, "--vertex", "7")
    assert code == 65
    # two disjoint edges: the empty set strands the far edge, and one
    # dominator there leaves a finite repair
    src = write_graph(tmp_path, Graph(4, [(0, 1), (2, 3)]), "two_edges.txt")
    code, out, _ = run_cli(capsys, "tau", src, "--vertex", "0")
    assert code == 0
    assert out == '{"vertex": 0, "tau": {"num": "2", "den": "1"}, "witness": [2]}\n'


@pytest.mark.parametrize("n", [27, 2500])
def test_tau_size_guard(tmp_path, capsys, n):
    # P27 would run its searches for seconds, P2500 for ever
    src = write_graph(tmp_path, path(n))
    code, out, err = run_cli(capsys, "tau", src, "--vertex", "0")
    assert code == 65
    assert out == ""
    assert err.startswith(f"refusing tau at n={n} > {SIZE_GUARD}")
    assert err.count("\n") == 1


def test_non_ascii_input_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe 0 1\n")
    code, out, err = run_cli(capsys, "compute", str(bad))
    assert code == 65
    assert out == ""
    assert err.startswith("expodom: input is not ASCII")
    assert err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=32))
def test_arbitrary_bytes_exit_0_or_65(tmp_path_factory, data):
    src = tmp_path_factory.getbasetemp() / "fuzz_input"
    src.write_bytes(data)
    for fmt in ("auto", "graph6", "edgelist"):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["compute", str(src), "--no-ilp", "--no-lp",
                         "--format", fmt])
        assert code in (0, 65), (fmt, data, sink.getvalue())


def test_family_generate(capsys):
    code, out, _ = run_cli(capsys, "family", "--nmax", "4")
    assert code == 0
    assert len(out.split()) == 5  # P1, P2, P3, P4, star


def test_family_recognize(tmp_path, capsys):
    src = write_graph(tmp_path, star(3))
    code, out, _ = run_cli(capsys, "family", "--recognize", src)
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert [step["op"] for step in data["trace"]] == [1, 1, 1]


@pytest.mark.parametrize("n", [27, 2500])
def test_family_recognize_size_guard(tmp_path, capsys, n):
    # P27 would run its tau searches for seconds, P2500 for ever
    src = write_graph(tmp_path, path(n))
    code, out, err = run_cli(capsys, "family", "--recognize", src)
    assert code == 65
    assert out == ""
    assert err.startswith(f"refusing recognition at n={n} > {SIZE_GUARD}")
    assert err.count("\n") == 1


def test_family_needs_a_mode(capsys):
    code, _, err = run_cli(capsys, "family")
    assert code == 65


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem2", "--nmax", "6")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []


def test_verify_violation_exit(capsys, monkeypatch):
    # force a failing suite through the table to exercise exit code 2
    import expodom.harness as harness

    def always_fails(g6, g):
        return [(g6, "nothing", "something")]

    spec = harness.SuiteSpec(12, harness._sweep(always_fails))
    monkeypatch.setitem(harness.SUITES, "theorem2", spec)
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem2", "--nmax", "3")
    assert code == 2
    assert json.loads(out)["violations"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "theorem2", "--nmax", "0"),
        ("verify", "--suite", "theorem4", "--nmax", "-3"),
        ("verify", "--suite", "enumcount", "--nmax", "0"),
        ("verify", "--suite", "lemma1", "--nmax", "0"),
        ("conjecture", "--id", "1", "--nmax", "0"),
    ],
)
def test_nmax_below_one_is_a_usage_error(capsys, argv):
    # an empty sweep must not report a pass
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err == "expodom: n_max must be at least 1\n"


def test_verify_lemma2_needs_two_vertices(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma2", "--nmax", "1")
    assert code == 64
    assert out == ""
    assert err == "expodom: lemma2 needs n_max >= 2\n"


def test_conjecture_cli(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--id", "1", "--nmax", "7")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_conjecture_default_nmax(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--id", "1")
    assert code == 0
    assert json.loads(out)["params"] == {"n_max": 10}


def test_fixture_cli(capsys):
    code, out, _ = run_cli(capsys, "fixture", "--id", "f1:2")
    assert code == 0
    assert parse_graph6(out.strip()).n == 10
    code, out, _ = run_cli(capsys, "fixture", "--id", "f2", "--format", "edgelist")
    assert code == 0
    assert out.startswith("n 22")
    assert run_cli(capsys, "fixture", "--id", "f9")[0] == 64


def test_compute_force_above_size_guard(tmp_path, capsys):
    # n = 27 > SIZE_GUARD: the widest packed weight fields the tests reach
    src = write_graph(tmp_path, path(27))
    code, out, _ = run_cli(capsys, "compute", src, "--force")
    assert code == 0
    data = json.loads(out)
    assert data["gamma_e"] == data["gamma_e_star"] == 7
    assert data["gamma_e_witness"] == [1, 5, 9, 13, 17, 21, 25]
    assert data["gamma_e_star_witness"] == [1, 5, 9, 13, 17, 21, 25]


def test_certificate_error_exit(capsys, monkeypatch):
    # a search that hands back a non-dominating witness must not end in a traceback
    from expodom import solvers

    monkeypatch.setattr(solvers, "_per_component", lambda g, porous_only: (1, (0,)))
    code, out, err = run_cli(capsys, "compute", "--fixture", "f2")
    assert code == 70
    assert out == ""
    assert err.startswith("expodom: certificate check failed:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
