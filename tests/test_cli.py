import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import expodom
from expodom import canon, enumeration
from expodom.cli import SIZE_GUARD, main
from expodom.enumeration import MAX_ORDER as ENUM_MAX_ORDER, enumerate_subcubic_trees
from expodom.family import MAX_ORDER as FAMILY_MAX_ORDER
from expodom.graph import (
    MAX_ORDER,
    Graph,
    connected_components,
    format_edge_list,
    path,
    star,
)
from expodom.lp import LP_ORDER_LIMIT
from expodom.graph6 import emit_graph6, parse_graph6

from _oracles import random_subcubic_graph_of_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=60, **kwargs):
    """A fresh interpreter that imports expodom from this checkout."""
    src = os.path.dirname(os.path.dirname(expodom.__file__))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=timeout, **kwargs,
    )


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


# sha256 of `compute` stdout on eight random subcubic graphs of order 18-22,
# four of them cyclic, taken while gamma_e and gamma_e_star still ran one
# subset search each.  The shared scan must print the same bytes.
PINNED_COMPUTE_DIGEST = "d09d2a85947f645e246eb696169f99cde01b96d53fed8f05be7970b64f0cac16"


def test_compute_pinned_stdout(tmp_path, capsys):
    rng = random.Random(2018)
    digest = hashlib.sha256()
    cyclic = 0
    for i in range(8):
        g = random_subcubic_graph_of_order(rng, rng.randint(18, 22))
        cyclic += len(g.edges()) > g.n - len(connected_components(g))
        code, out, _ = run_cli(capsys, "compute", write_graph(tmp_path, g, f"g{i}.txt"))
        assert code == 0
        digest.update(out.encode())
    assert cyclic == 4
    assert digest.hexdigest() == PINNED_COMPUTE_DIGEST


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_compute_cover_search_memory(tmp_path, capsys):
    # the cover search's table grows as n**2 bits: on 128000 isolated
    # vertices it needs 2 GB, so inside 1 GB the order must be refused
    big = tmp_path / "big.txt"
    big.write_text("n 128000\n")
    done = run_python("-m", "expodom.cli", "compute", str(big), "--no-ilp", "--no-lp",
                      preexec_fn=_limit_memory)
    assert done.returncode == 65, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("refusing the domination search at n=128000")
    code, out, _ = run_cli(capsys, "compute", write_graph(tmp_path, path(3100)),
                           "--no-ilp", "--no-lp")
    assert code == 0
    assert json.loads(out)["gamma"] == 1034


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


# sha256 of `enumerate --n k` stdout, taken from the enumerator that built
# and canonized a Graph for every grown candidate
PINNED_ENUMERATE_DIGESTS = {
    14: "54ceb3cf35f45fa8f8fd61010bd075241981ca1243c309d611398d834ebaeb4e",
    15: "a8273822378b8384a8359cbde2cfdf1881003173cd8a5e33b42b869c24a55491",
    16: "92196e02f81e4173903955444fbb2eec09eb932b5215c952401bcd4f219438b8",
    18: "c6a58f21869676f6e7c82909d3dc379971e10bd2e46ef24af5d0f1454a98eaed",
}


@pytest.mark.parametrize("n", sorted(PINNED_ENUMERATE_DIGESTS))
def test_enumerate_pinned_stdout(capsys, n):
    code, out, err = run_cli(capsys, "enumerate", "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ENUMERATE_DIGESTS[n]


def test_enumerate_order_one(capsys):
    assert run_cli(capsys, "enumerate", "--n", "1") == (0, "@\n", "")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_enumerate_order_below_one_is_a_usage_error(capsys, n):
    assert run_cli(capsys, "enumerate", "--n", n) == (
        64, "", "expodom: tree order must be at least 1\n"
    )


def test_enumerate_order_above_the_limit_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", str(ENUM_MAX_ORDER + 1))
    assert (code, out) == (64, "")
    assert err == (
        f"expodom: tree order {ENUM_MAX_ORDER + 1} is above the enumeration "
        f"limit {ENUM_MAX_ORDER}\n"
    )


def test_enumerate_builds_no_graph(capsys, monkeypatch):
    # each line is written from its tree's code: with every way to build a
    # Graph refused, and the codes composed afresh, the output is unchanged
    want = "".join(emit_graph6(t) + "\n" for t in enumerate_subcubic_trees(12))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a Graph")

    monkeypatch.setattr(canon, "tree_from_code", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    monkeypatch.setattr(enumeration, "_CODES", {1: (b"()",)})
    assert run_cli(capsys, "enumerate", "--n", "12") == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "1000000"),
        ("verify", "--suite", "theorem2", "--nmax", "1000000"),
        ("verify", "--suite", "enumcount", "--nmax", "23"),
        ("conjecture", "--id", "1", "--nmax", "1000000"),
    ],
)
def test_huge_tree_order_is_refused_up_front(argv):
    # a fresh process with a short timeout: a missing guard starts hours of
    # work, which fails the test instead of hanging it
    result = run_python("-m", "expodom.cli", *argv, timeout=10)
    assert result.returncode == 64
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("expodom: ")
    assert "22" in result.stderr


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("family", "--nmax", "1000000"), FAMILY_MAX_ORDER),
        (("fixture", "--id", "f1:100000000"), MAX_ORDER),
        (("fixture", "--id", "f1:90000", "--format", "edgelist"), MAX_ORDER),
    ],
)
def test_oversized_build_is_refused_up_front(argv, limit):
    # hours of family growth, or a fixture too large to parse back, is
    # refused in a fresh process with a short timeout and 1 GB of memory
    done = run_python("-m", "expodom.cli", *argv, timeout=10, preexec_fn=_limit_memory)
    assert done.returncode == 64, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("expodom: ")
    assert str(limit) in done.stderr


@pytest.mark.parametrize("n", [150, 2000])
def test_compute_lp_guard(tmp_path, n):
    # the exact simplex runs for minutes on P150 and runs out of memory on
    # P2000: both are refused before any work starts
    src = write_graph(tmp_path, path(n))
    done = run_python("-m", "expodom.cli", "compute", src, "--no-ilp",
                      timeout=10, preexec_fn=_limit_memory)
    assert done.returncode == 65, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(
        f"refusing the fractional relaxation at n={n} > {LP_ORDER_LIMIT}"
    )
    assert done.stderr.count("\n") == 1
    assert "--force or --no-lp" in done.stderr


def test_compute_lp_guard_skipped_or_forced(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "compute", write_graph(tmp_path, path(101)),
                           "--no-ilp", "--no-lp")
    assert code == 0
    assert json.loads(out)["gamma"] == 34
    from expodom import cli

    monkeypatch.setattr(cli, "LP_ORDER_LIMIT", 5)
    src = write_graph(tmp_path, path(6))
    assert run_cli(capsys, "compute", src)[0] == 65
    code, out, _ = run_cli(capsys, "compute", src, "--force")
    assert code == 0
    assert json.loads(out)["gamma_ef_star"] == {"num": "4", "den": "3"}


def test_compute_out_of_memory_exits_65(tmp_path):
    # --force lifts the LP guard; the exact LP of P1000 does not fit in
    # 128 MB, and running out must be one stderr line, not a traceback
    src = write_graph(tmp_path, path(1000))
    limit = 1 << 27
    done = run_python(
        "-m", "expodom.cli", "compute", src, "--no-ilp", "--force", timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 65, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("expodom: out of memory")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


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


# sha256 of `family --nmax k` stdout, taken from the generator that walked
# every orbit key and grown tree through its own `rooted_code` and `Graph`
PINNED_FAMILY_DIGESTS = {
    12: "b654d8a0eb1518723670c13ea02763575f49470502a5c44d131ff0df941d5df2",
    14: "f98ec9e247d841d5d655f4e7022905cd1f50f42c8d6ffd9dfd2363e9c590e876",
    16: "1566e819f617420962f8dfca8a861759c68e898dbb1cadb3a43cfecbf6f9b300",
}


@pytest.mark.parametrize("n", sorted(PINNED_FAMILY_DIGESTS))
def test_family_pinned_stdout(capsys, n):
    code, out, err = run_cli(capsys, "family", "--nmax", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FAMILY_DIGESTS[n]


def test_family_recognize(tmp_path, capsys):
    src = write_graph(tmp_path, star(3))
    code, out, _ = run_cli(capsys, "family", "--recognize", src)
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert [step["op"] for step in data["trace"]] == [1, 1, 1]


@pytest.mark.parametrize("n", [27, 2500])
def test_family_recognize_size_guard(tmp_path, capsys, n):
    # the guard reads n alone: the reverse search over peel-backs takes
    # seconds on random trees of order 26, so P27 and P2500 are refused too
    src = write_graph(tmp_path, path(n))
    code, out, err = run_cli(capsys, "family", "--recognize", src)
    assert code == 65
    assert out == ""
    assert err.startswith(f"refusing recognition at n={n} > {SIZE_GUARD}")
    assert err.count("\n") == 1


def test_family_needs_a_mode(capsys):
    code, out, err = run_cli(capsys, "family")
    assert code == 64
    assert out == ""
    assert err.startswith("usage: expodom family")


def test_family_refuses_both_modes(tmp_path, capsys):
    src = write_graph(tmp_path, star(3))
    code, out, err = run_cli(capsys, "family", "--nmax", "4", "--recognize", src)
    assert code == 64
    assert out == ""
    assert err.startswith("usage: expodom family")


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

    monkeypatch.setattr(solvers, "_per_component", lambda g, take: [(1, [(0,)])] * 2)
    code, out, err = run_cli(capsys, "compute", "--fixture", "f2")
    assert code == 70
    assert out == ""
    assert err.startswith("expodom: certificate check failed:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_certificate_error_exit_under_optimize():
    # the witness re-checks are explicit code, so they survive python -O
    script = (
        "from expodom import cli, solvers\n"
        "solvers._per_component = lambda g, take: [(1, [(0,)])] * 2\n"
        "raise SystemExit(cli.main(['compute', '--fixture', 'f2']))\n"
    )
    done = run_python("-O", "-c", script)
    assert done.returncode == 70, done.stderr
    assert done.stderr.startswith("expodom: certificate check failed: gamma_e witness")


def test_porous_certificate_error_exit_under_optimize():
    # a bad gamma_e_star witness alone is caught too, gamma_e's being sound
    script = (
        "from expodom import cli, solvers\n"
        "real = solvers._per_component\n"
        "solvers._per_component = lambda g, take: [(1, [(0,)]), real(g, take)[1]]\n"
        "raise SystemExit(cli.main(['compute', '--fixture', 'f2']))\n"
    )
    done = run_python("-O", "-c", script)
    assert done.returncode == 70, done.stderr
    assert done.stderr.startswith(
        "expodom: certificate check failed: gamma_e_star witness"
    )


def test_main_registers_the_exit_freeze_once(capsys, monkeypatch):
    # repeated in-process calls stack no atexit handlers, and nothing is
    # frozen before the process exits
    from expodom import cli

    registered = []
    monkeypatch.setattr(cli, "_freeze_registered", False)
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    frozen = gc.get_freeze_count()
    for _ in range(3):
        assert main(["compute", "--fixture", "f1:1", "--no-lp"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert registered == [gc.freeze]
    assert gc.get_freeze_count() == frozen


def test_cold_compute_prints_through_the_exit_freeze():
    # the heap is frozen at exit, after main returns: stdout still arrives
    # whole, and the exit is clean
    done = run_python("-m", "expodom.cli", "compute", "--fixture", "f2")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        '{"n": 22, "gamma": 7, "gamma_witness": [0, 2, 3, 9, 10, 16, 17], '
        '"gamma_e": 6, "gamma_e_witness": [2, 3, 9, 10, 16, 17], '
        '"gamma_e_star": 4, "gamma_e_star_witness": [0, 1, 8, 15], '
        '"gamma_ef_star": {"num": "4", "den": "1"}}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "theorem2", "--nmax", "2", "--jobs", "0"),
        ("conjecture", "--id", "1", "--jobs", "-1"),
    ],
)
def test_jobs_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err == "expodom: jobs must be at least 1\n"


def test_cold_import_loads_every_layer_and_no_dataclasses():
    # a traced run reads every layer from sys.modules right after this import
    layers = "simplex lp solvers weights graph canon enumeration family harness graph6 cli"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import expodom.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        f"print([m for m in {layers.split()!r} if 'expodom.' + m not in sys.modules])\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"
