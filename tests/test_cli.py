import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_data
from qloop import cluster
from qloop.cli import main
from qloop.ymono import poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fundamental_json(capsys):
    code, out, _ = run(capsys, "qchar", "fundamental", "--type", "A3",
                       "--node", "1", "--shift", "0", "--format", "json")
    assert code == 0
    poly = poly_from_json(json.loads(out))
    assert poly == golden_data.a3_fundamental_node1_expected()


def test_fundamental_text_and_latex(capsys):
    code, out, _ = run(capsys, "qchar", "fundamental", "--type", "A1",
                       "--node", "1", "--shift", "0")
    assert code == 0 and "Y[1,0]" in out
    code, out, _ = run(capsys, "qchar", "fundamental", "--type", "A1",
                       "--node", "1", "--shift", "0", "--format", "latex")
    assert code == 0 and "Y_{1,q^{0}}" in out


def test_unknown_type_is_invalid_input(capsys):
    code, _, err = run(capsys, "qchar", "fundamental", "--type", "Q5",
                       "--node", "1", "--shift", "0")
    assert code == 2
    assert "error" in err


def test_sl2_commands(capsys):
    code, out, _ = run(capsys, "sl2", "kr", "--k", "2", "--s", "0",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == 3
    code, out, _ = run(capsys, "sl2", "factor", "--monomial",
                       "[[1,0,1],[1,4,1]]", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"origin": 0, "length": 1},
                               {"origin": 4, "length": 1}]
    code, out, _ = run(capsys, "sl2", "ybe", "--u", "3", "--v", "5",
                       "--q", "2")
    assert code == 0 and out.strip() == "pass"
    code, _, err = run(capsys, "sl2", "ybe", "--u", "4", "--v", "5",
                       "--q", "2")
    assert code == 2 and "pole" in err


def test_rep_commands(capsys):
    code, out, _ = run(capsys, "rep", "roots", "--type", "A2",
                       "--format", "json")
    assert code == 0 and json.loads(out) == [[0, 1], [1, 0], [1, 1]]
    code, out, _ = run(capsys, "rep", "euler", "--type", "D4",
                       "--beta", "1,1,2,1", "--nu", "0,0,1,0",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"euler": 2}
    code, _, err = run(capsys, "rep", "euler", "--type", "A2",
                       "--beta", "1,1", "--nu", "0,1,0")
    assert code == 2
    for nu in (("--nu=2,0,0,0",), ("--nu=-1,0,0,0",), ("--nu", "-1,0,0,0")):
        code, out, err = run(capsys, "rep", "euler", "--type", "D4",
                             "--beta", "1,1,2,1", *nu)
        assert code == 2 and out == "" and "error" in err, nu
        assert "nu must lie between 0 and dim M" in err, nu


def test_qchar_standard(capsys):
    code, out, _ = run(capsys, "qchar", "standard", "--type", "A1",
                       "--w", "[[1,0,1],[1,2,1]]", "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == 4


def test_qchar_standard_adds_repeated_entries(capsys):
    want = run(capsys, "qchar", "standard", "--type", "A1",
               "--w", "[[1,0,2]]")
    assert want[0] == 0 and want[1].count(" + ") == 2
    for w in ("[[1,0,1],[1,0,1]]", "[[1,0,2],[1,0,0]]"):
        assert run(capsys, "qchar", "standard", "--type", "A1",
                   "--w", w) == want, w


@pytest.mark.parametrize("argv", [
    ("qchar", "standard", "--type", "A1", "--w", "[[1, 0.5, 1]]"),
    ("qchar", "standard", "--type", "A1", "--w", "[[1, 0, 1.9]]"),
    ("qchar", "standard", "--type", "A1", "--w", "[[1, 0, true]]"),
    ("qchar", "standard", "--type", "A1", "--w", '[["1", 0, 1]]'),
    ("qchar", "standard", "--type", "A1", "--w", "[[1, 0]]"),
    ("sl2", "factor", "--monomial", "[[1, 0.5, 1]]"),
    ("sl2", "factor", "--monomial", "[[1, 0, true]]"),
    ("sl2", "factor", "--monomial", "[[1, 0, 1.0]]"),
    ("sl2", "factor", "--monomial", '{"1": [0, 1]}'),
])
def test_non_integer_json_entries_are_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "integer triples" in err


def test_cluster_commands(capsys):
    code, out, _ = run(capsys, "cluster", "enumerate", "--type", "A3",
                       "--level", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"clusters": 14, "variables": 9, "frozen": 3}
    assert len(data["clusters"]) == 14
    assert all(len(cl) == 3 for cl in data["clusters"])
    some_var = data["variables"]["v000"]
    assert set(some_var) == {"denominator", "F", "g"}
    code, out, _ = run(capsys, "cluster", "fpoly", "--type", "A2",
                       "--level", "1", "--beta", "1,1", "--format", "json")
    assert code == 0
    fdata = json.loads(out)
    assert fdata["beta"] == [1, 1]
    assert {"v": [], "c": 1} in fdata["F"]["terms"]
    code, out, _ = run(capsys, "cluster", "classify", "--type", "A2",
                       "--level", "2")
    assert code == 0 and out.strip() == "D4"


def test_cluster_fpoly_rejects_bad_denominators(capsys):
    # too few entries, too many, and full-length vectors that are
    # neither a positive root nor minus a simple root
    for beta in ("1", "1,1,7", "0,0", "2,2", "-1,-1", "-1,1"):
        code, out, err = run(capsys, "cluster", "fpoly", "--type", "A2",
                             f"--beta={beta}")
        assert code == 2 and out == "" and "error" in err, beta
    for beta, text in (("-1,0", "1"), ("0,1", "1 + v2")):
        code, out, _ = run(capsys, "cluster", "fpoly", "--type", "A2",
                           f"--beta={beta}")
        assert code == 0 and out.strip() == text, beta


def test_list_values_may_start_with_a_minus_sign(capsys):
    # `--beta X` reads like `--beta=X` even when X starts with a minus
    for argv in (("--beta", "-1,0,0"), ("--beta=-1,0,0",)):
        code, out, err = run(capsys, "cluster", "fpoly", "--type", "A3",
                             *argv, "--format", "json")
        assert code == 0 and err == "", argv
        assert json.loads(out) == {"beta": [-1, 0, 0],
                                   "F": {"terms": [{"v": [], "c": 1}]}}
    code, out, err = run(capsys, "cluster", "fpoly", "--type", "A3",
                         "--beta", "-1,1,0")
    assert code == 2 and out == "" and "error" in err


def test_ybe_values_may_start_with_a_minus_sign(capsys):
    # `--u X` reads like `--u=X`, and so for --v and --q
    spaced = run(capsys, "sl2", "ybe", "--u", "-1/2", "--v", "2", "--q", "3")
    joined = run(capsys, "sl2", "ybe", "--u=-1/2", "--v=2", "--q=3")
    assert spaced == joined == (0, "pass\n", "")
    assert (run(capsys, "sl2", "ybe", "--u", "3", "--v", "-5", "--q", "-2")
            == run(capsys, "sl2", "ybe", "--u=3", "--v=-5", "--q=-2"))


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "l1", "--type", "A2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(entry["pass"] for entry in report)
    assert all({"case", "pass", "lhs", "rhs"} <= set(entry)
               for entry in report)
    code, out, _ = run(capsys, "verify", "tsystem", "--type", "A2",
                       "--node", "1", "--k", "2", "--s", "0")
    assert code == 0 and out.strip() == "pass"
    code, out, _ = run(capsys, "verify", "iota", "--type", "A1",
                       "--level", "2")
    assert code == 0


def test_tsystem_invalid_input_exits_2_before_any_work(capsys, monkeypatch):
    from qloop import engine

    def no_work(*args):
        raise AssertionError("a T-system step ran")

    monkeypatch.setattr(engine, "_tsystem_step", no_work)
    for node, k in (("9", "1"), ("3", "0")):
        code, out, err = run(capsys, "verify", "tsystem", "--type", "D4",
                             "--node", node, "--k", k, "--s", "0")
        assert code == 2 and out == "" and "error" in err, (node, k)


def test_cap_exceeded_is_reported(capsys):
    code, _, err = run(capsys, "cluster", "enumerate", "--type", "A3",
                       "--level", "1", "--seed-cap", "3")
    assert code == 1 and "cap" in err


def test_a_cap_below_one_is_invalid_input(capsys):
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "cluster", "enumerate", "--type", "A1",
                             "--level", "1", "--seed-cap", cap)
        assert code == 2 and out == "", cap
        assert err == f"error: --seed-cap must be at least 1, not {cap}\n"


def test_iota_fingerprint_fails_on_a_wrong_type(capsys, monkeypatch):
    monkeypatch.setattr(cluster, "classify_finite_type", lambda *a: "A5")
    code, out, _ = run(capsys, "verify", "iota", "--type", "A2",
                       "--level", "2", "--format", "json")
    assert code == 1
    entry = json.loads(out)[-1]
    assert entry["case"].startswith("cluster type fingerprint: A5")
    assert entry["pass"] is False


def test_benchmark_tracer_binds_every_layer():
    # cli imports preproj and engine only when a command runs, so these
    # spans show that the tracer's wrapped bindings are the ones reached
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    prefix = "perfbench-trace "
    for argv, spans in (
            (("sl2", "kr", "--k", "1", "--s", "0"), {"cli"}),
            (("qchar", "fundamental", "--type", "A2", "--node", "1",
              "--shift", "0"), {"preproj.qchar"}),
            (("verify", "tsystem", "--type", "A2", "--node", "1", "--k", "1",
              "--s", "0"), {"engine.verify_tsystem"}),
            (("verify", "l1", "--type", "A2"),
             {"engine.verify_l1", "engine.gr_series"})):
        out = subprocess.run([sys.executable, "perfbench/tracer.py", *argv],
                             cwd=root, env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        last = out.stderr.splitlines()[-1]
        assert last.startswith(prefix)
        trace = json.loads(last[len(prefix):])
        assert spans <= {trace["names"][n] for n in trace["spans"][::4]}, argv


def test_benchmark_tracer_keeps_stdout(capsys):
    # the tracer setattrs every binding it wraps, so a binding gone from
    # qloop fails its traced pass before any command runs
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ("rep", "euler", "--type", "D4", "--beta", "1,1,2,1",
            "--nu", "0,0,1,0")
    out = subprocess.run([sys.executable, "perfbench/tracer.py", *argv],
                         cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run(capsys, *argv)[1]
    assert out.stderr.splitlines()[-1].startswith("perfbench-trace ")


# Modules each command must not load.  No command loads `dataclasses` or
# `typing`: every process compiles what it imports when no bytecode is
# written.
_UNUSED_MODULES = (
    (("sl2", "kr", "--k", "1", "--s", "0"),
     {"qloop.quiverrep", "qloop.linalg", "qloop.preproj", "qloop.engine",
      "qloop.cluster", "fractions"}),
    (("qchar", "fundamental", "--type", "A2", "--node", "1", "--shift", "0"),
     {"qloop.engine", "qloop.cluster", "qloop.sl2"}),
    (("verify", "tsystem", "--type", "A2", "--node", "1", "--k", "1",
      "--s", "0"), {"qloop.cluster", "qloop.sl2"}),
    (("verify", "l1", "--type", "A2"), set()),
    (("rep", "roots", "--type", "A2"),
     {"qloop.quiverrep", "qloop.linalg", "fractions"}),
)


@pytest.mark.parametrize("argv, unused", _UNUSED_MODULES)
def test_command_loads_only_what_it_runs(argv, unused):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # -S: no `site`, which would load modules of its own
    script = ("import sys\nfrom qloop.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(*sys.modules, file=sys.stderr)\nsys.exit(code)\n")
    out = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stderr.split())
    assert "qloop.cli" in loaded
    assert not loaded & (unused | {"dataclasses", "typing"}), sorted(loaded)


def test_console_script_runs_in_a_subprocess():
    import shutil
    import subprocess
    import sys
    exe = shutil.which("qloop")
    cmd = [exe] if exe else [sys.executable, "-m", "qloop.cli"]
    out = subprocess.run(cmd + ["verify", "l1", "--type", "A2"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "FAIL" not in out.stdout


def test_streamed_output_equals_the_whole_rendering(capsys):
    from qloop.cartan import CartanData
    from qloop.cli import _emit_poly
    from qloop.engine import KRLabel, kr_qchar
    from qloop.ymono import (YPolynomial, poly_to_json, render_latex,
                             render_text)
    polys = (YPolynomial.zero(), YPolynomial.one(),
             kr_qchar(CartanData.from_label("A2"), KRLabel(1, 2, 0)))
    for p in polys:
        for fmt, whole in (("json", json.dumps(poly_to_json(p))),
                           ("text", render_text(p)),
                           ("latex", render_latex(p))):
            _emit_poly(p, fmt)
            assert capsys.readouterr().out == whole + "\n", (p, fmt)


# Peak of the memory tracemalloc traces over one command, modules
# imported beforehand, stdout sent to the null device.
_CLI_PEAK_SCRIPT = """
import os, sys, tracemalloc
from qloop import cli, engine, preproj
out, sys.stdout = sys.stdout, open(os.devnull, "w")
tracemalloc.start()
code = cli.main(sys.argv[1:])
peak = tracemalloc.get_traced_memory()[1]
sys.stdout = out
print(code, peak)
"""


def test_qchar_kr_json_streams_its_terms():
    # 1.31 MB measured with Python 3.11 (4.55 MB when the list of term
    # dicts and the whole JSON string were built before printing),
    # bound 15% above
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ("qchar", "kr", "--type", "A5", "--node", "3", "--k", "3",
            "--s", "0", "--format", "json")
    out = subprocess.run([sys.executable, "-S", "-c", _CLI_PEAK_SCRIPT,
                          *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, peak = out.stdout.split()
    assert code == "0" and int(peak) / 2**20 <= 1.31 * 1.15


def test_json_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "cluster", "enumerate", "--type", "A2",
                           "--level", "1", "--format", "json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
