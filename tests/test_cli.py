"""End-to-end CLI behaviour: outputs, exit codes, piping."""

import importlib.metadata
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gemkit
from gemkit import ColourfulGraph, random_graph, write_cgf
from gemkit.cli import main, run
from conftest import (
    circle_graph,
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.cgf"
    path.write_text(write_cgf(two_tetrahedra_graph()))
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.cgf"
    path.write_text(write_cgf(torus_graph()))
    return str(path)


def test_validate(tetra_file, capsys):
    assert run(["validate", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "d: 3" in out and "n: 4" in out and "connected: yes" in out


def test_validate_missing_file(capsys):
    assert run(["validate", "/nonexistent/g.cgf"]) == 65


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.cgf"
    path.write_text("cgf 3 4\n3 4\n")
    assert run(["validate", str(path)]) == 65
    assert "matching lines" in capsys.readouterr().err


def test_validate_binary_file(tmp_path, capsys):
    path = tmp_path / "image.cgf"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe\xc3\x28")
    assert run(["validate", str(path)]) == 65
    assert str(path) in capsys.readouterr().err


def test_validate_undecodable_stdin():
    # strict UTF-8 on stdin, as under a UTF-8 locale; the C locale's UTF-8
    # mode would smuggle the bytes through as surrogates instead
    env = dict(_checkout_env(), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "gemkit", "validate", "-"],
        input=b"cgf 1 2\n\xff\xfe\xc3\x28\n",
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 65
    assert b"Traceback" not in proc.stderr


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 64


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 64


@pytest.mark.parametrize(
    "argv,code",
    [
        ([], 64),
        (["frobnicate"], 64),
        (["residues", "{tetra}"], 64),
        (["--help"], 0),
        (["validate", "{missing}"], 65),
        (["validate", "{malformed}"], 65),
        (["validate", "{binary}"], 65),
        (["residues", "{tetra}", "--colours", "1,9"], 64),
        (["gen", "--d", "3", "--k", "2", "--sigma", "x", "--tau", "1,2"], 64),
        (["gen", "--d", "3", "--k", "2"], 64),
        (["verify-lemmas", "--d", "3", "--n", "4", "--check-5"], 64),
        (["bound-check", "--cgf2", "{tetra}"], 64),
        (["census", "--d", "3", "--n", "2", "--emit-graphs", "{taken}"], 64),
        (["random", "--d", "3", "--n", "2000000000"], 64),
    ],
    ids=["no-arguments", "unknown-subcommand", "missing-required", "help", "missing-file",
         "malformed-cgf", "binary-cgf", "bad-colours", "bad-sigma", "gen-no-perms",
         "check-5-below-d4", "bound-check-d3", "unwritable-emit", "budget"],
)
def test_run_returns_every_exit_code_and_never_raises_system_exit(tmp_path, capsys, argv, code):
    # in-process callers read one int; only main() ends the process
    files = {
        "tetra": tmp_path / "tetra.cgf",
        "missing": tmp_path / "missing.cgf",
        "malformed": tmp_path / "bad.cgf",
        "binary": tmp_path / "image.cgf",
        "taken": tmp_path / "taken",
    }
    files["tetra"].write_text(write_cgf(two_tetrahedra_graph()))
    files["malformed"].write_text("cgf 3 4\n3 4\n")
    files["binary"].write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe\xc3\x28")
    files["taken"].write_text("")
    try:
        got = run([a.format(**files) for a in argv])
    except SystemExit as e:
        pytest.fail(f"run raised SystemExit({e.code!r})")
    assert type(got) is int and got == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith("usage: gemkit") and err == ""
    else:
        assert out == "" and err


def test_readme_cli_table_names_exactly_the_parsers_subcommands(capsys):
    assert run(["--help"]) == 0
    choices = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## CLI\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert table[0] == "| subcommand | what it does |"
    rows = [line.split("`")[1].split()[0] for line in table[2:]]
    assert sorted(rows) == sorted(choices)


def test_residues(tetra_file, capsys):
    assert run(["residues", tetra_file, "--colours", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "kappa: 2" in out
    assert "component 0: 1 3" in out


def test_residues_rejects_bad_colours(tetra_file, capsys):
    assert run(["residues", tetra_file, "--colours", "1,9"]) == 64


# every colour subset, by size and then by bitmask within a size (so 1,4
# follows 2,3), as size;colours;kappa
KAPPA_TETRA = """\
0;-;4
1;1;2
1;2;2
1;3;2
1;4;2
2;1,2;2
2;1,3;2
2;2,3;2
2;1,4;1
2;2,4;1
2;3,4;1
3;1,2,3;2
3;1,2,4;1
3;1,3,4;1
3;2,3,4;1
4;1,2,3,4;1
"""

KAPPA_D4 = """\
0;-;6
1;1;3
1;2;3
1;3;3
1;4;3
1;5;3
2;1,2;1
2;1,3;1
2;2,3;1
2;1,4;3
2;2,4;1
2;3,4;1
2;1,5;2
2;2,5;2
2;3,5;2
2;4,5;2
3;1,2,3;1
3;1,2,4;1
3;1,3,4;1
3;2,3,4;1
3;1,2,5;1
3;1,3,5;1
3;2,3,5;1
3;1,4,5;2
3;2,4,5;1
3;3,4,5;1
4;1,2,3,4;1
4;1,2,3,5;1
4;1,2,4,5;1
4;1,3,4,5;1
4;2,3,4,5;1
5;1,2,3,4,5;1
"""


def test_kappa_rows(tmp_path, capsys):
    d4 = ColourfulGraph(4, ((4, 5, 6), (5, 6, 4), (6, 4, 5), (4, 5, 6), (5, 4, 6)))
    for G, expected in ((two_tetrahedra_graph(), KAPPA_TETRA), (d4, KAPPA_D4)):
        path = tmp_path / f"d{G.d}.cgf"
        path.write_text(write_cgf(G))
        assert run(["kappa", str(path)]) == 0
        assert capsys.readouterr().out == expected


def test_genus_rows(torus_file, capsys):
    assert run(["genus", torus_file]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "I=1,2,3 min_vertex=1 V=6 F=3 genus=1"


def test_check_manifold_yes(tetra_file, capsys):
    assert run(["check-manifold", tetra_file]) == 0
    assert "manifold: yes (d<=3 exact)" in capsys.readouterr().out


def test_check_sphere_verdict_exit_codes(tmp_path, capsys):
    no_file = tmp_path / "no.cgf"
    no_file.write_text(write_cgf(torus_in_d3()))
    assert run(["check-sphere", str(no_file), "--certificate"]) == 1
    out = capsys.readouterr().out
    assert "sphere: no (semi-decision)" in out
    assert "certificate: genus witness ((1, 2, 3), 1, 1)" in out

    unknown_file = tmp_path / "unknown.cgf"
    unknown_file.write_text(write_cgf(split_pair_graph()))
    assert run(["check-sphere", str(unknown_file)]) == 2
    assert "sphere: unknown" in capsys.readouterr().out


def test_check_sphere_exact_note_for_surfaces(torus_file, capsys):
    assert run(["check-sphere", torus_file]) == 1
    assert "sphere: no (exact)" in capsys.readouterr().out


def test_check_sphere_rejects_disconnected(tmp_path, capsys):
    path = tmp_path / "dd.cgf"
    path.write_text(write_cgf(double_dipole_graph()))
    assert run(["check-sphere", str(path)]) == 64
    assert "connected" in capsys.readouterr().err


def test_reduce_rejects_disconnected(tmp_path, capsys):
    path = tmp_path / "dd.cgf"
    path.write_text(write_cgf(double_dipole_graph()))
    assert run(["reduce", str(path)]) == 64
    assert "connected" in capsys.readouterr().err


def test_betti_default_colours(tetra_file, capsys):
    assert run(["betti", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "colours: 1,2,3,4" in out
    assert "betti: 1,0,0,1" in out


def test_betti_subset(torus_file, capsys):
    assert run(["betti", torus_file, "--colours", "1,2"]) == 0
    assert "betti: 1,1" in capsys.readouterr().out


def test_reduce_trace(tetra_file, capsys):
    assert run(["reduce", tetra_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "remove (1,3,4)",
        "moves: 1",
        "terminal n: 2",
        "reached dipole: true",
    ]


def test_gen_writes_parseable_cgf(capsys):
    assert run(["gen", "--d", "3", "--k", "2", "--sigma", "1,2", "--tau", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# glued double path d=3 k=2")
    from gemkit import parse_cgf

    G = parse_cgf(out)
    assert G.d == 3 and G.n == 24


def test_gen_needs_permutations_or_flag(capsys):
    assert run(["gen", "--d", "3", "--k", "2"]) == 64


def test_gen_rejects_invalid_pairing(capsys):
    # parity-breaking sigma for odd d is a parameter error
    assert run(["gen", "--d", "3", "--k", "2", "--sigma", "2,1", "--tau", "1,2"]) == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma,err",
    [
        ("1,1", "error: sigma must be a permutation of [1..2], got (1, 1)\n"),
        ("1,3", "error: sigma must be a permutation of [1..2], got (1, 3)\n"),
        ("x", "bad sigma 'x'\n"),
    ],
)
def test_gen_rejects_a_sigma_that_is_not_a_permutation(capsys, sigma, err):
    assert run(["gen", "--d", "3", "--k", "2", "--sigma", sigma, "--tau", "1,2"]) == 64
    assert capsys.readouterr() == ("", err)


def test_gen_random_perms_is_seeded(capsys):
    assert run(["gen", "--d", "3", "--k", "4", "--random-perms", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--d", "3", "--k", "4", "--random-perms", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_gen_planar_extend(capsys):
    argv = ["gen", "--d", "3", "--k", "1", "--sigma", "1", "--tau", "1",
            "--planar-extend", "5"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "cgf 5 12" in out


def test_random_is_seeded(capsys):
    assert run(["random", "--d", "2", "--n", "8", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert run(["random", "--d", "2", "--n", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "cgf 2 8" in first


def test_census_output(capsys):
    assert run(["census", "--d", "3", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tuples: 16"
    assert lines[1] == "class,canonical,labelled"
    assert "all,16,45" in lines
    assert "melonic,8,24" in lines


def test_census_budget_exit(capsys):
    assert run(["census", "--d", "3", "--n", "6", "--budget", "10"]) == 64
    err = capsys.readouterr().err
    assert "budget" in err
    assert "raise the budget" in err and "shard" not in err


@pytest.mark.parametrize("command", ["census", "verify-lemmas", "census-emit-graphs"])
@pytest.mark.parametrize("n", ["-2", "5", "1000000"])
def test_census_sizes_exit_64_before_any_output(tmp_path, capsys, command, n):
    # n is checked before any arithmetic, and the budget without building
    # the whole (n/2)!^(d+1); the --emit-graphs directory is made only at
    # the first graph, so a refused size leaves none behind
    emit_dir = tmp_path / "deep" / "dir"
    argv = ["census", "--emit-graphs", str(emit_dir)] if command == "census-emit-graphs" else [command]
    start = time.perf_counter()
    assert run([*argv, "--d", "3", "--n", n]) == 64
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert not emit_dir.parent.exists()


@pytest.mark.parametrize(
    "argv,colours",
    [
        (["kappa"], 31),
        (["betti"], 31),
        (["residues", "--colours", ",".join(map(str, range(1, 31)))], 30),
    ],
    ids=["kappa", "betti", "residues"],
)
def test_many_colours_exit_64_on_the_colour_subset_budget(tmp_path, capsys, argv, colours):
    path = tmp_path / "wide.cgf"
    path.write_text("cgf 30 2\n" + "2\n" * 31)  # 31 colours, 2^31 subsets
    start = time.perf_counter()
    assert run([argv[0], str(path), *argv[1:]]) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"budget: {colours} colours have 2^{colours} subsets, above the limit 8192\n"


def _alternating_graph(d):
    # four vertices whose matchings alternate: no dipole, no planar triple
    return f"cgf {d} 4\n" + "".join("3 4\n" if c % 2 == 0 else "4 3\n" for c in range(d + 1))


@pytest.mark.parametrize(
    "argv,text,err",
    [
        (["check-sphere"], _alternating_graph(120), "121 colours have 287980 triples"),
        (["check-manifold"], _alternating_graph(120), "the 120-residue sweep reads 14520 matchings"),
        (["check-manifold"], _alternating_graph(60), "61 colours have 35990 triples"),
        (["genus"], _alternating_graph(60), "61 colours have 35990 triples"),
        (["check-manifold"], "cgf 2000 2\n" + "2\n" * 2001, "the 2000-residue sweep reads 4002000 matchings"),
    ],
    ids=["sphere-d120", "manifold-d120", "manifold-d60", "genus-d60", "manifold-dipole-d2000"],
)
def test_many_colours_exit_64_on_the_triple_and_sweep_budgets(tmp_path, capsys, argv, text, err):
    # refused before any colour triple or d-residue is read
    path = tmp_path / "wide.cgf"
    path.write_text(text)
    start = time.perf_counter()
    assert run([argv[0], str(path)]) == 64
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"budget: {err}, above the limit 8192\n")


@pytest.mark.parametrize(
    "argv,err",
    [
        (["random", "--d", "3", "--n", "2000000000"], "(d+1)*n/2 = 4000000000 matching entries"),
        (["gen", "--d", "3", "--k", "1", "--sigma", "1", "--tau", "1", "--planar-extend", "100000000"],
         "(d+1)*n/2 = 600000006 matching entries"),
        (["gen", "--d", "3", "--k", "1000000000", "--random-perms"],
         "(d+1)*n/2 = 24000000000 matching entries"),
        (["gen", "--d", "10000001", "--k", "1", "--sigma", "1", "--tau", "1"],
         "(d+1)*n/2 = 200000060000004 matching entries"),
        (["stats-vn", "--kmax", "1000000", "--samples", "1"], "(d+1)*n/2 = 24000000 matching entries"),
        # the range of k is read by its ends, never listed
        (["stats-vn", "--kmax", "10000000000", "--samples", "1"],
         "(d+1)*n/2 = 240000000000 matching entries"),
        (["stats-vn", "--kmax", "1", "--samples", "1000000000"],
         "samples * sum over k of (d+1)*n/2 = 24000000000 matching entries"),
        (["stats-vn", "--kmax", "100000", "--samples", "1"],
         "samples * sum over k of (d+1)*n/2 = 120001200000 matching entries"),
        (["census", "--d", "37", "--n", "2"], "38 colours have 8436 triples"),
        (["verify-lemmas", "--d", "17", "--n", "2", "--check-5"], "18 colours have 8568 5-sets"),
    ],
    ids=["random", "planar-extend", "random-perms", "gen-d", "stats-vn", "stats-vn-kmax",
         "stats-vn-samples", "stats-vn-total", "census-d37", "check-5-d17"],
)
def test_generators_exit_64_before_allocating_a_huge_graph(capsys, argv, err):
    start = time.perf_counter()
    assert run(argv) == 64
    assert time.perf_counter() - start < 1
    limit = 8192 if "colours have" in err else 1 << 24
    assert capsys.readouterr() == ("", f"budget: {err}, above the limit {limit}\n")


def test_census_emit_graphs(tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    assert run(["census", "--d", "3", "--n", "2", "--emit-graphs", str(out_dir)]) == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 1
    assert files[0].name.startswith("000001_")
    from gemkit import parse_cgf

    assert parse_cgf(files[0].read_text()).n == 2


def test_census_emit_graphs_reports_an_unwritable_path(tmp_path, capsys):
    # a file where the directory should go, then a directory where the
    # first graph file should go
    taken = tmp_path / "taken"
    taken.write_text("")
    good = tmp_path / "good"
    assert run(["census", "--d", "3", "--n", "2", "--emit-graphs", str(good)]) == 0
    capsys.readouterr()
    (first,) = good.iterdir()
    blocked = tmp_path / "blocked"
    (blocked / first.name).mkdir(parents=True)
    for target, path in ((taken, taken), (blocked, blocked / first.name)):
        assert run(["census", "--d", "3", "--n", "2", "--emit-graphs", str(target)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"cannot write {path}: ")
        assert "Traceback" not in err


def test_verify_lemmas_refuses_check_5_below_d_4(capsys):
    assert run(["verify-lemmas", "--d", "3", "--n", "4", "--check-5"]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "d >= 4" in err
    assert run(["verify-lemmas", "--d", "4", "--n", "2", "--check-5"]) == 0
    assert "triple bound: checked=" in capsys.readouterr().out


def test_verify_lemmas(capsys):
    assert run(["verify-lemmas", "--d", "3", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "identity mismatches: 0" in out
    assert "violations=0" in out


def test_bound_check(tmp_path, capsys):
    path = tmp_path / "base.cgf"
    path.write_text(write_cgf(circle_graph()))
    assert run(["bound-check", "--cgf2", str(path)]) == 0
    out = capsys.readouterr().out
    assert "base components: 1" in out
    assert "k,count,bound" in out
    assert "violations: 0" in out


def test_bound_check_on_a_doubled_14_vertex_matching(tmp_path, capsys):
    path = tmp_path / "base14.cgf"
    blacks = tuple(range(8, 15))
    path.write_text(write_cgf(ColourfulGraph(1, (blacks, blacks))))
    assert run(["bound-check", "--cgf2", str(path)]) == 0
    assert capsys.readouterr().out == (
        "n: 14\n"
        "base components: 7\n"
        "planar extensions: 135135 of 135135\n"
        "k,count,bound\n"
        "1,46080,8889307109490094235937931264\n"
        "2,56448,634950507820721016852709376\n"
        "3,25984,45353607701480072632336384\n"
        "4,5880,3239543407248576616595456\n"
        "5,700,231395957660612615471104\n"
        "6,42,16528282690043758247936\n"
        "7,1,1180591620717411303424\n"
        "violations: 0\n"
    )


def test_bound_check_requires_two_matchings(tetra_file, capsys):
    assert run(["bound-check", "--cgf2", tetra_file]) == 64


def test_bound_check_refuses_a_16_vertex_base(tmp_path, capsys):
    path = tmp_path / "base16.cgf"
    blacks = tuple(range(9, 17))
    path.write_text(write_cgf(ColourfulGraph(1, (blacks, blacks))))
    start = time.perf_counter()
    assert run(["bound-check", "--cgf2", str(path)]) == 64
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "budget: n=16 above the small-instance limit 14 for listing (n-1)!! matchings\n"
    )


def test_stats_vn(capsys):
    assert run(["stats-vn", "--kmax", "2", "--samples", "4", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k,n,mean_V")
    assert len(lines) == 3
    assert lines[1].startswith("1,12,")
    assert lines[2].startswith("2,24,")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_stats_vn_rejects_fewer_than_one_sample(samples, capsys):
    assert run(["stats-vn", "--kmax", "1", "--samples", samples]) == 64
    assert "samples must be >= 1" in capsys.readouterr().err


def test_export_dot(torus_file, capsys):
    assert run(["export-dot", torus_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 9


def _checkout_env():
    """The caller's environment, with PYTHONPATH led by the imported gemkit's `src`."""
    src = str(Path(gemkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_console_script_pipeline():
    # `python -m gemkit` runs the same gemkit.cli:main as the console script,
    # so the pipe needs no install; the wrapper itself is checked below
    gemkit_cmd = f"{shlex.quote(sys.executable)} -m gemkit"
    pipeline = (
        f"{gemkit_cmd} gen --d 3 --k 1 --sigma 1 --tau 1 | "
        f"{gemkit_cmd} check-manifold -"
    )
    proc = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, env=_checkout_env()
    )
    assert proc.returncode == 0
    assert "manifold: yes" in proc.stdout


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_quietly_by_sigpipe(tmp_path):
    # the reader has gone before the first write, as `head` has in
    # `gemkit genus F | head -n 1` once it has its line
    path = tmp_path / "big.cgf"
    path.write_text(write_cgf(random_graph(9, 400, seed=1)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gemkit", "genus", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_checkout_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in err


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["gemkit"] == "gemkit.cli:main"
    entry = importlib.metadata.EntryPoint(
        name="gemkit", value=scripts["gemkit"], group="console_scripts"
    )
    assert entry.load() is main


@pytest.mark.skipif(
    shutil.which("gemkit") is None, reason="no gemkit console script on PATH"
)
def test_installed_console_script_pipeline():
    pipeline = (
        "gemkit gen --d 3 --k 1 --sigma 1 --tau 1 | gemkit check-manifold -"
    )
    proc = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "manifold: yes" in proc.stdout
