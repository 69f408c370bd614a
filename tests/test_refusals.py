"""Every public call and subcommand on a size argument returns or refuses within a second."""

import re
import signal

import pytest

from gemkit import (
    ConstructionParams,
    GemkitError,
    all_perfect_matchings,
    build_manifold,
    build_planar_family,
    enumerate_census,
    family_size_lower_bound,
    harmonic_number,
    kappa_r,
    mean_cycles_uniform,
    random_construction_params,
    random_graph,
    sphere_vector,
    verify_lemma_bounds,
    vn_experiment,
)
from gemkit.cli import run
from conftest import two_tetrahedra_graph

SIZES = (-1, 0, 10**9, 2**40)

# each call with one size argument left open, the others small and valid
CALLS = {
    "random_graph(d)": lambda v: random_graph(v, 4),
    "random_graph(n)": lambda v: random_graph(3, v),
    "random_construction_params(d)": lambda v: random_construction_params(v, 1),
    "random_construction_params(k)": lambda v: random_construction_params(3, v),
    "build_planar_family(target_d)": lambda v: build_planar_family(
        build_manifold(ConstructionParams(3, 1, (1,), (1,))), v),
    "family_size_lower_bound(k)": lambda v: family_size_lower_bound(3, v),
    "enumerate_census(d)": lambda v: enumerate_census(v, 2),
    "enumerate_census(n)": lambda v: enumerate_census(3, v),
    "verify_lemma_bounds(n)": lambda v: verify_lemma_bounds(3, v),
    "all_perfect_matchings(n)": all_perfect_matchings,
    "harmonic_number(k)": harmonic_number,
    "mean_cycles_uniform(k)": lambda v: mean_cycles_uniform(v, 1),
    "mean_cycles_uniform(samples)": lambda v: mean_cycles_uniform(3, v),
    "vn_experiment([k])": lambda v: vn_experiment([v], 1),
    "vn_experiment(range)": lambda v: vn_experiment(range(1, v + 1), 1),
    "vn_experiment(samples)": lambda v: vn_experiment([1], v),
    "kappa_r(r)": lambda v: kappa_r(two_tetrahedra_graph(), (1, 2, 3), v),
    "kappa_r(colour)": lambda v: kappa_r(two_tetrahedra_graph(), (v,), 2),
    "sphere_vector(dim)": sphere_vector,
}


def _within_a_second(call, value):
    """call(value) in process; SIGALRM fails the test if it runs for a second."""
    def overran(signum, frame):
        pytest.fail("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(1)
    try:
        call(value)
    except GemkitError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("value", SIZES)
@pytest.mark.parametrize("name", CALLS)
def test_size_arguments_return_or_refuse_within_a_second(name, value):
    _within_a_second(CALLS[name], value)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_a_million_colours_are_refused_within_a_second():
    # each colour is compared with d+1 before it becomes a bit, so no
    # million-bit mask is built on the way to the refusal
    _within_a_second(lambda I: kappa_r(two_tetrahedra_graph(), I, 2), range(1, 10**6))


# ------------------------------------------------ the subcommands

# each subcommand's integer options, on a command line whose other options
# are small and valid; a case appends one option with its value, which
# argparse reads in place of an earlier one
COMMAND_LINES = {
    "random": ("random --d 3 --n 4", ("--d", "--n", "--seed")),
    "gen": ("gen --d 3 --k 1 --random-perms", ("--d", "--k", "--seed", "--planar-extend")),
    "census": ("census --d 3 --n 4", ("--d", "--n", "--budget")),
    "verify-lemmas": ("verify-lemmas --d 3 --n 4", ("--d", "--n", "--budget")),
    "verify-lemmas --check-5": ("verify-lemmas --d 4 --n 4 --check-5", ("--d", "--n", "--budget")),
    "stats-vn": ("stats-vn --kmax 1 --samples 1", ("--kmax", "--samples", "--seed")),
}

# every option that takes no integer; any other option a subcommand's
# --help lists must be in COMMAND_LINES
NOT_INTEGERS = {"--help", "--colours", "--certificate", "--sigma", "--tau", "--random-perms",
                "--emit-graphs", "--check-5", "--cgf2"}

# the two-tetrahedra graph's matching lines, under a header that sets d or n
CGF_BODY = "3 4\n3 4\n3 4\n4 3\n"


def _ends_cleanly(argv, capsys):
    """run(argv) in process ends within a second, with exit 0, 64 or 65 and no traceback."""
    codes = []
    _within_a_second(lambda args: codes.append(run(args)), argv)
    assert codes in ([0], [64], [65])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("value", SIZES)
@pytest.mark.parametrize("line, option", [
    (line, option) for line, (_, options) in COMMAND_LINES.items() for option in options])
def test_integer_options_end_or_refuse_within_a_second(line, option, value, capsys):
    _ends_cleanly(COMMAND_LINES[line][0].split() + [option, str(value)], capsys)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("value", SIZES)
@pytest.mark.parametrize("header", ["cgf {} 4", "cgf 3 {}"])
@pytest.mark.parametrize("command", ["validate", "kappa", "check-manifold"])
def test_cgf_header_sizes_end_or_refuse_within_a_second(command, header, value, tmp_path, capsys):
    path = tmp_path / "g.cgf"
    path.write_text(header.format(value) + "\n" + CGF_BODY)
    _ends_cleanly([command, str(path)], capsys)


def test_every_integer_option_has_size_cases(capsys):
    # a subcommand's options as its --help lists them: a new integer option
    # fails here until COMMAND_LINES gives it cases
    assert run(["--help"]) == 0
    choices = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    covered = {}
    for line, (_, options) in COMMAND_LINES.items():
        covered.setdefault(line.split()[0], set()).update(options)
    for command in choices:
        assert run([command, "--help"]) == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert listed - NOT_INTEGERS == covered.get(command, set()), command
