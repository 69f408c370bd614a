"""Every public call on a size argument returns or refuses within a second."""

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
