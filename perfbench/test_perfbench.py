"""Self-tests of the benchmark: tracing arithmetic, wrapper fidelity, smoke runs.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import gemkit  # noqa: E402
import gemkit.census as census_mod  # noqa: E402
import gemkit.graph as graph_mod  # noqa: E402
import gemkit.verdicts as verdicts_mod  # noqa: E402
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = [tracing.span_name(m, a) for m, a in tracing.TARGETS]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(["outer", "inner"], clock=clock)

    def inner_fn(dt):
        clock.advance(dt)

    inner = tracer.wrap(inner_fn, "inner")

    def outer_fn():
        clock.advance(1)
        inner(2)
        clock.advance(3)
        inner(4)

    outer = tracer.wrap(outer_fn, "outer")
    outer()
    clock.advance(100)  # time outside any span is nobody's
    outer()
    assert tracer.calls == [2, 4]
    assert tracer.self_s == [2 * 4.0, 2 * 6.0]


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(["f"], clock=clock)

    def f_fn(depth):
        clock.advance(1)
        if depth:
            f(depth - 1)
        clock.advance(1)

    f = tracer.wrap(f_fn, "f")
    f(3)
    # four nested calls, each 2 units of its own; children never double-count
    assert tracer.calls == [4]
    assert tracer.self_s == [8.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(["outer", "bad"], clock=clock)

    def bad_fn():
        clock.advance(5)
        raise ValueError

    bad = tracer.wrap(bad_fn, "bad")

    def outer_fn():
        clock.advance(1)
        with pytest.raises(ValueError):
            bad()

    tracer.wrap(outer_fn, "outer")()
    assert tracer.calls == [1, 1]
    assert tracer.self_s == [1.0, 5.0]


def test_ref_clock_divides_by_the_recent_reference_median():
    clock = FakeClock()
    speed = {"r": 2.0}
    ref = calibrate.RefClock(interval=None, timer=clock,
                             work=lambda: clock.advance(speed["r"]))
    ref.start()  # one sample: r = 2
    clock.advance(10)
    assert ref.now() == 5 and ref.raw_now() == 10
    speed["r"] = 4.0  # the host slows down; the reference shows it
    ref._tick()  # samples 2, 4: median 3; the 4 units of the tick are excluded
    clock.advance(6)
    assert ref.now() == 5 + 2 and ref.raw_now() == 16
    ref._tick()  # samples 2, 4, 4: median 4
    clock.advance(8)
    assert ref.now() == 7 + 2 and ref.raw_now() == 24
    assert ref.ref_s == [2.0, 4.0, 4.0]


def test_ref_clock_samples_on_its_timer():
    ref = calibrate.RefClock(interval=0.01)
    ref.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        ref.stop()
    assert len(ref.ref_s) >= 5
    assert ref.now() > 0 and 0 < ref.raw_now() <= 0.2


def test_excluded_time_is_nobodys_self_time():
    clock = FakeClock()
    tracer = tracing.Tracer(["outer", "inner"], clock=clock)

    def inner_fn():
        clock.advance(2)
        clock.advance(7)  # an interrupt of the benchmark's own
        tracer.exclude(7)

    inner = tracer.wrap(inner_fn, "inner")

    def outer_fn():
        clock.advance(1)
        inner()

    tracer.wrap(outer_fn, "outer")()
    assert tracer.self_s == [1.0, 2.0]


@pytest.fixture
def installed():
    tracer = tracing.Tracer(NAMES)
    inst = tracing.install(tracer)
    try:
        yield tracer, inst
    finally:
        inst.uninstall()
    assert verdicts_mod.residues is graph_mod.residues
    assert not hasattr(graph_mod.residues, "__wrapped__")


def _sample_graphs():
    graphs = [gemkit.random_graph(3, 8, s) for s in range(4)]
    graphs += [gemkit.build_manifold(gemkit.random_construction_params(3, 1, s)) for s in range(2)]
    return graphs


def _observations(graphs):
    out = []
    for G in graphs:
        out.append(gemkit.residues(G, (1, 2, 3)).components)
        out.append(gemkit.has_property_P(G))
        out.append(gemkit.kappa_r(G, G.colours, 2))
        out.append(G.cycles_of_pair(1, 2))
        out.append(gemkit.is_manifold(G))
        if gemkit.is_connected(G):
            out.append(gemkit.is_sphere(G))
            out.append(gemkit.melonic_reduce(G).moves)
        out.append(gemkit.betti_numbers(gemkit.order_complex(G, (1, 2, 3))).betti)
        out.append(census_mod.classify(G))
        out.append(gemkit.write_cgf(G))
    return out


def test_wrapped_functions_return_what_the_originals_return():
    graphs = _sample_graphs()
    plain = _observations(graphs)
    tracer = tracing.Tracer(NAMES)
    inst = tracing.install(tracer)
    try:
        traced = _observations(graphs)
    finally:
        inst.uninstall()
    assert traced == plain
    calls = dict(zip(NAMES, tracer.calls))
    assert calls["graph.residues"] > 0 and calls["homology.order_complex"] >= len(graphs)
    assert calls["census.classify"] == len(graphs)


def test_census_rows_are_identical_with_tracing_on_and_off():
    plain = census_mod.enumerate_census(3, 4).rows()
    tracer = tracing.Tracer(NAMES)
    inst = tracing.install(tracer)
    try:
        traced = census_mod.enumerate_census(3, 4, classifier=census_mod.classify).rows()
        default = census_mod.enumerate_census(3, 4).rows()
    finally:
        inst.uninstall()
    assert traced == plain == default
    assert dict(zip(NAMES, tracer.calls))["census.classify"] == 2 * 16


def test_every_gemkit_binding_is_wrapped(installed):
    tracer, inst = installed
    assert tracing.unwrapped_bindings(inst) == []
    # the default argument of enumerate_census is rebound too
    assert census_mod.enumerate_census.__wrapped__.__defaults__[0] is census_mod.classify
    assert hasattr(census_mod.classify, "__wrapped__")


def test_coverage_guard_reports_a_stale_binding(installed):
    tracer, inst = installed
    wrapped = verdicts_mod.residues
    verdicts_mod.residues = wrapped.__wrapped__
    try:
        assert tracing.unwrapped_bindings(inst) == ["gemkit.verdicts.residues"]
        with pytest.raises(RuntimeError, match="gemkit.verdicts.residues"):
            tracing.assert_covered(inst)
    finally:
        verdicts_mod.residues = wrapped


def test_cycle_type_reference_covers_every_base_pair():
    for n in (2, 4, 6):
        ms = census_mod.all_perfect_matchings(n)
        for m1 in ms:
            for m2 in ms:
                assert workloads.cycle_type(m1, m2) in workloads.EXTENSIONS


def test_certificate_checks_reject_bad_certificates():
    G = gemkit.build_manifold(gemkit.random_construction_params(4, 1, 0))
    sub = gemkit.colour_deleted_components(G, 1)[0]
    trace = gemkit.melonic_reduce(sub)
    assert trace.reached_dipole and trace.moves
    assert workloads.check_melonic_trace(sub, "melonic trace " + trace.moves_text()) is None
    short = " ".join(trace.moves_text().split()[:-1])
    assert workloads.check_melonic_trace(sub, "melonic trace " + short) is not None
    torus3 = gemkit.ColourfulGraph(3, ((4, 5, 6), (5, 6, 4), (6, 4, 5), (4, 5, 6)))
    assert workloads.check_genus_witness(torus3, "genus witness ((1, 2, 3), 1, 1)") is None
    assert workloads.check_genus_witness(torus3, "genus witness ((1, 2, 4), 1, 1)") is not None


SMOKE = {
    "census": lambda: workloads.Census(0, d=3, n=4),
    "audit": lambda: workloads.Audit(0, sweeps=((3, 4), (4, 4)), n8_share=0.005),
    "verdicts": lambda: workloads.Verdicts(0, blocks=1),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_of_every_workload(name):
    wl = SMOKE[name]()
    tally = workloads.Tally()
    clock = calibrate.RefClock()
    clock.start()
    try:
        rep = wl.run(clock)
    finally:
        clock.stop()
    wl.check(rep, tally)
    assert tally.failed == 0, tally.notes
    assert tally.attempted >= len(rep.op_s) == len(rep.op_ref) > 0
    assert clock.raw_now() >= sum(rep.op_s)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_smoke_run_of_every_workload(name, installed):
    tracer, inst = installed
    wl = SMOKE[name]()
    tally = workloads.Tally()
    clock = calibrate.RefClock(interval=None)
    clock.start()
    rep = wl.run(clock)
    clock.stop()
    tracer.enabled = False
    wl.check(rep, tally)
    assert tally.failed == 0, tally.notes
    metrics = tracing.layer_metrics(tracer.calls, tracer.self_s, tracer.counts, NAMES)
    if name == "audit":
        assert metrics["homology.order_complex.calls"] == 0
        assert metrics["dipoles.melonic_reduce.calls"] == 0
        assert 0 < metrics["census.planar_ratio"] < 1
    else:
        assert metrics["graph.residues.calls"] > 0


def test_an_op_that_raises_is_a_failed_op_not_a_crash(monkeypatch):
    def broken(G):
        raise ValueError("broken classifier")

    monkeypatch.setattr(census_mod, "classify", broken)
    wl = workloads.Census(0, d=3, n=4)
    tally = workloads.Tally()
    clock = calibrate.RefClock(interval=None)
    clock.start()
    rep = wl.run(clock)
    clock.stop()
    wl.check(rep, tally)
    assert len(rep.op_s) == 16
    assert tally.failed >= 16 and "broken classifier" in tally.notes[0]


def test_refuses_to_run_without_gemkit_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_verdict_stream_is_a_function_of_the_seed():
    a = workloads.make_verdict_ops(7, 2)
    b = workloads.make_verdict_ops(7, 2)
    c = workloads.make_verdict_ops(8, 2)
    assert [op.text for op in a] == [op.text for op in b]
    assert [op.text for op in a] != [op.text for op in c]
    counts = {f: sum(op.family == f for op in a) for f, _ in workloads.BLOCK}
    assert counts == {f: 2 * k for f, k in workloads.BLOCK}
