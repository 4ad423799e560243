"""Tests of the benchmark itself: inputs, span arithmetic and output checks.

Run from the root of a checkout: python3 -m pytest bench/tests -q
"""

import json
import math
import random
import sys
import types
from pathlib import Path

import pytest

import checks
import tracing
from inputs import CYCLE_STEP, FAMILIES, MIN_DECADES, WORKLOADS, Plan, spread_lengths

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_reproducible_from_seed(workload):
    a, b, c = Plan(workload, 7, ROOT), Plan(workload, 7, ROOT), Plan(workload, 8, ROOT)
    assert a.configs == b.configs
    assert [a.cycle(k) for k in range(3)] == [b.cycle(k) for k in range(3)]
    assert (a.configs, a.cycle(0)) != (c.configs, c.cycle(0))


def test_sweep_cycles_are_balanced_and_span_three_decades():
    plan = Plan("sweep-grid", 3, ROOT)
    ops = plan.cycle(0)
    assert len(ops) == 36
    assert sorted(op["family"] for op in ops) == sorted(FAMILIES * 9)
    total = sum(op["config"]["grid"]["points"] for op in ops)
    assert abs(total - 36 * 300) <= 9 * 4 * 75  # four lengths per pair, one per quarter of [150, 450]
    for op in ops:
        positive = [v for v in op["values"] if v > 0]
        assert math.log10(max(positive) / min(positive)) >= MIN_DECADES - 1e-6
        # g scans start at 0, so the vsc ones hit the known degenerate-mode defect
        assert (op["values"][0] == 0.0) == (op["family"] == "g")


def test_sweep_cycles_repeat_the_same_work_with_new_inputs():
    plan = Plan("sweep-grid", 3, ROOT)
    first, later = plan.cycle(1), plan.cycle(1 + plan.kinds)
    scale = (1.0 + (1 + plan.kinds) * CYCLE_STEP) / (1.0 + CYCLE_STEP)
    assert plan.cycle(0) != plan.cycle(1)
    assert [op["config"]["grid"]["points"] for op in later] == [op["config"]["grid"]["points"] for op in first]
    assert later[0]["config"]["grid"]["end"] == pytest.approx(first[0]["config"]["grid"]["end"] * scale, rel=1e-15)
    for a, b in zip(first, later):
        assert (a["family"], a["regime"]) == (b["family"], b["regime"])
        assert b["values"] == pytest.approx([v * scale for v in a["values"]], rel=1e-15)
        assert [v for v in b["values"] if v > 0] != [v for v in a["values"] if v > 0]


def test_spread_lengths_one_per_slice():
    lengths = sorted(spread_lengths(random.Random(1), (600, 1000), 3))
    assert [(n - 600) // 133 for n in lengths] == [0, 1, 2]


def test_cli_mix_repeats_one_cycle_in_both_formats():
    plan = Plan("cli-mix", 5, ROOT)
    assert plan.cycle(0) == plan.cycle(2) and plan.cycle(1) == plan.cycle(3)
    keys = {op["key"] for k in (0, 1) for op in plan.cycle(k)}
    assert {"compare-reaction3-csv", "compare-reaction3-json"} <= keys
    assert {op["reference"] for op in plan.cycle(0) if "reference" in op} == {
        "reaction1", "reaction2", "reaction3"}


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: union of children is [1, 6]
        _span("c", 8.0, 12.0, parent=0),  # runs past its parent: only [8, 10] counts
        _span("d", 1.5, 2.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 0.5, 3.0, 4.0, 0.5])


def test_layer_metrics_and_absent_layer():
    spans = [_span("op", 0.0, 4.0), _span("propagate.propagate", 1.0, 3.0, parent=0)]
    spans[1].failed = True
    m = tracing.layer_metrics(spans, wall=4.0, layers=("propagate.propagate", "config.export"))
    assert m["propagate.propagate.calls"] == 1
    assert m["propagate.propagate.self_s"] == pytest.approx(2.0)
    assert m["propagate.propagate.share"] == pytest.approx(0.5)
    assert m["propagate.propagate.p50_ms"] == pytest.approx(2000.0)
    assert m["propagate.propagate.failed"] == 1
    assert m["config.export.calls"] == 0 and m["config.export.p50_ms"] == 0.0


def test_tracer_wraps_module_attributes_and_nests(monkeypatch):
    clock = iter(float(t) for t in range(100))
    defining = types.ModuleType("vsckinetics.propagate")
    caller = types.ModuleType("vsckinetics.config")

    def propagate(x):
        return x + 1

    defining.propagate = caller.propagate = propagate
    caller.run_scenario = lambda x: caller.propagate(x) * 2
    monkeypatch.setitem(sys.modules, "vsckinetics.propagate", defining)
    monkeypatch.setitem(sys.modules, "vsckinetics.config", caller)
    tracer = tracing.Tracer(clock=lambda: next(clock))
    found = tracer.install()
    assert "propagate.propagate" in found and "config.run_scenario" in found
    assert "rates.assemble_rate_matrix" not in found  # not loaded: no calls, no crash
    assert caller.run_scenario(1) == 4
    names = [s.name for s in tracer.spans]
    assert names == ["config.run_scenario", "propagate.propagate"]
    assert tracer.spans[1].parent == 0
    tracer.uninstall()
    assert caller.propagate is propagate and defining.propagate is propagate


def _distribution(rows=5, states=4):
    return [[1.0 / states] * states for _ in range(rows)]


def test_population_check_catches_1e6_perturbation():
    rows = _distribution()
    assert checks.population_error(rows) is None
    rows[2][1] += 1e-6
    assert "sum to 1" in checks.population_error(rows)


def test_population_check_catches_negative_population():
    rows = _distribution()
    rows[3] = [-1e-6, 0.5 + 1e-6, 0.25, 0.25]
    assert "went to" in checks.population_error(rows)


def test_population_check_on_arrays():
    np = pytest.importorskip("numpy")
    rows = np.full((5, 4), 0.25)
    assert checks.population_error(rows) is None
    rows[0, 0] += 1e-6
    assert checks.population_error(rows) is not None


def test_reference_check_catches_1e6_perturbation():
    reference = checks.load_reference()
    case = "reaction3/vsc"
    n = reference["grid_points"]
    fractions = {}
    for label, values in reference["cases"][case].items():
        full = [0.0] * n
        for index, value in zip(reference["indices"], values):
            full[index] = value
        fractions[label] = full
    assert checks.reference_error(reference, case, fractions) is None
    fractions["B"][reference["indices"][5]] += 1e-6
    assert "reference" in checks.reference_error(reference, case, fractions)


def test_reference_covers_nine_bundled_cases():
    reference = json.loads(checks.REFERENCE_FILE.read_text())
    assert len(reference["cases"]) == 9


def test_criterion_and_fcf_checks():
    expect = {"epsilon": 2.0, "n-molecules": 4.0, "k-r": 1.0, "k-d": 3.0, "k-f": 2.0}
    good = ("lhs (epsilon/N)      = 0.5\nrhs (k_d/(k_r+k_d))  = 0.75\n"
            "modifiable           = False\nk_ssa (net bare rate) = 1.5 ps^-1\n")
    assert checks.criterion_error(good, expect) is None
    assert checks.criterion_error(good.replace("0.75", "0.7500001"), expect) is not None
    lam = 1.5
    value = math.exp(-0.5 * lam * lam) * lam
    assert checks.fcf_element_error(f"<1|D(1.5)|0> = {value!r}\n", {"lam": lam, "m_to": 1}) is None
    assert checks.fcf_element_error(f"<1|D(1.5)|0> = {value * 1.001!r}\n", {"lam": lam, "m_to": 1})
    assert checks.fcf_factor_error("|FC|^2 [vsc] A->B = 1.2") is not None


def test_kept_cycles_are_the_fastest_of_every_kind():
    import run
    from workloads import Outcome

    assert run.KEEP_PER_KIND == 2
    # kind 1 (odd cycles) is three times the work of kind 0; cycle 5 was slowed down
    walls = {0: 1.0, 1: 3.0, 2: 1.05, 3: 3.3, 4: 1.1, 5: 6.0}
    outcomes = [Outcome(walls[c] / 10, 0.0, cycle=c) for c in walls for _ in range(10)]
    outcomes[9].failure = "check"  # cycle 0 completes 9 of 10 ops: the slowest of kind 0
    assert {o.cycle for o in run.kept_cycles(outcomes, 2)} == {1, 2, 3, 4}
    assert {o.cycle for o in run.kept_cycles(outcomes, 3)} == {0, 1, 2, 3, 4, 5}
    values = run.end_to_end("cli-mix", 2, outcomes, [0.5], 60.0)
    assert values["ops_per_s"] == pytest.approx(40 / (1.05 + 1.1 + 3.0 + 3.3))
    assert run.min_cycles(2) == 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(workload):
    import run

    plan = Plan(workload, 1, ROOT)
    ops = plan.cycle(0)
    defect = sum(1 for op in ops if op.get("regime") == "vsc" and op.get("family") == "g")
    completed = run.min_cycles(plan.kinds) * (len(ops) - defect)
    p = run.TAIL_PERCENTILE[workload]
    assert (1 - p / 100) * completed >= 10 > (1 - (p + 1) / 100) * completed


def test_stall_in_one_cycle_moves_tail_but_not_kept_metrics():
    import run
    from workloads import Outcome

    def outcomes(stalled_wall):
        return [Outcome(stalled_wall if c == 2 else 1.0, 0.0, cycle=c) for c in range(5) for _ in range(12)]

    steady = run.end_to_end("cli-mix", 2, outcomes(1.0), [0.5], 60.0)
    stalled = run.end_to_end("cli-mix", 2, outcomes(3.0), [0.5], 60.0)
    assert steady["op_tail_s"] == pytest.approx(1.0)
    assert stalled["op_tail_s"] == pytest.approx(3.0)  # 12 of 60 ops lie beyond p87
    assert stalled["ops_per_s"] == steady["ops_per_s"] == pytest.approx(1.0)


def test_compare_verdicts():
    import compare

    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, [v * 1.3 for v in parent], metric)["verdict"] == "gain"
    assert compare.verdict(parent, [v * 0.8 for v in parent], metric)["verdict"] == "regression"
    assert compare.verdict(parent, list(parent), metric)["verdict"] == "no change"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], metric)["verdict"] == "unresolved"
    assert compare.verdict(parent[:4], [v * 1.3 for v in parent[:4]], metric)["verdict"] == "no change"
