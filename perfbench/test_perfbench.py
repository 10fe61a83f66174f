"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import math
import os

import pytest

import run
import spans
import workloads


@pytest.fixture(scope="module")
def modules():
    return run.load_package()


@pytest.fixture(scope="module")
def probe(modules):
    return run.SpeedProbe(os.sched_getaffinity(0))


@pytest.fixture
def api(modules):
    return spans.plain_api(modules)


def job_named(jobs, name):
    return next(job for job in jobs if job.name == name)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_change_inputs_but_not_job_counts_or_sizes(name, api, tmp_path):
    first = workloads.WORKLOADS[name](1, api, tmp_path)
    second = workloads.WORKLOADS[name](2, api, tmp_path)
    shape = [[(job.name, job.size, job.kind, job.queries) for job in w.jobs()]
             for w in (first, second)]
    assert shape[0] == shape[1]
    assert first.point_blocks != second.point_blocks


def test_planted_wrong_result_counts_as_failed(modules, api, probe, tmp_path, monkeypatch):
    workload = workloads.Density(3, api, tmp_path)
    job = job_named(workload.jobs(), "count_class_in_range[even]")
    real = modules["density"].count_class_in_range
    monkeypatch.setattr(modules["density"], "count_class_in_range",
                        lambda *args: real(*args) + 1)
    result = run.run_pass(workload, [job, job], modules, probe, None)
    assert result.attempted == 2
    assert [name for name, _ in result.wrong] == [job.name, job.name]
    assert result.errors == []


def test_exception_counts_as_failed_and_the_pass_goes_on(modules, api, probe, tmp_path, monkeypatch):
    workload = workloads.Density(3, api, tmp_path)
    jobs = workload.jobs()
    broken = job_named(jobs, "count_class_in_range[div5]")
    healthy = job_named(jobs, "count_class_in_range[even]")

    def boom(selector, lo, hi):
        if selector == "div5":
            raise RuntimeError("planted")
        return real(selector, lo, hi)

    real = modules["density"].count_class_in_range
    monkeypatch.setattr(modules["density"], "count_class_in_range", boom)
    result = run.run_pass(workload, [broken, healthy], modules, probe, None)
    assert result.errors == [(broken.name, "RuntimeError: planted")]
    assert result.wrong == []


def test_self_times_and_uncovered_time_add_up_to_traced_wall(modules, api, probe, tmp_path):
    verify = workloads.Verify(4, api, tmp_path)
    density = workloads.Density(4, api, tmp_path)
    jobs = [job_named(verify.jobs(), "verify_mod3"),
            job_named(density.jobs(), "density_table"),
            job_named(density.jobs(), "count_class_in_range[t01]")]
    original = modules["checks"].classify_mod3
    result = run.run_pass(verify, jobs, modules, probe, spans.Tracer())
    assert result.errors == [] and result.wrong == []
    summary = result.trace
    self_total = sum(entry["self_s"] for entry in summary["modules"].values())
    uncovered = result.raw_wall_s - summary["covered_s"]
    assert 0 <= uncovered < result.raw_wall_s
    assert math.isclose(self_total + uncovered, result.raw_wall_s, rel_tol=1e-9)
    # Nested calls were split out: cli.main did not keep its children's time.
    functions = summary["functions"]
    assert functions["cli.main"]["self_s"] < functions["cli.main"]["total_s"]
    assert summary["modules"]["checks"]["calls"] == 1
    assert summary["modules"]["classify"]["calls"] == 20_000
    assert summary["modules"]["engines"]["calls"] > 20_000
    # The wrappers are gone once the pass is over.
    assert modules["checks"].classify_mod3 is original


def test_untraced_pass_installs_no_wrapper(modules, api, probe, tmp_path):
    workload = workloads.Density(5, api, tmp_path)
    job = job_named(workload.jobs(), "density_table")
    seen = {}
    real_run = job.run

    def spy(api):
        seen["api"] = api.density
        seen["cli"] = modules["cli"].density
        seen["checks"] = modules["checks"].classify_mod8
        return real_run(api)

    job.run = spy
    result = run.run_pass(workload, [job], modules, probe, None)
    assert result.errors == [] and result.wrong == [] and result.trace is None
    assert seen["api"] is modules["density"] and seen["cli"] is modules["density"]
    assert seen["checks"] is modules["classify"].classify_mod8


def test_own_predicates_match_the_library(modules):
    classify, density = modules["classify"], modules["density"]
    for n in range(3000):
        outcome = classify.classify_mod8(n)
        witness = outcome.witness
        expected = (outcome.kind.value,) + (
            (witness.eps, witness.delta, witness.i, witness.j) if witness else (None,) * 4
        ) + (outcome.ones_count,)
        assert workloads.own_mod8(n) == expected
        assert workloads.own_div5_form(n) == (classify.classify_div5(n).form or 0)
        assert workloads.own_mod3(n) == classify.classify_mod3(n)
    specs = list(classify.MOD8_CLASS_SPECS.values()) + list(classify.DIV5_FORM_SPECS)
    for n_max in list(range(-2, 400)) + [10**30 - 7, 2**62 + 5]:
        for spec in specs:
            assert workloads.own_count(n_max, spec) == density.count_set_exact(n_max, spec)
        assert workloads.own_t01_count(n_max) == density.count_t01_upto(n_max)


def test_parse_int_reads_past_the_str_conversion_limit():
    text = "7" * 9000
    assert workloads.parse_int(text) == (10**9000 - 1) // 9 * 7
    assert workloads.parse_int("0") == 0
    assert workloads.naive_motzkin(10) == 2188


def test_percentile_tail_needs_ten_samples_beyond():
    summary = run.timing_summary([float(i) for i in range(100)])
    assert summary["tail_percentile"] == 90
    assert summary["median"] == 49.5
    assert run.timing_summary([1.0] * 19)["tail"] is None
