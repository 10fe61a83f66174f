"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).  Run:

    pytest tests/test_acceptance.py -v -s
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from motzkinlab.automaton import motzkin_mod_array
from motzkinlab.classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    Mod8Kind,
    SetSpec,
    classify_div5,
    classify_mod8,
    is_in_set,
)
from motzkinlab.cli import main as cli_main
from motzkinlab.density import (
    closed_density,
    count_class_in_range,
    count_set_exact,
    count_t01_upto,
    density_table,
    empirical_density,
    empirical_residue_distribution,
)
from motzkinlab.engines import (
    cross_validate_engines,
    iter_motzkin_exact,
    motzkin_exact,
    motzkin_exact_stream,
    motzkin_mod_stream,
)

MODULI = (2, 3, 4, 5, 8)
SWEEP = 50_000


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


@pytest.fixture(scope="module")
def residues_50k():
    """One exact-recurrence pass over n < 50000, reduced mod every modulus."""
    values = {modulus: [] for modulus in MODULI}
    gen = iter_motzkin_exact()
    for _ in range(SWEEP):
        value = next(gen)
        for modulus in MODULI:
            values[modulus].append(value % modulus)
    return values


def test_criterion_1_engine_agreement():
    with criterion(1, "four engines agree pairwise on n < 2000 in under 10 s"):
        started = time.perf_counter()
        assert motzkin_exact(9) == 835
        assert motzkin_exact(13) == 41835
        by_sum = [motzkin_exact(n) for n in range(2000)]
        by_recurrence = motzkin_exact_stream(2000)
        assert by_sum == by_recurrence
        for modulus in MODULI:
            by_convolution = motzkin_mod_stream(modulus, 2000)
            assert list(by_convolution.values) == [v % modulus for v in by_recurrence]
            assert list(by_convolution.values) == [v % modulus for v in by_sum]
            by_automaton = motzkin_mod_array(modulus, 2000)
            assert by_automaton.tolist() == [v % modulus for v in by_recurrence]
            assert cross_validate_engines(modulus, 2000).consistent
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_classifier_soundness(residues_50k, capsys):
    with criterion(2, f"digit classifiers match oracle residues for n < {SWEEP}, "
                      f"moduli {MODULI}"):
        for modulus in MODULI:
            code = cli_main(["verify", str(SWEEP), "--mod", str(modulus)])
            output = capsys.readouterr().out
            assert code == 0, f"verify --mod {modulus} exited {code}: {output}"
            assert f"{modulus},{SWEEP},0," in output
        # the convolution engine and the automaton, verify's residue source,
        # reproduce the same oracle residues
        for modulus in MODULI:
            stream = motzkin_mod_stream(modulus, SWEEP)
            assert list(stream.values) == residues_50k[modulus], modulus
            assert motzkin_mod_array(modulus, SWEEP).tolist() == residues_50k[modulus], modulus


def test_criterion_3_no_multiple_of_8(residues_50k):
    with criterion(3, f"no M(n) with n < {SWEEP} is divisible by 8"):
        assert 0 not in residues_50k[8]


def test_criterion_4_closed_form_densities():
    with criterion(4, "closed-form densities equal the expected exact rationals"):
        table = dict(density_table())
        per_class = closed_density(4, 1, 1)
        assert per_class == Fraction(1, 12)
        for label in ("eps1_delta1", "eps1_delta2", "eps3_delta1", "eps3_delta2"):
            assert table[label] == per_class
        assert table["even"] == 4 * per_class == Fraction(1, 3)
        assert table["mod8=4"] == 2 * per_class == Fraction(1, 6)
        assert table["mod8=2"] == table["mod8=6"] == Fraction(1, 12)
        assert table["mod4=2"] == Fraction(1, 6)
        assert closed_density(5, 2, 0, min_j=1) == Fraction(1, 120)
        assert closed_density(5, 2, 1) == Fraction(1, 24)
        assert (table["div5_form1"], table["div5_form2"],
                table["div5_form3"], table["div5_form4"]) == (
            Fraction(1, 120), Fraction(1, 24), Fraction(1, 24), Fraction(1, 120))
        assert table["div5"] == 2 * Fraction(1, 120) + 2 * Fraction(1, 24) == Fraction(1, 10)


def test_criterion_5_finite_horizon_convergence():
    selectors = ("even", "mod8=4", "mod8=2", "mod8=6", "mod4=2", "div5")
    with criterion(5, "swept densities at N = 10**7 within 1e-4 of the limits"):
        for selector in selectors:
            report = empirical_density(selector, 10**7)
            # The report counts exactly; the array sweep must see the same.
            assert count_class_in_range(selector, 0, 10**7) == report.observed_count, selector
            assert report.abs_discrepancy <= 1e-4, (
                f"{selector}: |{report.observed_ratio} - {report.limit_value}| "
                f"= {report.abs_discrepancy}"
            )


def test_criterion_6_exact_counting():
    horizons = (10**3, 10**4, 10**5)
    specs = list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS)
    with criterion(6, "count_set_exact equals brute-force membership counting "
                      f"for all 8 specs at N in {horizons}"):
        running = {spec: 0 for spec in specs}
        checkpoints = {spec: {} for spec in specs}
        for n in range(max(horizons) + 1):
            for spec in specs:
                if is_in_set(n, spec) is not None:
                    running[spec] += 1
                if n in horizons:
                    checkpoints[spec][n] = running[spec]
        for spec in specs:
            for horizon in horizons:
                assert count_set_exact(horizon, spec) == checkpoints[spec][horizon]


def test_criterion_7_t01_thinning_and_mod3_concentration():
    with criterion(7, "zero-one base-3 counts: 2**k at 3**k - 1, vanishing ratio, "
                      "mod3=0 density above 0.97 at N = 3**12"):
        for k in range(1, 13):
            assert count_t01_upto(3**k - 1) == 2**k
        horizon = 3**12
        ratio = count_t01_upto(horizon - 1) / horizon
        assert ratio <= 8e-3
        report = empirical_density("mod3=0", horizon)
        assert report.observed_ratio >= 0.97


def test_criterion_8_mod5_distribution():
    with criterion(8, "residues mod 5 at N = 30000: nonzero each in [20.5%, 24.5%], "
                      "zero in [9%, 11%]"):
        rows = empirical_residue_distribution(5, 30_000)
        zero_ratio = rows[0][2]
        assert 0.09 <= zero_ratio <= 0.11, f"residue 0 ratio {zero_ratio}"
        for residue, _, ratio in rows[1:]:
            assert 0.205 <= ratio <= 0.245, f"residue {residue} ratio {ratio}"


def test_criterion_9_randomized_property_suite():
    rng = random.Random(0x5EED)
    specs = list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS)
    with criterion(9, "witness round-trips, class disjointness, partition "
                      "determinism and exact divisions under randomized testing"):
        # witness round-trips and disjointness, 10**4 random indices < 10**18
        for _ in range(10_000):
            n = rng.randrange(10**18)
            mod8 = classify_mod8(n)
            mod8_hits = [spec for spec in MOD8_CLASS_SPECS.values()
                         if is_in_set(n, spec) is not None]
            assert len(mod8_hits) <= 1
            assert (mod8.kind is not Mod8Kind.ODD) == bool(mod8_hits)
            if mod8.witness is not None:
                eps, delta, i, j = mod8.witness
                assert (4 * i + eps) * 4 ** (j + 1) - delta == n
            div5 = classify_div5(n)
            div5_hits = [spec for spec in DIV5_FORM_SPECS
                         if is_in_set(n, spec) is not None]
            assert len(div5_hits) <= 1
            assert div5.divisible == bool(div5_hits)
            if div5.divisible:
                assert div5.member() == n
        # constructed members round-trip through is_in_set
        for _ in range(2_000):
            spec = rng.choice(specs)
            i = rng.randrange(10**9)
            j = rng.randrange(spec.min_j, spec.min_j + 12)
            assert is_in_set(spec.member(i, j), spec) == (i, j)
        # arbitrary-precision spot checks around 10**30
        big_i = 10**28
        n = (4 * big_i + 3) * 4**7 - 2
        outcome = classify_mod8(n)
        assert outcome.kind is Mod8Kind.RESIDUE_4
        assert outcome.witness == (3, 2, big_i, 6)
        n = (5 * big_i + 3) * 5**9 - 2
        outcome5 = classify_div5(n)
        assert outcome5.form == 3 and outcome5.member() == n
        # partition-merge determinism on a fixed horizon
        horizon = 10**5
        for selector in ("even", "mod8=2", "div5", "mod3=0", "t01"):
            full = count_class_in_range(selector, 0, horizon)
            for _ in range(3):
                cuts = sorted(rng.randrange(horizon + 1)
                              for _ in range(rng.randrange(1, 6)))
                bounds = [0] + cuts + [horizon]
                pieces = [count_class_in_range(selector, lo, hi)
                          for lo, hi in zip(bounds, bounds[1:])]
                assert sum(pieces) == full
        # the exact recurrence divides evenly along the whole validated prefix
        stream = motzkin_exact_stream(3_000)
        for _ in range(300):
            n = rng.randrange(2, 3_000)
            assert (n + 2) * stream[n] == (2 * n + 1) * stream[n - 1] + 3 * (n - 1) * stream[n - 2]
