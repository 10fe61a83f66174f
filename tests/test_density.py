import dataclasses
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import density
from motzkinlab.bulk import MAX_INDEX
from motzkinlab.classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    SetSpec,
    classify_div5,
    classify_mod3,
    classify_mod8,
    is_in_set,
    is_t01,
    Mod8Kind,
)
from motzkinlab.density import (
    DensityReport,
    closed_density,
    count_class_in_range,
    count_error_bound,
    count_set_exact,
    count_t01_upto,
    density_limit,
    density_table,
    empirical_density,
    empirical_residue_distribution,
    set_density,
    _REGISTRY,
)
from motzkinlab.engines import CEILING_ENV_VAR, ResourceLimitError

from conftest import (
    error_bound_oracle,
    layer_count_oracle,
    legendre_table_oracle,
    t01_count_oracle,
    t01_table_oracle,
)

FORM2 = DIV5_FORM_SPECS[1]

# A 4001-digit horizon, past the sweep and past where a big division per
# exponent layer stays cheap.
HUGE_HORIZON = int(("31415926535" * 364)[:4001])


def brute_count(spec: SetSpec, n_max: int) -> int:
    return sum(1 for n in range(n_max + 1) if is_in_set(n, spec) is not None)


@lru_cache(maxsize=None)
def cached_oracle(n_max: int, spec: SetSpec) -> int:
    """layer_count_oracle, kept per (horizon, spec): it takes about 0.4 s at HUGE_HORIZON."""
    return layer_count_oracle(n_max, spec)


# Spec shapes for the oracle comparison.  Base 4 with exp_step 1 takes the
# popcount path, for every residue (no classifier spec has residue 2); base
# 5 with exp_step 1 to 3 reads the lookup tables.
SYNTHETIC_SPECS = [
    SetSpec(4, residue, 1, offset, shift, min_j)
    for residue in (1, 2, 3)
    for offset, shift, min_j in ((0, 0, 0), (1, -3, 0), (2, 2, 1), (0, -1, 1))
] + [
    SetSpec(5, residue, step, offset, shift, min_j)
    for step in (1, 2, 3) for residue in (1, 4) for offset, shift, min_j in ((0, -2, 1), (1, 1, 0))
]


def oracle_horizons() -> "list[int]":
    """-3..3000, b**k - 3..b**k + 2 and random values, all up to 10**60.

    Powers of 4 and 2 (to 10**40) give both bit-length parities of the
    popcount path; powers of 3 and 5 (those of 25 among them) cross the
    digit chunks of the lookup tables.
    """
    rng = random.Random(4001)
    near_powers = {base**k + d for base, top in ((4, 66), (2, 131), (3, 126), (5, 86))
                   for k in range(1, top) for d in range(-3, 3)}
    return list(range(-3, 3000)) + sorted(near_powers) + [rng.randrange(10**60) for _ in range(300)]


class TestClosedDensity:
    def test_examples_from_j_zero(self):
        assert closed_density(4, 1, 1) == Fraction(1, 12)
        assert closed_density(5, 2, 1) == Fraction(1, 24)
        assert closed_density(2, 1, 0) == Fraction(1, 1)

    def test_examples_from_j_one(self):
        assert closed_density(5, 2, 0, min_j=1) == Fraction(1, 120)
        assert closed_density(4, 1, 0, min_j=1) == Fraction(1, 12)
        assert closed_density(2, 1, 0, min_j=1) == Fraction(1, 2)

    def test_j_one_just_shifts_the_exponent(self):
        assert closed_density(4, 1, 0, min_j=1) == closed_density(4, 1, 1)

    def test_half_density_set_is_the_even_numbers(self):
        # {odd * 2**j, j >= 1} is exactly the positive even numbers
        spec = SetSpec(base=2, residue=1, exp_step=1, exp_offset=0, min_j=1)
        assert count_set_exact(10**4, spec) == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_density(1, 1, 0)
        with pytest.raises(ValueError):
            closed_density(4, 0, 0)
        with pytest.raises(ValueError):
            closed_density(4, 1, -1)
        with pytest.raises(ValueError):
            closed_density(4, 1, 0, min_j=2)

    def test_set_density_uses_spec_fields(self, classifier_specs):
        for spec in classifier_specs:
            assert set_density(spec) == closed_density(
                spec.base, spec.exp_step, spec.exp_offset, spec.min_j
            )


class TestCountSetExact:
    def test_examples(self):
        assert count_set_exact(100, FORM2) == 4  # {9, 34, 59, 84}
        eps11 = MOD8_CLASS_SPECS[(1, 1)]
        assert count_set_exact(3, eps11) == 1  # only n = 3
        unshifted = SetSpec(base=5, residue=2, exp_step=2, exp_offset=1, shift=0)
        assert count_set_exact(0, unshifted) == 0
        assert count_set_exact(-5, unshifted) == 0

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 1000, 10_000])
    def test_matches_brute_force(self, classifier_specs, n_max):
        for spec in classifier_specs:
            assert count_set_exact(n_max, spec) == brute_count(spec, n_max)

    def test_matches_brute_force_on_random_specs(self):
        rng = random.Random(2026)
        for _ in range(40):
            base = rng.randrange(2, 7)
            spec = SetSpec(
                base=base,
                residue=rng.randrange(1, base),
                exp_step=rng.randrange(1, 4),
                exp_offset=rng.randrange(0, 3),
                shift=rng.randrange(-4, 5),
                min_j=rng.randrange(0, 2),
            )
            n_max = rng.randrange(0, 3000)
            assert count_set_exact(n_max, spec) == brute_count(spec, n_max)

    def test_matches_layer_count_oracle(self, classifier_specs):
        horizons = oracle_horizons()
        for spec in classifier_specs + SYNTHETIC_SPECS:
            for n_max in horizons:
                assert count_set_exact(n_max, spec) == layer_count_oracle(n_max, spec), (spec, n_max)

    def test_matches_layer_count_oracle_on_every_residue(self):
        # Each (base, exp_step, residue) reads its own lookup table.  Base 8
        # with exp_step 5 fills one table chunk exactly, and base 200 with
        # exp_step 2 is past the cap, so it walks the exponent layers.
        assert 8**5 <= density.MAX_CHUNK_ENTRIES < 200**2
        specs = [SetSpec(base, residue, step, 1, shift, min_j)
                 for base in range(2, 8) for residue in range(1, base) for step in (1, 2, 3)
                 for shift in (-3, 0, 2) for min_j in (0, 1)]
        specs += [SetSpec(8, residue, 5, 0, -1, 0) for residue in (1, 7)]
        specs += [SetSpec(200, residue, 2, 1, shift, 0) for residue in (1, 199) for shift in (-3, 2)]
        rng = random.Random(20)
        sampled = [rng.randrange(10**60) for _ in range(10)]
        for spec in specs:
            near_powers = [spec.base**k + spec.shift + d for k in range(1, 200)
                           if spec.base**k <= 10**40 for d in (-1, 0)]
            for n_max in [*range(-3, 100), *near_powers, *sampled]:
                assert count_set_exact(n_max, spec) == layer_count_oracle(n_max, spec), (spec, n_max)

    @settings(deadline=None)
    @given(base=st.integers(min_value=2, max_value=7),
           residue_offset=st.integers(min_value=0, max_value=5),
           exp_step=st.integers(min_value=1, max_value=3),
           exp_offset=st.integers(min_value=0, max_value=2),
           shift=st.integers(min_value=-3, max_value=3),
           min_j=st.integers(min_value=0, max_value=1),
           n=st.integers(min_value=0, max_value=10**40),
           i=st.integers(min_value=0, max_value=10**12),
           j=st.integers(min_value=0, max_value=12))
    def test_steps_by_one_at_each_member(self, base, residue_offset, exp_step, exp_offset,
                                         shift, min_j, n, i, j):
        # At a random n below 10**40 and at a member of the family.
        spec = SetSpec(base, 1 + residue_offset % (base - 1), exp_step, exp_offset, shift, min_j)
        for index in (n, spec.member(i, j + min_j)):
            if index >= 0:
                step = count_set_exact(index, spec) - count_set_exact(index - 1, spec)
                assert step == (is_in_set(index, spec) is not None), (spec, index)

    def test_matches_layer_count_oracle_at_a_huge_horizon(self, classifier_specs):
        # The classifier specs, base 4 with residue 2, base 5 with the
        # exp_steps no classifier spec has, and base 5 with exp_step 2 from
        # exponent 0 for every residue.
        shapes = ([SetSpec(4, 2, 1, 1, -1, 0)] + [SetSpec(5, 3, step, 1, -2, 0) for step in (1, 3)]
                  + [SetSpec(5, residue, 2, 0, 2, 0) for residue in range(1, 5)])
        for spec in classifier_specs + shapes:
            n_max = HUGE_HORIZON - 1
            assert count_set_exact(n_max, spec) == cached_oracle(n_max, spec), spec


class TestCountErrorBound:
    def test_bound_holds_on_dense_small_horizons(self, classifier_specs):
        for spec in classifier_specs:
            limit = set_density(spec)
            for n_max in range(1500):
                gap = abs(count_set_exact(n_max, spec) - n_max * limit)
                assert gap <= count_error_bound(n_max, spec), (spec, n_max)

    def test_bound_holds_on_sampled_large_horizons(self, classifier_specs):
        rng = random.Random(77)
        horizons = [rng.randrange(1500, 10**6) for _ in range(300)] + [10**6]
        for spec in classifier_specs:
            limit = set_density(spec)
            for n_max in horizons:
                gap = abs(count_set_exact(n_max, spec) - n_max * limit)
                assert gap <= count_error_bound(n_max, spec), (spec, n_max)

    @given(
        base=st.integers(min_value=2, max_value=6),
        residue_offset=st.integers(min_value=0, max_value=4),
        exp_step=st.integers(min_value=1, max_value=3),
        exp_offset=st.integers(min_value=0, max_value=2),
        shift=st.integers(min_value=-30, max_value=30),
        min_j=st.integers(min_value=0, max_value=1),
        n_max=st.integers(min_value=0, max_value=4000),
    )
    def test_bound_holds_on_arbitrary_specs(self, base, residue_offset, exp_step,
                                            exp_offset, shift, min_j, n_max):
        spec = SetSpec(base=base, residue=1 + residue_offset % (base - 1),
                       exp_step=exp_step, exp_offset=exp_offset, shift=shift,
                       min_j=min_j)
        gap = abs(count_set_exact(n_max, spec) - n_max * set_density(spec))
        assert gap <= count_error_bound(n_max, spec)

    def test_matches_error_bound_oracle(self, classifier_specs):
        # The tests above only check that a bound holds, and the pinned
        # bounds cover only the classifier specs: compare the exact bound,
        # whose layer count is off by one at the slightest slip.  Its layer
        # count changes only at n_max = base**k + shift, so past 300 the
        # grid takes just the horizons next to those.
        grid = [SetSpec(base, base - 1, step, offset, shift, min_j)
                for base in range(2, 8) for step in (1, 2, 3) for offset in (0, 1, 2)
                for shift in (-3, 0, 2) for min_j in (0, 1)]
        rng = random.Random(16)
        sampled = [rng.randrange(10**60) for _ in range(30)] + [HUGE_HORIZON - 1]
        for dense, specs in ((3000, classifier_specs + SYNTHETIC_SPECS), (300, grid)):
            for spec in specs:
                near_powers = [spec.base**k + spec.shift + d
                               for k in range(1, 204) if spec.base**k < 10**61 for d in (-1, 0, 1)]
                for n_max in [*range(-3, dense + 1), *near_powers, *sampled]:
                    assert count_error_bound(n_max, spec) == error_bound_oracle(n_max, spec), \
                        (spec, n_max)


class TestCountT01:
    def test_power_horizons(self):
        for k in range(1, 13):
            assert count_t01_upto(3**k - 1) == 2**k

    def test_examples(self):
        assert count_t01_upto(1) == 2
        assert count_t01_upto(4) == 4
        assert count_t01_upto(0) == 1
        assert count_t01_upto(-1) == 0

    def test_matches_brute_force(self):
        running = 0
        for n in range(3**8):
            running += is_t01(n)
            assert count_t01_upto(n) == running

    def test_matches_t01_count_oracle(self):
        # Past the first base-3**9 chunk, around every chunk boundary below
        # 10**60, at random values and at 4001 digits.
        rng = random.Random(9)
        near_chunks = [3 ** (9 * k) + d for k in range(1, 14) for d in range(-3, 4)]
        sampled = [rng.randrange(10**60) for _ in range(2000)]
        for n_max in [*range(-1, 3**10 + 1), *near_chunks, *sampled, HUGE_HORIZON]:
            assert count_t01_upto(n_max) == t01_count_oracle(n_max), n_max

    @settings(deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**40),
           binary=st.integers(min_value=1, max_value=2**83))
    def test_steps_by_one_at_each_zero_one_number(self, n, binary):
        # At a random n below 10**40, and at the zero-one number whose
        # base-3 digits spell ``binary``.
        for index in (n, int(bin(binary)[2:], 3)):
            assert count_t01_upto(index) - count_t01_upto(index - 1) == is_t01(index), index

    def test_capped_by_power_of_two(self):
        for n_max in [1, 2, 5, 80, 100, 3**7, 10**6, 10**9]:
            k = 0
            while 3 ** (k + 1) <= n_max:
                k += 1
            assert count_t01_upto(n_max) <= 2 ** (k + 1)

    def test_ratio_vanishes_along_powers(self):
        ratios = [count_t01_upto(3**k - 1) / (3**k - 1) for k in range(2, 13)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestDensityTable:
    def test_table_values(self):
        table = dict(density_table())
        assert table["even"] == Fraction(1, 3)
        assert table["mod8=4"] == Fraction(1, 6)
        assert table["mod8=2"] == Fraction(1, 12)
        assert table["mod8=6"] == Fraction(1, 12)
        assert table["mod4=2"] == Fraction(1, 6)
        assert table["mod3=0"] == Fraction(1, 1)
        assert table["mod3=1"] == Fraction(0, 1)
        assert table["mod3=2"] == Fraction(0, 1)
        assert table["div5"] == Fraction(1, 10)
        assert [table[f"div5_form{k}"] for k in (1, 2, 3, 4)] == [
            Fraction(1, 120), Fraction(1, 24), Fraction(1, 24), Fraction(1, 120)
        ]
        for label in ("eps1_delta1", "eps1_delta2", "eps3_delta1", "eps3_delta2"):
            assert table[label] == Fraction(1, 12)
        assert table["t01"] == Fraction(0, 1)

    def test_exact_rational_identities(self):
        table = dict(density_table())
        assert table["even"] == 4 * Fraction(1, 12)
        assert table["mod8=4"] == 2 * Fraction(1, 12)
        assert table["mod4=2"] == table["mod8=2"] + table["mod8=6"]
        assert table["div5"] == 2 * Fraction(1, 120) + 2 * Fraction(1, 24)

    def test_rows_match_closed_forms(self):
        table = dict(density_table())
        for (eps, delta), spec in MOD8_CLASS_SPECS.items():
            assert table[f"eps{eps}_delta{delta}"] == set_density(spec)
        for form, spec in enumerate(DIV5_FORM_SPECS, start=1):
            assert table[f"div5_form{form}"] == set_density(spec)
        assert table["even"] == sum(set_density(s) for s in MOD8_CLASS_SPECS.values())
        assert table["div5"] == sum(set_density(s) for s in DIV5_FORM_SPECS)

    def test_density_limit_lookup(self):
        assert density_limit("mod8=4") == Fraction(1, 6)
        assert density_limit("div5_form1") == Fraction(1, 120)
        assert density_limit("mod3=0") == 1
        with pytest.raises(ValueError):
            density_limit("mod8=5")

    @pytest.mark.parametrize("selector", [7, ["even"], None, FORM2])
    def test_non_label_selectors_are_rejected(self, selector):
        with pytest.raises(ValueError):
            density_limit(selector)
        with pytest.raises(ValueError):
            count_class_in_range(selector, 0, 10)
        with pytest.raises(ValueError):
            empirical_density(selector, 10)


def scalar_class_count(selector, lo, hi):
    """Reference counts straight from the scalar classifiers."""
    count = 0
    for n in range(lo, hi):
        if selector == "even":
            count += classify_mod8(n).is_even
        elif selector.startswith("mod8="):
            count += classify_mod8(n).kind.even_residue == int(selector[-1])
        elif selector == "mod4=2":
            count += classify_mod8(n).kind in (Mod8Kind.RESIDUE_2, Mod8Kind.RESIDUE_6)
        elif selector.startswith("mod3="):
            count += classify_mod3(n) == int(selector[-1])
        elif selector == "div5":
            count += classify_div5(n).divisible
        elif selector.startswith("div5_form"):
            count += classify_div5(n).form == int(selector[-1])
        elif selector.startswith("eps"):
            eps, delta = int(selector[3]), int(selector[-1])
            witness = classify_mod8(n).witness
            count += witness is not None and (witness.eps, witness.delta) == (eps, delta)
        elif selector == "t01":
            count += is_t01(n)
        else:
            raise AssertionError(selector)
    return count


ALL_LABELS = [label for label, _ in density_table()]

# Every label that is a disjoint union of SetSpec families, with its specs.
SPEC_UNIONS = {
    "even": list(MOD8_CLASS_SPECS.values()),
    **{f"eps{eps}_delta{delta}": [spec] for (eps, delta), spec in MOD8_CLASS_SPECS.items()},
    "mod8=4": [MOD8_CLASS_SPECS[(1, 1)], MOD8_CLASS_SPECS[(3, 2)]],
    "mod4=2": [MOD8_CLASS_SPECS[(1, 2)], MOD8_CLASS_SPECS[(3, 1)]],
    "div5": list(DIV5_FORM_SPECS),
    **{f"div5_form{form}": [spec] for form, spec in enumerate(DIV5_FORM_SPECS, start=1)},
}


class TestEmpiricalDensity:
    @pytest.mark.parametrize("selector", ALL_LABELS)
    def test_counts_match_scalar_classifiers(self, selector):
        assert count_class_in_range(selector, 0, 3000) == scalar_class_count(selector, 0, 3000)

    @pytest.mark.parametrize("selector", ["even", "div5", "mod3=0", "t01"])
    def test_window_counts_match_scalar_classifiers(self, selector):
        assert count_class_in_range(selector, 12345, 13345) == scalar_class_count(
            selector, 12345, 13345
        )

    def test_split_point_additivity(self):
        rng = random.Random(11)
        horizon = 50_000
        full = count_class_in_range("div5", 0, horizon)
        for _ in range(5):
            cut = rng.randrange(horizon + 1)
            left = count_class_in_range("div5", 0, cut)
            right = count_class_in_range("div5", cut, horizon)
            assert left + right == full

    def test_report_fields(self):
        report = empirical_density("div5", 10**5)
        assert report.label == "div5"
        assert report.limit_value == Fraction(1, 10)
        assert report.horizon == 10**5
        assert report.observed_ratio == report.observed_count / 10**5
        expected = abs(Fraction(report.observed_count, 10**5) - Fraction(1, 10))
        assert report.abs_discrepancy == pytest.approx(float(expected))

    def test_spec_counts_match_count_set_exact(self):
        # The digit-machine sweep against the exact counters, from 0 and on
        # windows far past those the scalar-classifier comparisons reach.
        windows = [(2**62, 2**62 + 2**16), (MAX_INDEX - 3000, MAX_INDEX)]
        for label, specs in SPEC_UNIONS.items():
            report = empirical_density(label, 20_000)
            assert count_class_in_range(label, 0, 20_000) == report.observed_count
            assert report.observed_count == sum(count_set_exact(19_999, s) for s in specs)
            assert report.limit_value == sum(set_density(s) for s in specs)
            assert report.label == label
            for lo, hi in windows:
                expected = sum(count_set_exact(hi - 1, s) - count_set_exact(lo - 1, s)
                               for s in specs)
                assert count_class_in_range(label, lo, hi) == expected, (label, lo)

    def test_sweep_catches_a_wrong_union_spec(self, monkeypatch):
        # The div5 sweep reads M(n) mod 5, not the specs, so a div5 union
        # built with a wrong form-2 exponent no longer matches it.
        wrong = [dataclasses.replace(spec, exp_offset=3) if spec == FORM2 else spec
                 for spec in DIV5_FORM_SPECS]
        monkeypatch.setattr(density, "DIV5_FORM_SPECS", wrong)
        monkeypatch.setattr(density, "_REGISTRY", density._build_registry())
        horizon = 10**5
        assert empirical_density("div5", horizon).observed_count != \
            count_class_in_range("div5", 0, horizon)

    @pytest.mark.parametrize("selector", ALL_LABELS)
    def test_error_bound_dominates_discrepancy(self, selector):
        report = empirical_density(selector, 10**5)
        assert type(report.error_bound) is float
        assert report.abs_discrepancy <= report.error_bound

    def test_t01_report_at_power_horizon(self):
        report = empirical_density("t01", 3**6)
        assert report.observed_count == count_t01_upto(3**6 - 1) == 64
        assert report.limit_value == 0

    def test_mod3_reports_at_power_horizon(self):
        horizon = 3**9
        zero = empirical_density("mod3=0", horizon)
        one = empirical_density("mod3=1", horizon)
        two = empirical_density("mod3=2", horizon)
        assert zero.observed_count + one.observed_count + two.observed_count == horizon
        assert one.observed_ratio <= one.error_bound
        assert two.observed_ratio <= two.error_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_density("even", 0)
        with pytest.raises(ValueError):
            empirical_density("no-such-class", 10)
        with pytest.raises(ValueError):
            count_class_in_range("even", 5, 4)

    @pytest.mark.parametrize("call, name", [
        (lambda: empirical_density("mod8=2", 1000.0), "horizon"),
        (lambda: empirical_density("div5", 1000.0), "horizon"),
        (lambda: count_class_in_range("even", 0, 10.5), "hi"),
        (lambda: count_class_in_range("t01", 0.0, 10), "lo"),
    ], ids=["float horizon, popcounts", "float horizon, table", "float hi", "float lo"])
    def test_non_integers_are_named(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_are_accepted(self):
        expected = empirical_density("mod8=2", 1000).observed_count
        assert empirical_density("mod8=2", np.int64(1000)).observed_count == expected
        assert count_class_in_range("mod8=2", np.uint8(0), np.int32(1000)) == expected

    @pytest.mark.parametrize("call", [
        lambda n_max: count_set_exact(n_max, MOD8_CLASS_SPECS[(1, 1)]),
        lambda n_max: count_set_exact(n_max, DIV5_FORM_SPECS[0]),
        lambda n_max: count_error_bound(n_max, MOD8_CLASS_SPECS[(1, 1)]),
        count_t01_upto,
    ], ids=["mod-8 spec", "div-5 spec", "error bound", "t01"])
    def test_exact_counters_read_integers(self, call):
        expected = call(1000)
        for n_max in (np.int64(1000), np.uint16(1000)):
            value = call(n_max)
            assert type(value) is type(expected) and value == expected
        with pytest.raises(ValueError, match="^n_max must be an integer, got 10.5$"):
            call(10.5)


# Horizons where the exact counters meet the digit-machine sweep, in
# increasing order; the scalar classifiers join them up to SCALAR_HORIZON,
# past which they would take minutes.
EXACT_HORIZONS = (1, 2, 3, 4, 5, 7, 8, 100, 12345, 3**9, 10**5, 10**6)
SCALAR_HORIZON = 3**9
EXACT_WINDOWS = ((2**61, 2**61 + 3000), (2**62, 2**62 + 3000), (MAX_INDEX - 3000, MAX_INDEX))


class TestExactCounts:
    """empirical_density counts exactly; the sweep and the scalar classifiers check it."""

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_from_zero(self, label):
        scalar, scanned = 0, 0
        for horizon in EXACT_HORIZONS:
            exact = empirical_density(label, horizon).observed_count
            assert exact == count_class_in_range(label, 0, horizon), horizon
            if horizon <= SCALAR_HORIZON:
                scalar += scalar_class_count(label, scanned, horizon)
                scanned = horizon
                assert exact == scalar, horizon

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_windows(self, label):
        for lo, hi in EXACT_WINDOWS:
            exact = (empirical_density(label, hi).observed_count
                     - empirical_density(label, lo).observed_count)
            assert exact == count_class_in_range(label, lo, hi), lo
            assert exact == scalar_class_count(label, lo, hi), lo

    def test_past_the_sweep(self):
        # No sweep reaches 10**30: check how the classes partition, and the bounds.
        horizon = 10**30
        counts = {label: empirical_density(label, horizon).observed_count for label in ALL_LABELS}
        assert_partitions(counts)
        for label in ALL_LABELS:
            report = empirical_density(label, horizon)
            assert report.abs_discrepancy <= report.error_bound, label

    def test_huge_horizon(self):
        # At 4001 digits the spec unions meet the layer-count oracle; every
        # label finishes in seconds, where one big division per layer took
        # about 10 s for all of them.
        start = time.perf_counter()
        reports = {label: empirical_density(label, HUGE_HORIZON) for label in ALL_LABELS}
        elapsed = time.perf_counter() - start
        counts = {label: report.observed_count for label, report in reports.items()}
        for label, specs in SPEC_UNIONS.items():
            assert counts[label] == sum(cached_oracle(HUGE_HORIZON - 1, s) for s in specs), label
        assert_partitions(counts)
        # The report's float discrepancy and bound both underflow to 0.0
        # here, so check the registry's (count, bound) in exact rationals.
        for label, report in reports.items():
            count, bound = _REGISTRY[label].exact(HUGE_HORIZON - 1)
            assert count == report.observed_count, label
            assert abs(count - HUGE_HORIZON * report.limit_value) <= bound, label
        assert elapsed < 5, elapsed


def assert_partitions(counts) -> None:
    """How the label counts at one horizon must add up."""
    assert counts["mod8=2"] + counts["mod8=6"] == counts["mod4=2"]
    assert counts["mod8=4"] + counts["mod4=2"] == counts["even"]
    assert sum(counts[f"eps{e}_delta{d}"] for e in (1, 3) for d in (1, 2)) == counts["even"]
    assert sum(counts[f"div5_form{form}"] for form in range(1, 5)) == counts["div5"]


# Exact bounds.  The tests above only check that bounds hold, so an
# off-by-one in a truncation index or a layer count could pass them.
PINNED_HORIZONS = (0, 1, 3, 4, 15, 16, 10**6, 10**30)
PINNED_SPEC_BOUNDS = [  # classifier_specs order: the mod-8 specs, then the div-5 forms
    ("6", "6", "6", "6", "33/4", "33/4", "24", "114"),
    ("6", "6", "6", "6", "33/4", "33/4", "24", "114"),
    ("6", "6", "6", "6", "35/4", "35/4", "28", "138"),
    ("6", "6", "6", "6", "35/4", "35/4", "28", "138"),
    ("27", "27", "146/5", "146/5", "146/5", "146/5", "179/5", "366/5"),
    ("7", "7", "7", "7", "7", "7", "83/5", "287/5"),
    ("7", "7", "7", "7", "7", "7", "87/5", "308/5"),
    ("27", "27", "27", "149/5", "149/5", "149/5", "191/5", "429/5"),
]
PINNED_REPORT_HORIZONS = (1, 7, 3**9, 10**5)
PINNED_REPORT_BOUNDS = {  # error_bound.hex() at each report horizon
    "even": ("0x1.8000000000000p+4", "0x1.b6db6db6db6dbp+1",
             "0x1.17af275e9ea62p-8", "0x1.ecd4aa10e0221p-11"),
    "eps1_delta1": ("0x1.8000000000000p+2", "0x1.b6db6db6db6dbp-1",
                    "0x1.03b4edb34a2c9p-10", "0x1.c8216c61522a7p-13"),
    "eps1_delta2": ("0x1.8000000000000p+2", "0x1.b6db6db6db6dbp-1",
                    "0x1.03b4edb34a2c9p-10", "0x1.c8216c61522a7p-13"),
    "eps3_delta1": ("0x1.8000000000000p+2", "0x1.b6db6db6db6dbp-1",
                    "0x1.2ba96109f31fcp-10", "0x1.08c3f3e0370cep-12"),
    "eps3_delta2": ("0x1.8000000000000p+2", "0x1.b6db6db6db6dbp-1",
                    "0x1.2ba96109f31fcp-10", "0x1.08c3f3e0370cep-12"),
    "mod8=4": ("0x1.8000000000000p+3", "0x1.b6db6db6db6dbp+0",
               "0x1.17af275e9ea62p-9", "0x1.ecd4aa10e0221p-12"),
    "mod8=2": ("0x1.8000000000000p+2", "0x1.0000000000000p+0",
               "0x1.74e989d37e32ep-10", "0x1.4a4d2b2bfdb4dp-12"),
    "mod8=6": ("0x1.8000000000000p+2", "0x1.0000000000000p+0",
               "0x1.74e989d37e32ep-10", "0x1.4a4d2b2bfdb4dp-12"),
    "mod4=2": ("0x1.8000000000000p+3", "0x1.b6db6db6db6dbp+0",
               "0x1.17af275e9ea62p-9", "0x1.ecd4aa10e0221p-12"),
    "mod3=0": ("0x1.8000000000000p+2", "0x1.b6db6db6db6dbp+0",
               "0x1.3fa39ab547995p-4", "0x1.f75104d551d69p-5"),
    "mod3=1": ("0x1.0000000000000p+2", "0x1.2492492492492p+0",
               "0x1.aa2f78f1b4cc6p-5", "0x1.4f8b588e368f1p-5"),
    "mod3=2": ("0x1.0000000000000p+2", "0x1.2492492492492p+0",
               "0x1.aa2f78f1b4cc6p-5", "0x1.4f8b588e368f1p-5"),
    "div5": ("0x1.1000000000000p+6", "0x1.4db6db6db6db7p+3",
             "0x1.464c58990e6c8p-8", "0x1.0e0221426fe72p-10"),
    "div5_form1": ("0x1.b000000000000p+4", "0x1.0af8af8af8af9p+2",
                   "0x1.bf7ea5643109dp-10", "0x1.7763e4abe6a33p-12"),
    "div5_form2": ("0x1.c000000000000p+2", "0x1.0000000000000p+0",
                   "0x1.7a3d54f01d423p-11", "0x1.29cbab649d389p-13"),
    "div5_form3": ("0x1.c000000000000p+2", "0x1.0000000000000p+0",
                   "0x1.8a38b645fa704p-11", "0x1.3660e51d25aabp-13"),
    "div5_form4": ("0x1.b000000000000p+4", "0x1.1075075075075p+2",
                   "0x1.d777b764fccefp-10", "0x1.908e581cf7879p-12"),
    "t01": ("0x1.0000000000000p+1", "0x1.2492492492492p-1",
            "0x1.aa2f78f1b4cc6p-6", "0x1.4f8b588e368f1p-6"),
}


class TestPinnedBounds:
    def test_count_error_bounds(self, classifier_specs):
        for spec, expected in zip(classifier_specs, PINNED_SPEC_BOUNDS, strict=True):
            got = tuple(str(count_error_bound(n_max, spec)) for n_max in PINNED_HORIZONS)
            assert got == expected, spec

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_report_error_bounds(self, label):
        got = tuple(empirical_density(label, horizon).error_bound.hex()
                    for horizon in PINNED_REPORT_HORIZONS)
        assert got == PINNED_REPORT_BOUNDS[label]


class TestResidueDistribution:
    def test_mod2_prefix(self):
        rows = empirical_residue_distribution(2, 12)
        assert rows[0] == (0, 4, 4 / 12)  # n = 2, 3, 10, 11
        assert rows[1] == (1, 8, 8 / 12)

    def test_mod8_forbidden_zero(self):
        rows = empirical_residue_distribution(8, 1000)
        assert rows[0] == (0, 0, 0.0)

    def test_counts_sum_to_horizon(self):
        rows = empirical_residue_distribution(5, 1000)
        assert sum(count for _, count, _ in rows) == 1000
        assert [residue for residue, _, _ in rows] == [0, 1, 2, 3, 4]

    def test_ceiling_applies(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "100")
        with pytest.raises(ResourceLimitError):
            empirical_residue_distribution(5, 101)

    def test_ceiling_bounds_the_modulus(self, monkeypatch):
        # One row per residue: 10**9 + 7 of them would take 8 GB.  The
        # modulus is refused before the stream runs, so nothing that size
        # is ever built here.
        def stream(modulus, count):
            raise AssertionError("the stream ran")

        monkeypatch.setattr(density, "motzkin_mod_stream", stream)
        with pytest.raises(ResourceLimitError, match="^residue table size 1000000007 exceeds"):
            empirical_residue_distribution(10**9 + 7, 10)


class TestChunkTables:
    """The pure-Python lookup tables equal the numpy builds in conftest."""

    @pytest.mark.parametrize("base, exp_step, residue", [
        (base, step, residue)
        for base, step in ((2, 1), (2, 3), (3, 2), (4, 1), (5, 1), (5, 2), (5, 3), (7, 2),
                           (10, 1), (25, 1), (31, 3), (181, 1), (181, 2), (2, 16))
        for residue in sorted({1, base // 2, base - 1})
    ])
    def test_legendre_table(self, base, exp_step, residue):
        table = density._legendre_table(base, exp_step, residue)
        step = base ** exp_step
        if step > density.MAX_CHUNK_ENTRIES:
            assert table is None
            return
        size, got_step, weight, entries = table
        digits = 1
        while step ** (digits + 1) <= density.MAX_CHUNK_ENTRIES:
            digits += 1
        assert (size, got_step, weight) == (step ** digits, step, base ** (exp_step - 1))
        assert entries.typecode == "h"
        assert entries == legendre_table_oracle(base, exp_step, residue, exp_step * digits)

    def test_t01_table(self):
        size, digits, entries = density._t01_table()
        assert size == 3 ** digits <= density.MAX_CHUNK_ENTRIES < 3 ** (digits + 1)
        assert entries.typecode == "h"
        assert entries == t01_table_oracle(digits)


class TestDensityReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityReport("x", Fraction(1, 2), 0, 0, 0.0)
        with pytest.raises(ValueError):
            DensityReport("x", Fraction(1, 2), 10, 11, 0.0)
