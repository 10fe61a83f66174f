#!/usr/bin/env python3
"""Limit densities of Motzkin residue classes, and how fast counts reach them.

Every class has an exact rational limit density.  Exact counting below a
finite horizon shows the convergence; the proved error bound caps how far a
count may stray from horizon * density.
"""

from motzkinlab import (
    DIV5_FORM_SPECS,
    closed_density,
    count_error_bound,
    count_set_exact,
    count_t01_upto,
    density_table,
    empirical_density,
    set_density,
)

print("The exact limit densities:")
for label, value in density_table():
    print(f"   {label:<12} {str(value):>6}  ~ {float(value):.6f}")

print("\nClosed forms come from one geometric-series formula, for example:")
print("   base 4, exponent step 1, offset 1      ->", closed_density(4, 1, 1))
print("   base 5, exponent step 2, offset 0, j>=1 ->", closed_density(5, 2, 0, min_j=1))

print("\nExact counts approach horizon * density (here: indices with 5 | M(n),")
print("first index form); the last column is the proved error bound:")
spec = DIV5_FORM_SPECS[0]
limit = set_density(spec)
for horizon in (10**3, 10**4, 10**5, 10**6, 10**7):
    count = count_set_exact(horizon, spec)
    gap = abs(count - horizon * limit)
    bound = count_error_bound(horizon, spec)
    print(f"   N = 10**{len(str(horizon)) - 1}: count {count:>6},"
          f" |count - N/120| = {float(gap):8.3f} <= {float(bound):.3f}")

print("\nReports count every class exactly in O(log N) steps, at any horizon")
print("(count_class_in_range gets the same counts by sweeping every index):")
for horizon in (10**6, 10**30):
    for selector in ("even", "mod8=4", "mod4=2", "div5"):
        report = empirical_density(selector, horizon)
        print(f"   N = 10**{len(str(horizon)) - 1:<2} {selector:<7}"
              f" limit {str(report.limit_value):>5}  observed {report.observed_ratio:.7f}"
              f"  |diff| = {report.abs_discrepancy:.2e}")

print("\nZero-one base-3 indices thin out (count is 2**k below 3**k):")
for k in (4, 6, 8, 10, 12):
    horizon = 3**k
    count = count_t01_upto(horizon - 1)
    print(f"   below 3**{k:<2} = {horizon:>6}: {count:>5} members,"
          f" ratio {count / horizon:.5f}")

print("\n...which is why M(n) = 0 mod 3 has full density:")
report = empirical_density("mod3=0", 3**12)
print(f"   observed ratio below 3**12: {report.observed_ratio:.5f} (limit 1)")
