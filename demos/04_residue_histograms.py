#!/usr/bin/env python3
"""Residue histograms from actually computed Motzkin numbers.

The digit classifiers predict where the mass sits; here the modular stream
computes real residues so the histograms can talk back.  Two things
stand out: residue 0 mod 8 never occurs at all, and the four nonzero
residues mod 5 each hover near 22.5% while residue 0 sits at 10%.
"""

from motzkinlab import empirical_residue_distribution

HORIZON = 30_000


def bar(ratio: float, width: int = 44) -> str:
    return "#" * round(ratio * width)


print(f"M(n) mod 5 for n < {HORIZON}:")
for residue, count, ratio in empirical_residue_distribution(5, HORIZON):
    print(f"   {residue}: {count:>6}  {ratio:7.2%}  {bar(ratio)}")

print(f"\nM(n) mod 8 for n < {HORIZON} (residue 0 is forbidden):")
for residue, count, ratio in empirical_residue_distribution(8, HORIZON):
    print(f"   {residue}: {count:>6}  {ratio:7.2%}  {bar(ratio)}")

print(f"\nM(n) mod 3 for n < {HORIZON} (residues 1 and 2 have limit density 0):")
for residue, count, ratio in empirical_residue_distribution(3, HORIZON):
    print(f"   {residue}: {count:>6}  {ratio:7.2%}  {bar(ratio)}")
