"""Variation study: how process variation spreads core frequency and
power across a batch of manufactured dies (paper Section 7.1).

Generates a batch of dies, characterises each, and reports the
max/min core frequency and power ratios plus how they scale with the
Vth sigma/mu parameter — a miniature of Figures 4 and 5.

Run with::

    python examples/variation_study.py
"""

import numpy as np

from repro.config import DEFAULT_TECH
from repro.experiments.common import ChipFactory
from repro.experiments.fig04_variation import die_ratios

N_DIES = 10


def main() -> None:
    print(f"Characterising {N_DIES} dies at Vth sigma/mu = "
          f"{DEFAULT_TECH.vth_sigma_over_mu} ...")
    pairs = die_ratios(N_DIES, workers=1)
    power_ratios, freq_ratios = zip(*pairs)
    for chip, (pr, fr) in zip(ChipFactory().chips(N_DIES), pairs):
        f = chip.fmax_array / 1e9
        print(f"  die {chip.die_id:2d}: fmax {f.min():.2f}-{f.max():.2f} GHz"
              f"  freq ratio {fr:.2f}  power ratio {pr:.2f}")
    print(f"\nBatch means: frequency ratio {np.mean(freq_ratios):.2f} "
          f"(paper ~1.33), power ratio {np.mean(power_ratios):.2f} "
          f"(paper ~1.53)")

    print("\nScaling with sigma/mu (Figure 5 shape):")
    for sigma in (0.03, 0.06, 0.09, 0.12):
        tech = DEFAULT_TECH.with_sigma_over_mu(sigma)
        ratios = [fr for _, fr in die_ratios(4, tech=tech, workers=1,
                                             with_power=False)]
        print(f"  sigma/mu {sigma:.2f}: mean frequency ratio "
              f"{np.mean(ratios):.3f}")


if __name__ == "__main__":
    main()
