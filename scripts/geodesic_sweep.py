#!/usr/bin/env python3
"""Frame bounds along Wasserstein geodesics.

Sweeps two contrasting paths: a random frame joined to its canonical dual
(every interpolant stays a frame) and the antipodal basis pair whose optimal
pairing collapses the support at the midpoint, found off the grid too (its
``singular_t``).  Writes one CSV per path.
"""

import argparse
from pathlib import Path

import numpy as np

from pframes import DiscreteMeasure, canonical_dual, geodesic_profile
from pframes.geodesics import profile_csv_text
from pframes.measures import frame_operator


def random_uniform_frame(rng, dim, count):
    while True:
        atoms = rng.normal(size=(count, dim))
        measure = DiscreteMeasure(atoms=atoms, weights=np.full(count, 1.0 / count))
        if np.linalg.eigvalsh(frame_operator(measure))[0] > 0.05:
            return measure


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=101)
    parser.add_argument("--outdir", type=Path, default=Path("geodesic_profiles"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    mu = random_uniform_frame(rng, 2, 5)
    profile = geodesic_profile(mu, canonical_dual(mu), grid_size=args.grid)
    (args.outdir / "canonical_dual_path.csv").write_text(profile_csv_text(profile))
    print(
        f"frame -> canonical dual: all_frames={profile.all_frames}, "
        f"min lambda_min={profile.lower_bounds.min():.6f}"
    )

    antipodal = geodesic_profile(
        DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5]),
        DiscreteMeasure(atoms=-np.eye(2), weights=[0.5, 0.5]),
        grid_size=args.grid,
    )
    (args.outdir / "antipodal_path.csv").write_text(profile_csv_text(antipodal))
    mid = np.argmin(np.abs(antipodal.ts - 0.5))
    print(
        f"antipodal pair: all_frames={antipodal.all_frames}, "
        f"singular_t={antipodal.singular_t:.6f}, "
        f"lambda_min at grid t={antipodal.ts[mid]:.4f} is {antipodal.lower_bounds[mid]:.3e}"
    )
    print(f"profiles written to {args.outdir}/")


if __name__ == "__main__":
    main()
