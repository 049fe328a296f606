#!/usr/bin/env python3
"""Run the full synthetic study battery and drop plot-ready CSVs in one place.

Covers the mean-cost sweep, cost-diversity sweep, demand-variance sweep, the
price/cost ratio map, the elastic-demand sweep and the efficiency sweep, all
on seeded uniform-demand instances. The whole battery takes under a second
at the default sizes on a 2-vCPU machine.
"""

import argparse
from pathlib import Path

import yaml

from toudesign.cli import main as cli_main

BASE_CONFIG = {
    "synthetic": {"n_types": 4, "users_per_type": 4, "n_outcomes": 7, "peak_range_mwh": 10.0},
    "supply": {"alpha": 1.0},
    "storage": {"theta_bar": 10.0, "delta_s": 1 / 3, "n_types": 4, "elastic_cost": 2.0},
    "grouping": {"mode": "random", "seeds": [0, 1, 2, 3, 4]},
    "sweeps": {
        "theta_bar": [0.5, 2, 4, 6, 9, 12, 16, 20, 24, 28, 32, 36, 44],
        "delta_s": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "delta_d": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
        "p_delta": [0.0, 1, 2, 4, 8, 16, 32, 64, 128],
        "tau": [0.0, 1.0, 2.0, 4.0, 8.0],
        "eta": [0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0],
        "elastic_fraction": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
    },
    "seed": 2024,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("study_out"))
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    config = dict(BASE_CONFIG)
    config["seed"] = args.seed
    cfg_path = args.out / "study_config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    rc = cli_main(["benchmark", "--config", str(cfg_path), "--out", str(args.out)])
    if rc:
        return rc
    rc = cli_main(
        ["optimize", "--config", str(cfg_path), "--out", str(args.out), "--scheme", "both"]
    )
    if rc:
        return rc
    for axis in ("theta_bar", "delta_s", "delta_d", "lambda", "tau", "eta", "elastic_fraction"):
        print(f"== sweep {axis}")
        rc = cli_main(
            ["sweep", "--config", str(cfg_path), "--out", str(args.out), "--axis", axis]
        )
        if rc:
            return rc
    print(f"study complete; results in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
