"""Regenerate ``critvals.json``, the fixed critical values of the power workload.

The power workload compares rejection rates against critical values that
must not be recomputed in every run, so they are estimated once here and
committed. Run from the repository root:

    python3 benchmarks/make_critvals.py

Changing the replication count or seed changes the workload's inputs; the
benchmark then has to be measured again from scratch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from unigof import TEST_IDS, StudyConfig, estimate_critical_values  # noqa: E402

REPLICATIONS = 200_000
MASTER_SEED = 20260816
FAMILIES = ("normal", "pareto")


def main() -> None:
    out = {"replications": REPLICATIONS, "master_seed": MASTER_SEED, "rows": []}
    for family in FAMILIES:
        config = StudyConfig(
            mode="critical_values",
            tests=TEST_IDS,
            family=family,
            alternatives=(),
            sizes=(50,),
            alphas=(0.05,),
            replications=REPLICATIONS,
            master_seed=MASTER_SEED,
        )
        for r in estimate_critical_values(config).rows:
            out["rows"].append(
                {"family": family, "test": r.test, "n": r.n, "alpha": r.alpha,
                 "estimate": r.estimate, "mc_se": r.mc_se}
            )
    (HERE / "critvals.json").write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
