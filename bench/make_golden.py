"""Record the expected reports of the check-structured workload.

Every (construction, attack size) pair the workload can issue is checked
with the naive reference checkers in tests/oracles.py, which share no code
with the package's bit-mask scan. The result is written to
bench/golden.json; the benchmark compares each report against it.

    python3 bench/make_golden.py          # takes a few minutes

The oracles scan every attack set, so clique-partition:5 at a=6
(1,947,792 sets) dominates the run time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from hrcolor import constructions  # noqa: E402

from workloads import STRUCTURED_FAMILIES, Plain, oracle_check  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def expected(family: str, a: int) -> dict:
    return oracle_check(oracles, Plain.from_instance(constructions.instance(family)), a)


def main() -> None:
    golden = {}
    for family, design in STRUCTURED_FAMILIES:
        for a in range(1, design + 2):
            golden[f"{family}@{a}"] = expected(family, a)
            print(f"{family}@{a}: {golden[f'{family}@{a}']}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
