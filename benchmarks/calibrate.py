"""Regenerate a cost-ordered population in benchmarks/data/ by timing each item once, in reference seconds.

    python3 benchmarks/calibrate.py classify   # eligible n <= 2000, about 6 minutes
    python3 benchmarks/calibrate.py bign       # 2000 seeded (n, k), about 3 minutes

Run from the repository root. Items run once, in population order, in one
process, as the benchmark runs them, with the host's speed probed throughout
(see hostspeed.py). The file lists each item with its cost in reference
seconds, cheapest first; the costs split the population into balanced panels
and their sum sets how many panels there are.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from vpal.digits import reverse_digits  # noqa: E402
from vpal.factor import BudgetExhausted  # noqa: E402
from vpal.oracle import corpus  # noqa: E402

import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402

BIGN_POPULATION_SEED = 0
BIGN_POPULATION_SIZE = 2000


def bign_population() -> list[tuple[int, int]]:
    """Eligible n with a digit count drawn uniformly from 12..16, and k from {1, 2, 3}."""
    rng = random.Random(BIGN_POPULATION_SEED)
    items: list[tuple[int, int]] = []
    while len(items) < BIGN_POPULATION_SIZE:
        digits = rng.randint(12, 16)
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        k = rng.randint(1, 3)
        if n % 10 != 0 and n != reverse_digits(n) and (n, k) not in items:
            items.append((n, k))
    return items


def main(name: str) -> None:
    if name == "classify":
        population = [(n,) for n in corpus(2000)]
    elif name == "bign":
        population = bign_population()
    else:
        raise SystemExit(f"unknown population {name!r}")
    run = workloads.WORKLOADS[name].run
    stamps = []
    with HostClock() as clock:
        for item in population:
            t = time.monotonic()
            try:
                run(item)
            except BudgetExhausted:
                pass
            stamps.append((t, time.monotonic()))
    timed = sorted((clock.reference_seconds(*span), item) for span, item in zip(stamps, population))
    lines = [" ".join(map(str, item)) + f" {cost:.6f}" for cost, item in timed]
    (workloads.DATA / f"{name}.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
