"""The benchmark's three workloads: inputs drawn from a seed, one item, and its output check.

Every workload draws from a finite population. ``classify`` and ``bign`` keep
theirs in ``data/`` with the measured cost of each item, which splits them into
cost-balanced panels; the seed picks a panel and its order. ``periodicity``
runs its whole corpus in seeded order. Items call vpal through module attributes
(``cli.main``, ``procedure.run_procedure``, ``oracle.verify_periodicity``) so
that the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from vpal import cli, oracle, procedure
from vpal.factor import Budget, BudgetExhausted

DATA = Path(__file__).resolve().parent / "data"

# No budget the benchmark passes may be cut short by the wall clock: the
# seconds cap is far beyond any run, so only the iteration cap I can bind and
# the same inputs fail the same way on a fast or a slow host.
NEVER_SECONDS = 1e9
BIGN_ITERATIONS = 1_000_000
PERIODICITY_ITERATIONS = 1_000_000
CHECK_ITERATIONS = 2_000_000
KMAX_CHECK = 8
MIN_ITEMS = 100  # p90 needs at least ten samples beyond it

SCHEMA_PATH = Path("docs") / "procedure-result.schema.json"


def iteration_budget(iterations: int) -> Budget:
    return Budget(seconds=NEVER_SECONDS, iterations=iterations)


@dataclass
class Outcome:
    """Operations one item attempted and failed, with counts it reports to the per-layer metrics."""

    ops: int = 1
    failed_ops: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def load_population(name: str) -> tuple[list[tuple[int, ...]], list[float]]:
    """Items of ``data/<name>.txt`` and their measured costs in reference seconds.

    Each line holds the item's integer fields followed by its cost.
    """
    items, costs = [], []
    for line in (DATA / f"{name}.txt").read_text().splitlines():
        *fields, cost = line.split()
        items.append(tuple(int(f) for f in fields))
        costs.append(float(cost))
    return items, costs


def balanced_panels(items: list, costs: list[float], count: int) -> list[list]:
    """Split a population into ``count`` panels of equal size and nearly equal total cost.

    Items go in descending cost to the panel with the least total cost so far
    that still has room. A panel drawn uniformly is then a sample in which
    every item has the same chance, 1/count, to appear, yet every panel holds
    the same mix of cheap and costly items. This matters: the costs are heavy
    tailed, and stratified samples of the same size differed by 3 to 20 % in
    total cost from seed to seed.
    """
    capacity = -(-len(items) // count)
    panels: list[list] = [[] for _ in range(count)]
    totals = [0.0] * count
    for cost, item in sorted(zip(costs, items), reverse=True):
        j = min((j for j in range(count) if len(panels[j]) < capacity), key=totals.__getitem__)
        panels[j].append(item)
        totals[j] += cost
    return panels


def panel_inputs(name: str, seed: int, seconds: float) -> list[tuple[int, ...]]:
    """The seed's panel of the population, in seeded order; panels cost about ``seconds`` each."""
    items, costs = load_population(name)
    count = max(1, min(len(items) // MIN_ITEMS, round(sum(costs) / seconds)))
    rng = random.Random(seed)
    panel = list(balanced_panels(items, costs, count)[rng.randrange(count)])
    rng.shuffle(panel)
    return panel


# --- classify: `vpal procedure N --json` over the eligible n <= 2000 --------------


def classify_run(item: tuple[int, ...]) -> tuple[int, str]:
    (n,) = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["procedure", str(n), "--json"])
    return code, buf.getvalue()


def _accepted(column: dict, k: int) -> bool:
    return all(k % a == 0 for a in column["A"]) and all(k % b != 0 for b in column["B"])


def classify_check(item: tuple[int, ...], output: tuple[int, str], validator: Any) -> int:
    """Exit 0 and schema-valid JSON whose verdicts for k <= 8 match the oracle and whose omega0 divides omega."""
    (n,) = item
    code, text = output
    if code != 0:
        return 1
    doc = json.loads(text)
    if list(validator.iter_errors(doc)):
        return 1
    if doc["omega0"] is not None and doc["omega"] % doc["omega0"] != 0:
        return 1
    budget = iteration_budget(CHECK_ITERATIONS)
    for k in range(1, KMAX_CHECK + 1):
        verdict = any(_accepted(col, k) for col in doc["columns"])
        try:
            if verdict != oracle.oracle_is_vpal_concat(n, k, budget):
                return 1
        except BudgetExhausted:
            return 1
    return 0


# --- bign: the procedure on 12- to 16-digit n, k in {1, 2, 3} ---------------------


def bign_run(item: tuple[int, ...]) -> list[bool]:
    n, k = item
    result = procedure.run_procedure(n, copies=k, budget=iteration_budget(BIGN_ITERATIONS))
    return [result.accepts(j) for j in range(1, KMAX_CHECK + 1)]


def bign_check(item: tuple[int, ...], output: list[bool], validator: Any) -> int:
    """accepts(1) of n(k) against the oracle, wherever the oracle finishes under its budget."""
    n, k = item
    try:
        expected = oracle.oracle_is_vpal_concat(n, k, iteration_budget(CHECK_ITERATIONS))
    except BudgetExhausted:
        return 0
    return int(output[0] != expected)


# --- periodicity: criterion 5's path over the eligible n <= 1000 -------------------

PERIODICITY_NMAX = 1000
PERIODICITY_PERIODS = 2
PERIODICITY_OMEGA_CAP = 60


def periodicity_inputs(seed: int, seconds: float) -> list[tuple[int, ...]]:
    """The whole corpus in seeded order, whatever ``seconds`` says: every run burns the same budgets."""
    items = [(n,) for n in oracle.corpus(PERIODICITY_NMAX)]
    random.Random(seed).shuffle(items)
    return items


def periodicity_run(item: tuple[int, ...]) -> oracle.VerificationReport:
    (n,) = item
    return oracle.verify_periodicity(
        n,
        periods=PERIODICITY_PERIODS,
        budget=iteration_budget(PERIODICITY_ITERATIONS),
        omega_cap=PERIODICITY_OMEGA_CAP,
    )


def periodicity_outcome(item: tuple[int, ...], report: oracle.VerificationReport) -> Outcome:
    """Operations are oracle comparisons plus budget skips; a budget skip is a failed operation.

    A skip for omega above the cap is out of scope, counted apart and not as an operation.
    """
    budget_skips = sum(1 for s in report.skips if "cofactor" in s)
    omega_skips = len(report.skips) - budget_skips
    comparisons = report.passed + report.failed
    return Outcome(
        ops=comparisons + budget_skips,
        failed_ops=budget_skips,
        counts={
            "oracle.checks": comparisons,
            "oracle.skips.budget": budget_skips,
            "oracle.skips.omega_cap": omega_skips,
        },
    )


def periodicity_check(item: tuple[int, ...], report: oracle.VerificationReport, validator: Any) -> int:
    return report.failed


@dataclass(frozen=True)
class Workload:
    """``check`` returns the number of mismatched outputs; an item is one operation unless
    ``outcome`` says otherwise."""

    inputs: Callable[[int, float], list]
    run: Callable[[tuple], Any]
    check: Callable[[tuple, Any, Any], int]
    budgets: dict[str, int]
    outcome: Callable[[tuple, Any], Outcome] = lambda item, output: Outcome()


WORKLOADS = {
    "classify": Workload(functools.partial(panel_inputs, "classify"), classify_run, classify_check,
                         {"check_iterations": CHECK_ITERATIONS}),
    "periodicity": Workload(periodicity_inputs, periodicity_run, periodicity_check,
                            {"iterations": PERIODICITY_ITERATIONS}, periodicity_outcome),
    "bign": Workload(functools.partial(panel_inputs, "bign"), bign_run, bign_check,
                     {"iterations": BIGN_ITERATIONS, "check_iterations": CHECK_ITERATIONS}),
}
