"""The schema-1 document and text of `vpal procedure`, rebuilt from schema 2.

Schema 1 listed every solution with its case, constraint and column entries;
schema 2 (docs/procedure-result.schema.json) lists each row's distinct cells,
the sum graph's node sets and the columns of the types that occur. Every
schema-1 section is a function of schema 2, so the schema-1 goldens and pins
stay gates through rebuild() and text(). A test reference, not a writer of
the package.

    vpal procedure N --json | python3 tests/schema1.py           # schema-1 JSON
    vpal procedure N --json | python3 tests/schema1.py --text    # schema-1 text
"""

import json
import sys


def solutions(doc: dict) -> list[list[int]]:
    """The solutions, in lexicographic order: the paths from G_0 to G_m whose
    edge at row i is a cell's entry u, taking g in G_i to g - sign(delta_i) * u
    in G_{i+1}; each row's cells ascend by entry."""
    prefixes = [([], 0)]
    for cp, row, after in zip(doc["crucial_primes"], doc["cells"], doc["sum_graph"][1:]):
        s, after = (1 if cp["delta"] > 0 else -1), set(after)
        prefixes = [(pre + [cell["entry"]], x) for pre, owed in prefixes for cell in row
                    if (x := owed - s * cell["entry"]) in after]
    return [pre for pre, _ in prefixes]


def rebuild(doc: dict) -> dict:
    """The schema-1 document of the result whose schema-2 document is doc."""
    sols = solutions(doc)
    rows = [{cell["entry"]: cell for cell in row} for row in doc["cells"]]
    picked = [[row[u] for row, u in zip(rows, sol)] for sol in sols]  # per solution, its cells
    firsts = {tuple(col["solution"]): col["first_member"] for col in doc["columns"]}
    return {
        "n": doc["n"], "copies": doc["copies"], "digit_length": doc["digit_length"],
        "crucial_primes": doc["crucial_primes"],
        "solutions": sols,
        "case_table": [[row[sol[i]]["case"] for sol in sols] for i, row in enumerate(rows)],
        "constraint_table": [[{"A": row[sol[i]]["A"], "B": row[sol[i]]["B"]} for sol in sols]
                             for i, row in enumerate(rows)],
        "columns": [{"solution": sol,
                     "A": sorted({a for cell in cells for a in cell["A"]}),
                     "B": sorted({b for cell in cells for b in cell["B"]}),
                     "first_member": firsts.get(tuple(sol))} for sol, cells in zip(sols, picked)],
        "omega": doc["omega"], "omega0": doc["omega0"], "c": doc["c"],
        "nondegenerate": [col["solution"] for col in doc["columns"]],
        "case_vii_count": sum(cell["case"] == "vii" for cells in picked for cell in cells),
    }


def text(old: dict) -> str:
    """The schema-1 text of `vpal procedure`, from the schema-1 document."""
    primes = old["crucial_primes"]
    lines = [f"n = {old['n']}, copies = {old['copies']}, digit length = {old['digit_length']}",
             "crucial primes:"]
    lines += (f"  p={cp['p']}: a={cp['a']} b={cp['b']} delta={cp['delta']} mu={cp['mu']}" for cp in primes)
    if not old["solutions"]:
        lines.append("solutions: none (no concatenation is ever a v-palindrome)")
    else:
        lines.append("solutions: " + "  ".join(str(tuple(sol)) for sol in old["solutions"]))
        lines.append("case table (rows: primes / columns: solutions):")
        lines += (f"  p={cp['p']}: " + "  ".join(f"[{case}]" for case in row)
                  for cp, row in zip(primes, old["case_table"]))
        lines.append("constraint table:")
        lines += (f"  p={cp['p']}: " + "  ".join(f"(A={pair['A']}, B={pair['B']})" for pair in row)
                  for cp, row in zip(primes, old["constraint_table"]))
        lines.append("columns (accepted k: divisible by all of A, by none of B):")
        lines += (f"  {tuple(col['solution'])}: A={col['A']} B={col['B']} first accepted k = {col['first_member']}"
                  for col in old["columns"])
    lines.append(f"omega = {old['omega']}, omega0 = {old['omega0']}, c = {old['c'] or 'infinity'}")
    lines.append("nondegenerate solutions: "
                 + ("  ".join(str(tuple(sol)) for sol in old["nondegenerate"]) or "none"))
    return "\n".join(lines)


if __name__ == "__main__":
    old = rebuild(json.load(sys.stdin))
    print(text(old) if sys.argv[1:] == ["--text"] else json.dumps(old, indent=2))
