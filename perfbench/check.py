"""Answer checks and money invariants.

Expected answers come from ``repro.testing.oracle_evaluate`` (the
reference engine over full copies of the market tables).  They are
computed before anything is timed, in a child process: the oracle copies
every table it reads for every query, and doing that in the measured
process would put its memory into ``peak_rss_mb``.  The child is a plain
``python3 perfbench/check.py`` that the parent waits for; a
multiprocessing pool would leave its helper processes behind.

Floats are compared with ``math.isclose(rel_tol=1e-9)``: the vectorized
engine and the reference oracle sum in different orders, so aggregates may
differ in the last digits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

REL_TOL = 1e-9
#: How long the child computing the expected answers may take.
ORACLE_TIMEOUT_S = 600
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Run artefacts (WAL directories, trace dumps, expected answers).
OUT_DIR = ROOT / ".perfbench_out"


def _sort_key(row: tuple) -> tuple:
    # Rounded floats keep rows that differ only in the last digits in the
    # same order on both sides.
    return tuple(
        (type(value).__name__, round(value, 6) if isinstance(value, float)
         else value)
        for value in row
    )


def canonical(rows) -> list[tuple]:
    return sorted((tuple(row) for row in rows), key=_sort_key)


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    """Whether two canonical row lists are equal up to float rounding."""
    if len(got) != len(want):
        return False
    for row, expected in zip(got, want):
        if len(row) != len(expected):
            return False
        for value, other in zip(row, expected):
            if isinstance(value, float) or isinstance(other, float):
                if not isinstance(value, (int, float)) or not isinstance(
                    other, (int, float)
                ):
                    return False
                if not math.isclose(value, other, rel_tol=REL_TOL):
                    return False
            elif value != other:
                return False
    return True


def _oracle_answers(workload: str, seed: int) -> list:
    # Runs in the child: rebuild the same inputs from the seed.
    from perfbench.workloads import WORKLOADS
    from repro.testing import oracle_evaluate

    inputs = WORKLOADS[workload](seed)
    payless = inputs.oracle_installation()
    return [
        (sql, params, canonical(oracle_evaluate(payless, sql, params).rows))
        for sql, params in inputs.distinct_queries()
    ]


def _cache_path(workload) -> Path:
    """Where the answers for this query set and this ``src/`` live.

    The key hashes the workload's queries and every source file of the
    program, so answers computed by other code are never reused.
    """
    digest = hashlib.sha256(
        json.dumps([workload.name, workload.distinct_queries()]).encode()
    )
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return OUT_DIR / f"expected_{workload.name}_{digest.hexdigest()[:16]}.json"


def expected_answers(workload, seed: int) -> dict:
    """``{(sql, params): canonical rows}`` for every query of ``workload``.

    The seed only orders the queries, so the answers of a query set are
    the same for every seed: they are computed in a child process the
    first time and read back from ``.perfbench_out/`` afterwards.
    """
    path = _cache_path(workload)
    if not path.exists():
        OUT_DIR.mkdir(exist_ok=True)
        partial = path.with_suffix(".tmp")
        # run() waits for the child, and kills and reaps it on a timeout.
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             workload.name, str(seed), str(partial)],
            check=True,
            timeout=ORACLE_TIMEOUT_S,
        )
        os.replace(partial, path)
    return {
        (sql, tuple(params)): [tuple(row) for row in rows]
        for sql, params, rows in json.loads(path.read_text())
    }


def settle(result, expected: dict) -> None:
    """Check every answer of a finished pass, then drop the rows.

    Runs between passes, outside the timed window; dropping the rows (and
    each query's metrics snapshot) keeps the benchmark's bookkeeping out
    of ``peak_rss_mb``.
    """
    for outcome in result.outcomes:
        if outcome.error is not None:
            outcome.problem = f"raised {outcome.error}"
        elif not outcome.stats.complete:
            outcome.problem = "partial result"
        elif not rows_match(
            canonical(outcome.rows), expected[(outcome.sql, outcome.params)]
        ):
            outcome.problem = "answer differs from the oracle"
        if outcome.rows is not None:
            outcome.result_rows = len(outcome.rows)
            outcome.rows = None
        if outcome.stats is not None:
            outcome.stats = dataclasses.replace(outcome.stats, metrics={})


def ledger_problems(payless, stats_price: float) -> list[str]:
    """Money invariants of one installation after its queries ran."""
    problems = []
    ledger = payless.market.ledger
    spent = ledger.spent.price
    if not math.isclose(spent, stats_price, rel_tol=REL_TOL, abs_tol=1e-9):
        problems.append(
            f"ledger spent ${spent:g} but queries report ${stats_price:g}"
        )
    urls = Counter(entry.request.url() for entry in ledger)
    twice = [url for url, count in urls.items() if count > 1]
    if twice:
        problems.append(f"{len(twice)} URLs billed more than once: {twice[0]}")
    return problems


if __name__ == "__main__":
    # python3 perfbench/check.py WORKLOAD SEED OUT: write the expected
    # answers of WORKLOAD's queries to OUT as JSON.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    name, seed, out = sys.argv[1:]
    Path(out).write_text(json.dumps(_oracle_answers(name, int(seed))))
