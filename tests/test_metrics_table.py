"""Every metric the pipeline registers is documented in the metrics table.

The table in the :mod:`repro.obs.metrics` docstring is the one place a
reader learns what a metric name means.  This scan finds every literal
``counter("…")`` / ``gauge("…")`` / ``histogram("…")`` name under
``src/repro`` and fails on any the table does not list, so a new metric
cannot land undocumented.
"""

import re
from pathlib import Path

import repro
import repro.obs.metrics as metrics_module

SOURCE_ROOT = Path(repro.__file__).resolve().parent

REGISTRATION = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*[\"']([A-Za-z0-9_]+)[\"']"
)
TABLE_NAME = re.compile(r"``([A-Za-z0-9_]+)``")


def _documented() -> set[str]:
    doc = metrics_module.__doc__
    table = doc[doc.index("Metric names used by the pipeline") :]
    return set(TABLE_NAME.findall(table))


def _registered() -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in REGISTRATION.findall(text):
            found.setdefault(name, []).append(
                str(path.relative_to(SOURCE_ROOT))
            )
    return found


def test_scan_finds_the_pipeline_metrics():
    registered = _registered()
    # A scan that silently matched nothing would pass vacuously.
    for name in ("queries", "fetch_pool_high_water", "planning_us"):
        assert name in registered


def test_every_registered_metric_is_in_the_table():
    documented = _documented()
    missing = {
        name: files
        for name, files in _registered().items()
        if name not in documented
    }
    assert missing == {}, (
        "metrics registered but missing from the repro.obs.metrics "
        f"docstring table: {missing}"
    )
