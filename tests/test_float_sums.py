"""Float sums whose bits no interpreter changes.

CPython 3.12 made ``sum()`` of floats compensated (Neumaier), so a float
``sum()`` on a result path rounds differently there than on 3.10 and 3.11.
The package adds floats left to right from 0.0 with ``scheduler.left_sum``
and the oracles with ``conftest.ordered_sum``, the order 3.11's ``sum()``
takes. The ``sum_312`` fixture emulates 3.12's ``sum()`` on any interpreter
and puts it in place of the builtin, either in the package's modules or in
the oracles'; the pinned digests and the scoring and apportionment oracles
must hold either way."""
import ast
import math
import pathlib

import conftest
import pytest
import test_harness
import test_reports_cli
import test_scheduler

from qroute import harness, metrics, scheduler

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qroute"

#: every sum() call in the package, as written; each adds ints only
INT_SUMS = {
    ("harness.py", "sum(record.params.k * record.params.f_min < r.demand for r in record.requests)"),
    ("harness.py", "sum(map(_uncovered_requests, records))"),
    ("harness.py", "sum(count for _, count in per_seed)"),
    ("pathfinder.py", "sum(1 << node for node in prev[:deviation])"),
    ("scheduler.py", "sum(base)"),
    ("scheduler.py", "sum(map(f_max.__getitem__, ids))"),
    ("scheduler.py", "sum(f_max[p] - f_min for p in top)"),
}


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()``: ints add exactly until the first float, then
    each float adds with Neumaier's compensation, which joins the total at
    the end when it is finite."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    if type(total) is float and c and math.isfinite(c):
        total += c
    return total


@pytest.fixture(params=["package", "oracles"])
def sum_312(request, monkeypatch):
    """3.12's ``sum()`` in ``qroute.metrics``, ``qroute.scheduler`` and
    ``qroute.harness``, or in the oracles of ``conftest``."""
    assert compensated_sum([0.1] * 10) == 1.0 and compensated_sum(range(5)) == 10
    modules = (metrics, scheduler, harness) if request.param == "package" else (conftest,)
    for module in modules:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_pinned_digests_hold_under_312_sum(sum_312, tmp_path):
    test_reports_cli.test_cli_outputs_match_pinned_digests(tmp_path)


def test_scoring_oracles_hold_under_312_sum(sum_312):
    test_scheduler.test_cores_match_keyed_references_on_random_windows()
    for mode in ("edge", "node"):
        test_harness.test_degraded_outcome_evaluates_on_failed_network(mode)


def test_apportionment_oracles_hold_under_312_sum(sum_312, monkeypatch):
    test_scheduler.test_key_based_rules_match_entry_based_references()
    test_scheduler.test_tied_weights_apportion_in_closed_form(monkeypatch)


def test_package_sums_only_ints():
    # a new float sum() would round differently on 3.12: add it with left_sum
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "sum":
                found.add((path.name, ast.get_source_segment(text, node)))
    assert sorted(found - INT_SUMS) == [] and sorted(INT_SUMS - found) == []
