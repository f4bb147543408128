import json

import numpy as np
import pytest

from golden_cases import CASES, GOLDEN, record

GOLDEN_ENTRIES = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN_ENTRIES) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_reproduces_its_golden_entry(name):
    want, got = GOLDEN_ENTRIES[name], record(name)
    assert got["sha256"] == want["sha256"]
    assert got["spg_iterations"] == want["spg_iterations"]
    for trace in ("objective_trace", "report_trace"):
        a, b = np.asarray(got[trace]), np.asarray(want[trace])
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))
