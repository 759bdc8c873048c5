"""Per-level miss penalties for the profitability tests.

Section 6.4's prediction claim is tested against the analytic predictor
in ``tests/model/test_predictor.py::TestSection64Claims``.
"""

import pytest

from repro import ultrasparc_i
from repro.analysis.costmodel import MissCostModel


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


class TestMissCostModel:
    def test_from_hierarchy(self, hier):
        m = MissCostModel.from_hierarchy(hier)
        assert m.l1_miss_cost == hier.l2.hit_cycles
        assert m.l2_miss_cost == hier.memory_cycles

    def test_weighted(self):
        m = MissCostModel(l1_miss_cost=2.0, l2_miss_cost=10.0)
        assert m.weighted(5, 3) == 40.0

