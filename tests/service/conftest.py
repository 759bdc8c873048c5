"""Service-test fixtures: isolated metrics per test.

The server reports through the process-global metrics registry; these
tests assert absolute counter values, so each one starts from a fresh
registry (services constructed inside the test pick it up via
``get_metrics()``).
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry, set_metrics


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())
