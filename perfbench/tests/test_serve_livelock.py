"""Why ``repro.serve`` is not a benchmark workload yet.

With scale 1e-4, 4 tenants x 150 open-loop requests at 5,000 req/s per
tenant, ``olap_fraction=0.1`` and ``queue_depth=1e6``, ``ServeLoop.run``
never returns for seed 2: the loop stalls at ``now - enqueued_at =
1999999.9999999963 < max_wait_ns = 2e6``, so ``_olap_triggered`` is
False while ``next_deadline`` returns ``now`` and ``self.now = max(now,
target)`` never advances. The reproduction runs in a child process under
a timeout; once the loop is fixed this test passes, strict xfail turns
that into a failure, and serve can become a workload.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REPRO = """
from repro import PushTapEngine
from repro.serve.loop import ServeConfig, ServeLoop

engine = PushTapEngine.build(scale=1e-4, seed=2)
config = ServeConfig(
    tenants=4,
    requests_per_tenant=150,
    arrival="open",
    rate_per_tenant=5000.0,
    olap_fraction=0.1,
    queue_depth=1_000_000,
    seed=2,
)
ServeLoop(engine, config).run()
"""

#: The same run with seed 1 returns after ~5 s on a 2-core host.
TIMEOUT_S = 30


@pytest.mark.xfail(
    strict=True,
    raises=subprocess.TimeoutExpired,
    reason="ServeLoop.run livelocks when max-wait rounding leaves now < deadline",
)
def test_serve_loop_returns():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-c", REPRO], env=env, timeout=TIMEOUT_S, check=True, capture_output=True
    )
