"""``GatewayConfig`` refuses a timing its gateway cannot run on, when
it is built: a zero liveness interval would spin the monitor on a core,
and a zero start or proxy timeout would fail every worker and request.
"""

import pytest

from repro.gateway import GatewayConfig

from ..helpers import parse_table

TIMINGS = """
  field                  | value | accepted
  -----------------------+-------+---------
  liveness_interval_s    |     0 | no
  liveness_interval_s    | -0.25 | no
  liveness_interval_s    |  0.25 | yes
  worker_start_timeout_s |     0 | no
  worker_start_timeout_s |    -1 | no
  worker_start_timeout_s |    30 | yes
  proxy_timeout_s        |     0 | no
  proxy_timeout_s        |    -1 | no
  proxy_timeout_s        |    90 | yes
"""

TIMING_ROWS = parse_table(TIMINGS)


@pytest.mark.parametrize(
    "row", TIMING_ROWS,
    ids=[f"{r['field']}={r['value']}" for r in TIMING_ROWS])
def test_timing_is_checked_when_built(row):
    field, value = row["field"], float(row["value"])
    if row["accepted"] == "yes":
        assert getattr(GatewayConfig(**{field: value}), field) == value
    else:
        with pytest.raises(ValueError, match=field):
            GatewayConfig(**{field: value})
