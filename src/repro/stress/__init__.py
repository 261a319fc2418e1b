"""Million-user stress subsystem: scale the broker, measure the tails.

:func:`run_stress` ramps a broker to 10⁵–10⁶ live subscriptions over the
DBLP-style workload (:mod:`repro.workloads.dblp`) and reports p50/p95/p99
publish latency and delivery lag per phase (ramp, steady, burst, churn).
"""

from repro.stress.harness import StressConfig, run_stress

__all__ = ["StressConfig", "run_stress"]
