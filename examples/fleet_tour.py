#!/usr/bin/env python3
"""Fleet tour: from one simulated drive to a datacenter population.

The paper evaluates RiF on a single drive; a datacenter sees thousands,
no two alike — different wear, data ages, workloads, and the occasional
flaky die.  This tour walks the fleet service end to end:

1. describe a heterogeneous population declaratively (content-hashed,
   so two hosts generating it agree bit for bit),
2. simulate the whole fleet as one scheduler-backed campaign — then do
   it again on a process pool and watch the rollup match *exactly*,
3. read the per-policy tail out of the fleet aggregate, and
4. judge the population against the built-in SLOs.

Run:  python examples/fleet_tour.py
"""

from repro.fleet import FleetSpec, generate_population, run_fleet
from repro.obs.slo import default_slos, evaluate_fleet


def main() -> None:
    fleet = FleetSpec(
        n_drives=12,
        seed=42,
        policies=("SENC", "RiFSSD"),     # paired round-robin comparison
        pe_cycles_range=(0.0, 2500.0),   # young drives next to worn ones
        retention_days_range=(5.0, 60.0),
        temp_c_range=(28.0, 55.0),       # cool aisles and hot chassis
        fault_rate=0.25,                 # a quarter of the drives misbehave
        n_requests=40, user_pages=1500, queue_depth=8,
    )
    print(f"1. The population: {fleet.label()}  "
          f"(hash {fleet.content_hash()[:12]})")
    print(f"{'id':>4} {'workload':<8} {'policy':<8} {'P/E':>6} "
          f"{'age(d)':>7} {'temp':>6} faulty")
    for drive in generate_population(fleet)[:6]:
        print(f"{drive.drive_id:>4} {drive.workload:<8} {drive.policy:<8} "
              f"{drive.pe_cycles:>6.0f} {drive.retention_days:>7.1f} "
              f"{drive.temp_c:>5.1f}C {'yes' if drive.fault_plan else 'no'}")
    print("   ... every drive a pure function of (fleet seed, drive id)\n")

    print("2. Simulate the fleet — serial, then on two workers")
    serial = run_fleet(fleet)
    pooled = run_fleet(fleet, jobs=2)
    identical = serial.rollup() == pooled.rollup()
    print(f"   serial:   {serial.executed} drives simulated")
    print(f"   jobs=2:   {pooled.executed} drives simulated")
    print(f"   rollups bit-identical: {identical}  "
          "(spec-order observation, fully seeded cells)\n")
    assert identical

    print("3. The fleet's read tail, per policy")
    print(f"{'policy':<8} {'drives':>7} {'reads':>8} {'retry%':>8} "
          f"{'p50 us':>9} {'p99 us':>9} {'p99.9 us':>9}")
    for row in serial.aggregator.policy_summary():
        print(f"{row['policy']:<8} {row['cells']:>7} {row['reads']:>8} "
              f"{100.0 * row['retry_rate']:>7.2f}% {row['p50_us']:>9.1f} "
              f"{row['p99_us']:>9.1f} {row['p999_us']:>9.1f}")
    print()

    print("4. SLO verdicts over the population")
    for report in evaluate_fleet(serial.aggregator, default_slos()):
        status = "PASS" if report.passed else "FAIL"
        print(f"   {status}  {report.subject:<8} vs {report.slo}")
    print("\nScale the same spec to thousands of drives with "
          "`python -m repro fleet run --jobs N --ledger DIR` — the ledger "
          "makes it\ncrash-resumable with, again, a bit-identical rollup.")


if __name__ == "__main__":
    main()
