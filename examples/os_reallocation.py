#!/usr/bin/env python
"""Run-time core reallocation over a job stream (paper section 8).

The paper closes by envisioning run-time software that grows and
shrinks processors as threads arrive and depart.  This example measures
real cores->performance curves for a few benchmarks on the simulator
(the figure-6 methodology), then drives the analytical reallocation
controller over a bursty job stream under three disciplines:

* composable (CLP): optimal asymmetric allocation, re-solved per event;
* symmetric: equal-size processors, granularity re-chosen per event;
* fixed CMP-4: conventional fixed-granularity silicon with a FIFO queue.

Run:  python examples/os_reallocation.py
"""

from repro.harness import format_table, run_edge_benchmark
from repro.sched import Job, ReallocationController, SpeedupTable


BENCHES = ["conv", "ct", "mcf", "dither"]
SIZES = (1, 2, 4, 8, 16, 32)


def measure_curves() -> SpeedupTable:
    print("measuring cores->performance curves on the simulator ...")
    perf = {}
    for name in BENCHES:
        perf[name] = {n: run_edge_benchmark(name, ncores=n).performance
                      for n in SIZES}
    return SpeedupTable(perf=perf)


def job_stream() -> list[Job]:
    """A bursty arrival pattern: a long job, then a burst, then stragglers."""
    stream = [Job("J0", "conv", arrival=0.0, work=3.0)]
    for i, bench in enumerate(["ct", "mcf", "dither", "ct", "mcf"]):
        stream.append(Job(f"J{i+1}", bench, arrival=0.5, work=1.0))
    stream.append(Job("J6", "conv", arrival=2.0, work=1.5))
    stream.append(Job("J7", "dither", arrival=2.5, work=0.5))
    return stream


def main() -> None:
    table = measure_curves()
    rows = []
    for policy, kwargs in (("composable", {}),
                           ("symmetric", {}),
                           ("fixed CMP-4", {"policy": "fixed", "granularity": 4})):
        controller = ReallocationController(
            table, policy=kwargs.get("policy", policy),
            granularity=kwargs.get("granularity", 4))
        result = controller.run(job_stream())
        rows.append([policy, round(result.makespan, 2),
                     round(result.mean_turnaround, 2),
                     round(result.mean_slowdown, 2),
                     f"{result.utilization:.0%}"])
    print(format_table(
        ["policy", "makespan", "mean turnaround", "mean slowdown", "core util"],
        rows, title="8-job bursty stream on a 32-core chip"))

    # Show the composable trace: allocations change at every event.
    controller = ReallocationController(table, policy="composable")
    result = controller.run(job_stream())
    print("\ncomposable allocation trace (time: job=cores ...):")
    for event in result.trace[:10]:
        grants = " ".join(f"{j}={k}" for j, k in sorted(event.running.items()))
        wait = f"  (waiting: {', '.join(event.waiting)})" if event.waiting else ""
        print(f"  t={event.time:5.2f}  {grants}{wait}")


if __name__ == "__main__":
    main()
