"""hostbench — the second clock.

The library under ``src/repro`` simulates a GPU and gates *simulated*
time in its ``BENCH_*.json`` files.  This package measures the other
clock: the host wall time a user, the test suite and CI actually wait
on — end to end for five workloads, and layer by layer in a separate
traced run — beside the simulated statistics of the same laps.

Everything is observed from outside: the workloads drive the library's
public entry points and the tracer wraps public attributes at run time,
so nothing under ``src/`` knows this package exists.  See ``README.md``.
"""
