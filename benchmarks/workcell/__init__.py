"""Workcell benchmark over the checked-out ``workbot`` sources.

Modules
-------
inputs   seeded workload inputs (sim generators, own PDDL text) and the
         bundled-data reference tasks
tasks    the timed closed-loop tasks and their output checks
oracles  checks that share no code with the library under test
tracing  in-memory spans around library calls, wrapped from outside
metrics  percentiles, per-layer aggregation and the result record
"""
