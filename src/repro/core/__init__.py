"""Core contribution of the paper: cost model, sequences, expected-cost
evaluators, the Theorem 3 recurrence, Theorem 2 bounds, closed-form optima
and the Appendix C convex extension.

The package re-exports nothing: import from its submodules (``cost``,
``sequence``, ``expectation``, ``bounds``, ``recurrence``, ``optimal``,
``convex``, ``quantize``), or the public names from :mod:`repro`.  A
plan-cache shard needs only ``repro.core.cost`` and so loads nothing else.
"""
