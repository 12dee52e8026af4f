"""Reference implementations the suite checks the library against.

Lamport, vector and matrix clocks (DESIGN.md S2): the happened-before
oracle (:class:`tests.oracles.vector.Causality`) that causal chains,
trackability checks and reference TDVs are validated against; the
list-of-bools BHMR family (:mod:`tests.oracles.bhmr`) that the library's
row-bitset one is run against; and the id-table R-graph builder
(:mod:`tests.oracles.rgraph`) that the offset-numbered one is run
against.  Nothing under ``src/`` runs them, so they live with the tests;
``tools/lint_imports.py`` keeps test-only code from drifting back.
"""
