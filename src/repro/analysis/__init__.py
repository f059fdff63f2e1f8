"""Project-specific static analysis: the ``repro check`` rule engine.

The architecture invariants this package enforces live in prose in
ARCHITECTURE.md ("Enforced invariants") and in the minds of whoever
wrote the serving tier.  Prose does not fail CI; these rules do.  Each
rule is a small :class:`~repro.analysis.core.Rule` subclass walking
Python ASTs and emitting :class:`~repro.analysis.core.Finding` records
with a stable ``RPRxxx`` identifier:

========  ==========================================================
RPR001    lock discipline: attributes guarded by ``with self._lock``
          somewhere must never be mutated without it elsewhere
RPR003    atomic writes: index/label/shard persistence goes through
          ``repro.integrity`` staging, never bare ``open``/``np.save``
RPR004    counted-op purity: no wall clock inside counted kernels
          except the sanctioned ``repro.query.stats`` hooks, and no
          ``repro.obs`` import there
RPR005    exception discipline: no bare/silent broad excepts; pipe
          errors are types from ``repro.errors``
========  ==========================================================

A rule exists only where no test can reach the hazard.  The ids
RPR002 (protocol exhaustiveness), RPR006 (tracing surface) and RPR007
(deadline propagation) are retired: behavioural tests hold those
invariants (the mapping is ARCHITECTURE.md's "Enforced invariants").

The rule set is code, not configuration: each rule's scope is a
constant in the rule (the counted kernels are the one
:data:`~repro.analysis.core.KERNELS` tuple), the checked tree is
always the whole package ``repro check`` was imported from, and no
finding can be silenced -- it is fixed in the code or in the rule.
The CLI surface is ``repro check [--json]``.
"""

