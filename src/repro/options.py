"""Values the ``repro`` command-line options are built from.

The parser is built by every command, so what it reads must cost
nothing to import: this module imports nothing.  The library reads
the same names from here (the planner, :class:`~repro.engine.QueryEngine`,
the serving protocol), so each value is defined once.
"""

#: Deterministic tie-break / iteration order of plannable backends.
PLANNABLE = ("silc", "labels", "ine")

#: Backend names accepted everywhere a caller selects an oracle
#: (engine ctor, ``Request.oracle``, the ``--oracle`` CLI flag).
#: ``auto`` routes each query through the cost-based planner.
ORACLE_CHOICES = ("auto", *PLANNABLE)

#: Default bound on :class:`~repro.engine.QueryEngine`'s cache of
#: resolved locations (``serve --max-locations``).
DEFAULT_MAX_LOCATIONS = 4096
