"""The repo's benchmark harness (driven by ``bench/run.py``).

Modules, in the order a run uses them:

* :mod:`silcbench.workloads` -- the four traffic mixes and their
  seeded request lists;
* :mod:`silcbench.data` -- set-up phases (``repro generate`` /
  ``build`` / ``build-labels`` / ``serve``-to-ready) as cold CLI
  processes timed from outside, and the server process handle;
* :mod:`silcbench.loadgen` -- the closed-loop client and the
  floor estimators;
* :mod:`silcbench.verify` -- Dijkstra ground truth and reply checking;
* :mod:`silcbench.ladder` -- the traced run: one in-process replay per
  layer boundary, micro-probes, benchmark-owned spans.

Nothing here patches or imports private names of ``src/repro``.
"""
