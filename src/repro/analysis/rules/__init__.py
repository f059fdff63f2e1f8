"""Rule registry: every shipped ``RPRxxx`` rule, in id order."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.atomicwrite import AtomicWriteRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.purity import CountedOpPurityRule

ALL_RULES: tuple[type[Rule], ...] = (
    LockDisciplineRule,
    AtomicWriteRule,
    CountedOpPurityRule,
    ExceptionDisciplineRule,
)

__all__ = ["ALL_RULES"]
