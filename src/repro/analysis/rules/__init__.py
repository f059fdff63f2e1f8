"""Rule registry: every shipped ``RPRxxx`` rule, in id order."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.atomicwrite import AtomicWriteRule
from repro.analysis.rules.deadline import DeadlinePropagationRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.protocol import ProtocolExhaustivenessRule
from repro.analysis.rules.purity import CountedOpPurityRule
from repro.analysis.rules.tracing import TracingNoOpRule

ALL_RULES: tuple[type[Rule], ...] = (
    LockDisciplineRule,
    ProtocolExhaustivenessRule,
    AtomicWriteRule,
    CountedOpPurityRule,
    ExceptionDisciplineRule,
    TracingNoOpRule,
    DeadlinePropagationRule,
)

__all__ = [
    "ALL_RULES",
    "AtomicWriteRule",
    "CountedOpPurityRule",
    "DeadlinePropagationRule",
    "ExceptionDisciplineRule",
    "LockDisciplineRule",
    "ProtocolExhaustivenessRule",
    "TracingNoOpRule",
]
