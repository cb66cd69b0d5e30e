"""Validation reports: deterministic lists of axiom violations.

Validators in this package never raise on bad mathematics; they return a
report listing every violated axiom instance with enough names to find it.
An empty report means the artifact passed.  Reports are sorted so that the
rendered text is byte-identical run to run regardless of discovery order.
A report keeps the first :data:`MAX_PER_RULE` violations of each rule, in
that order, and counts the rest, so a table missing every entry still gives
a report of bounded size.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field

# the most violations of one rule a report keeps; the rest are only counted
MAX_PER_RULE = 100


@dataclass(frozen=True, order=True)
class Violation:
    """One violated axiom instance.

    ``rule`` is a stable machine-readable tag, ``subject`` names the
    witnesses (objects or morphisms), ``detail`` is for humans.
    """

    rule: str
    subject: tuple[str, ...]
    detail: str

    def render(self) -> str:
        where = ", ".join(self.subject)
        return f"{self.rule} [{where}]: {self.detail}"


class ValidationReport:
    """Immutable, sorted collection of violations plus informational notes.

    Of each rule, the first :data:`MAX_PER_RULE` violations in sorted order
    are kept; ``omitted`` counts the others.  Notes never affect emptiness;
    they record things like vacuously true implications.
    """

    __slots__ = ("violations", "notes", "omitted")

    def __init__(self, violations=(), notes=(), omitted: int = 0):
        by_rule: dict[str, list[Violation]] = {}
        for v in violations:
            by_rule.setdefault(v.rule, []).append(v)
        kept: list[Violation] = []
        for rule in sorted(by_rule):
            found = by_rule[rule]
            if len(found) > MAX_PER_RULE:
                omitted += len(found) - MAX_PER_RULE
                kept.extend(heapq.nsmallest(MAX_PER_RULE, found))
            else:
                kept.extend(sorted(found))
        self.violations: tuple[Violation, ...] = tuple(kept)
        self.notes: tuple[str, ...] = tuple(notes)
        self.omitted = omitted

    @property
    def ok(self) -> bool:
        return not self.violations

    def merged(self, *others: "ValidationReport") -> "ValidationReport":
        violations = list(self.violations)
        notes = list(self.notes)
        omitted = self.omitted
        for other in others:
            violations.extend(other.violations)
            notes.extend(other.notes)
            omitted += other.omitted
        return ValidationReport(violations, notes, omitted)

    def render(self) -> str:
        lines = [v.render() for v in self.violations]
        if self.omitted:
            lines.append(
                f"... and {self.omitted} more violations, not shown "
                f"(at most {MAX_PER_RULE} of each rule are)"
            )
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) if lines else "ok"

    def __eq__(self, other):
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return (self.violations, self.notes, self.omitted) == (
            other.violations,
            other.notes,
            other.omitted,
        )

    def __repr__(self):
        return (
            f"ValidationReport(violations={len(self.violations)}, notes={len(self.notes)}, "
            f"omitted={self.omitted})"
        )


def report_field():
    """The private field a frozen artifact keeps its validation report in.

    It is left out of ``__init__``, equality and ``repr``, so a
    ``dataclasses.replace`` copy is a new value that starts without one.
    """
    return field(default=None, init=False, compare=False, repr=False)


def remembered(validator):
    """Make ``validator`` prove each frozen value once.

    The first call stores the report in the value's ``_report`` field (see
    :func:`report_field`); later calls on the same value return it.  The
    value's fields cannot be reassigned, but ``frozen`` is shallow: the dicts
    and categories they hold could still be edited in place, and the stored
    report would then be stale.  So a value must not be changed in place once
    it has been validated; ``dataclasses.replace`` makes a changed copy, which
    is checked afresh.
    """

    @functools.wraps(validator)
    def check(value) -> ValidationReport:
        report = value._report
        if report is None:
            report = validator(value)
            object.__setattr__(value, "_report", report)
        return report

    return check
