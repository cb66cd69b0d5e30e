"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownObjectError(EngineError):
    """An object label was used that the category does not contain."""


class UnknownMorphismError(EngineError):
    """A morphism name was used that the category does not contain."""


class MismatchError(EngineError):
    """Two pieces of data that must agree (endpoints, categories) do not."""


class SizeLimitError(EngineError):
    """A construction would exceed the configured morphism-count bound."""


class InvalidArtifactError(EngineError):
    """A constructor was handed data that fails its validator.

    Carries the offending :class:`~catmn.report.ValidationReport` (when one
    exists) as ``report``.
    """

    def __init__(self, message, report=None):
        if report is not None and report.violations:
            message = f"{message}\n{report.render()}"
        super().__init__(message)
        self.report = report


class LiftError(EngineError):
    """A unique-lift search found zero or several candidates."""

    def __init__(self, morphism, count):
        super().__init__(
            f"expected exactly one lift of morphism {morphism!r}, found {count}"
        )
        self.morphism = morphism
        self.count = count


class ExtremumError(EngineError):
    """A fiber lacks the extremal (initial or final) object a build needs."""

    def __init__(self, base_object, kind):
        super().__init__(f"fiber over {base_object!r} has no {kind} object")
        self.base_object = base_object
        self.kind = kind


class ParseError(EngineError):
    """A text or JSON artifact file could not be parsed."""

    def __init__(self, message, filename, line, column=1):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.filename = filename
        self.line = line
        self.column = column
