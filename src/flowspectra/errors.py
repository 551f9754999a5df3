"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 1,
ConvergenceError -> 2, ConfigError (and I/O failures) -> 3.
"""
from __future__ import annotations


class FlowspectraError(Exception):
    """Base class for all package errors.

    `index` is the position of the offending matrix when the error is about
    one matrix of a stack, else None.
    """

    def __init__(self, *args: object, index: int | None = None) -> None:
        super().__init__(*args)
        self.index = index


class DataError(FlowspectraError):
    """Invalid or inconsistent input data."""


class ConvergenceError(FlowspectraError):
    """An iterative numerical routine failed to converge."""

    def __init__(self, message: str, *, residual: float | None = None,
                 iterations: int | None = None, index: int | None = None) -> None:
        super().__init__(message, index=index)
        self.residual = residual
        self.iterations = iterations


class ConfigError(FlowspectraError):
    """Bad configuration, mapping, or command-line usage."""
