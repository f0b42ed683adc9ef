"""Exception types shared across the package, and the one reader and the one
writer of files: both use UTF-8, whatever the locale."""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from pathlib import Path


class AutotunerError(Exception):
    """Base class for every error raised by this package.  Each type declares
    the exit code the CLI ends with when it stops the run (README table)."""
    exit_code = 1


_EVALUATOR_FAILURE = 14     # a bad cost model or command config, or an evaluator fault


class ParseError(AutotunerError):
    exit_code = 10

    def __init__(self, message: str, line: int, col: int, path: str = "<source>"):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.path = path


class ProfileError(AutotunerError):
    """Malformed profile file, or profile does not cover the loop tree."""
    exit_code = 11


class ModelError(AutotunerError):
    """Cost model is malformed or misses a loop/variable entry."""
    exit_code = _EVALUATOR_FAILURE


class InvalidGenome(AutotunerError):
    """Genome is not a 0/1 string of the gene length, or selects two nested loops."""


class EmptyGenome(AutotunerError):
    """No offloadable loops: the gene length would be zero."""
    exit_code = 13


class SpawnError(AutotunerError):
    """A command config is bad, or a trial could not be written or started."""
    exit_code = _EVALUATOR_FAILURE


class DomainError(AutotunerError):
    """Fitness requested for a non-positive measured time."""
    exit_code = _EVALUATOR_FAILURE


class OutputError(AutotunerError):
    """An output file (annotated source, report, JSON dump) cannot be written."""


class UsageError(AutotunerError):
    """A command-line option has a value outside its allowed range."""
    exit_code = 2   # argparse's own exit code for a bad command line


class Interrupted(AutotunerError):
    """The run was interrupted (SIGINT, as from Ctrl-C) before it ended."""
    exit_code = 130     # 128 + SIGINT, as a shell reports a command it stopped


def _quote(value) -> str:
    """repr(value) for a message, cut to 40 characters: a cut one ends in '...'."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _read_input(path, what: str, error: Callable[[str], AutotunerError], as_json: bool = True):
    """The text of an input file read as UTF-8, parsed as JSON when `as_json`;
    otherwise its line ends are kept as they are.  A file that cannot be
    opened, decoded or parsed raises `error`: ValueError covers a bad byte,
    bad JSON and an integer past Python's digit limit, and RecursionError a
    JSON value nested too deep."""
    try:
        with open(path, encoding="utf-8", newline=None if as_json else "") as file:
            text = file.read()
        return json.loads(text) if as_json else text
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def _write_output(path, text: str, error: Callable[[str], AutotunerError]):
    """Write text as UTF-8 to the file at `path`, or to standard output when
    `path` is None, whatever the locale's encoding.  A write that fails
    raises `error`."""
    try:
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
            sys.stdout.buffer.flush()
        else:
            sys.stdout.write(text)      # a text-only stream, such as io.StringIO
    except OSError as exc:
        raise error(f"cannot write {'standard output' if path is None else path}: {exc}") from exc
