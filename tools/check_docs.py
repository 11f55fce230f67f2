"""Validate documented CLI commands against the real argparse tree.

Scans README.md, EXPERIMENTS.md and docs/ARCHITECTURE.md for command lines
and checks each one *without executing anything*:

* ``repro ...`` / ``python -m repro ...`` lines inside fenced code blocks,
  and inline ``python -m repro ...`` spans, are parsed with
  :func:`repro.cli.build_parser` (argparse rejects unknown subcommands,
  flags and experiment names); positional dataset arguments are checked
  against the catalog.
* ``python -m repro.some.module`` spellings are resolved with
  :func:`importlib.util.find_spec`.
* ``python tools/script.py`` lines and inline file references
  (``tools/...``, ``docs/...``, ``src/...``, ``tests/...``) must exist on
  disk.
* every option of the ``serve`` subparser must be mentioned in README.md
  AND in the docs/OPERATIONS.md runbook — the serving front-end is
  configured entirely through its flags, so an undocumented flag is a docs
  bug — and every ``| `--flag` |`` row of the runbook's flag reference
  must be an option of that subparser.
* every out-of-core flag (``repro.cli.OOCORE_FLAGS``) must be registered on
  the ``run``, ``compare`` and ``bench`` subparsers and mentioned in both
  README.md and EXPERIMENTS.md (where the full-scale instructions live).
* every field the ``/stats`` payload can contain must appear backticked in
  the docs/OPERATIONS.md glossary, and every Prometheus family ``/metrics``
  can emit must appear backticked in its ``/metrics`` section — operators
  debug from those names.  Both lists are read from the counter
  declarations (:func:`repro.obs.counters.field_names` and
  :func:`~repro.obs.counters.family_names` of
  :class:`repro.serve.server.ServerStats`), the ones the server renders.
  The other direction holds too: each glossary bullet's leading name must
  be a declared field, and each row of the ``| family | type | `/stats`
  field |`` table a family ``/metrics`` can emit (the renamed-families
  table is history and is not checked).

Inline spans containing ``<`` are templates (``repro experiment <name>``)
and are skipped; fenced commands must be concrete.  Exits non-zero listing
every stale command or dead reference.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import build_parser  # noqa: E402
from repro.datasets.catalog import list_names  # noqa: E402

DOCS = ["README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "docs/OPERATIONS.md"]

_INLINE = re.compile(r"`([^`]+)`")
_ENV_ASSIGN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
_FILE_REF = re.compile(
    r"^(?:tools|docs|src|tests|examples|benchmarks)/[\w./-]+\.(?:py|md|json)$"
)


def _strip_env(tokens: list[str]) -> list[str]:
    """Drop leading ``NAME=value`` environment assignments."""
    while tokens and _ENV_ASSIGN.match(tokens[0]):
        tokens = tokens[1:]
    return tokens


def _is_command(tokens: list[str]) -> bool:
    if not tokens:
        return False
    if tokens[0] == "repro":
        return True
    if tokens[0] == "python" and len(tokens) >= 2:
        if tokens[1] == "-m":
            return len(tokens) >= 3 and (
                tokens[2] == "repro" or tokens[2].startswith("repro.")
            )
        return tokens[1].startswith("tools/")
    return False


def iter_candidates(text: str):
    """Yield (line number, command string) for every documented command."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            cmd = line.strip().removeprefix("$ ").split("#", 1)[0].strip()
            try:
                tokens = _strip_env(shlex.split(cmd)) if cmd else []
            except ValueError:
                continue  # prose with an apostrophe, not a command
            if tokens and _is_command(tokens):
                yield lineno, cmd
        else:
            for span in _INLINE.findall(line):
                span = span.strip()
                if any(marker in span for marker in "<…{"):
                    continue  # a template, not an invocation
                if _FILE_REF.match(span):
                    yield lineno, f"FILE {span}"
                    continue
                try:
                    tokens = _strip_env(shlex.split(span))
                except ValueError:
                    continue
                if tokens[:2] == ["python", "-m"] and _is_command(tokens):
                    yield lineno, span


def _check_parse(cli_args: list[str]) -> str | None:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(buf):
            args = build_parser().parse_args(cli_args)
    except SystemExit as exc:
        if exc.code not in (0, None):
            detail = buf.getvalue().strip().splitlines()
            return detail[-1] if detail else "does not parse"
        return None
    datasets = []
    if hasattr(args, "dataset"):
        datasets.append(args.dataset)
    datasets.extend(getattr(args, "datasets", None) or [])
    unknown = sorted(set(datasets) - set(list_names(None)))
    if unknown:
        return f"unknown dataset(s): {', '.join(unknown)}"
    return None


def check_command(cmd: str) -> str | None:
    """Return an error message for a bad command, or None if it is valid."""
    if cmd.startswith("FILE "):
        path = cmd.removeprefix("FILE ")
        return None if (ROOT / path).exists() else "referenced file does not exist"
    tokens = _strip_env(shlex.split(cmd))
    if tokens[0] == "repro":
        return _check_parse(tokens[1:])
    if tokens[1] == "-m":
        target = tokens[2]
        if target == "repro":
            return _check_parse(tokens[3:])
        try:
            spec = importlib.util.find_spec(target)
        except (ImportError, ModuleNotFoundError):
            spec = None
        return None if spec is not None else f"module {target} not found"
    script = ROOT / tokens[1]
    return None if script.exists() else f"script {tokens[1]} does not exist"


def _subparser_option_strings(command: str) -> list[str]:
    """Long option strings of one subparser (excluding --help)."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sub = subparsers.choices[command]
    return sorted(
        opt
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    )


def _serve_option_strings() -> list[str]:
    """Long option strings of the ``serve`` subparser (excluding --help)."""
    return _subparser_option_strings("serve")


def _section(text: str, heading: str) -> str:
    """The ``## heading`` section of a markdown text, up to the next one."""
    match = re.search(rf"^## {re.escape(heading)}.*?(?=^## |\Z)", text, re.M | re.S)
    return match.group(0) if match else ""


def _leading_names(lines, prefix: str) -> list[str]:
    """The backticked name opening each line that starts with ``prefix``."""
    names = []
    for line in lines:
        line = line.strip()
        if line.startswith(prefix + "`"):
            names.append(line[len(prefix) + 1:].split("`", 1)[0])
    return names


def _flag_rows(text: str) -> list[str]:
    """Flags named by the rows of OPERATIONS' flag reference tables."""
    return _leading_names(_section(text, "Flag reference").splitlines(), "| ")


def _glossary_names(text: str) -> list[str]:
    """Leading names of the ``/stats`` glossary's bullets."""
    return _leading_names(_section(text, "`/stats` field glossary").splitlines(), "- ")


def _family_rows(text: str) -> list[str]:
    """Families named by the ``| family | type | `/stats` field |`` table."""
    lines = _section(text, "`/metrics`").splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("| family |")), None)
    if start is None:
        return []
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 1:])
    return _leading_names(table, "| ")


def check_serve_flags() -> list[tuple[str, int, str, str]]:
    """Every serve flag must appear in README.md AND the operator runbook,
    and every flag row of the runbook must be a serve flag."""
    failures = []
    options = _serve_option_strings()
    for doc in ("README.md", "docs/OPERATIONS.md"):
        path = ROOT / doc
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        failures.extend(
            (doc, 0, f"serve flag {flag}", f"not documented in {doc}")
            for flag in options
            if flag not in text
        )
    runbook = ROOT / "docs/OPERATIONS.md"
    text = runbook.read_text(encoding="utf-8") if runbook.exists() else ""
    failures.extend(
        ("docs/OPERATIONS.md", 0, f"serve flag {flag}", "documented but not a serve option")
        for flag in _flag_rows(text)
        if flag not in options
    )
    return failures


def check_oocore_flags() -> list[tuple[str, int, str, str]]:
    """The out-of-core flags must exist on run/compare/bench AND be documented.

    ``repro.cli.OOCORE_FLAGS`` is the authoritative flag set; each flag must
    be registered on every out-of-core-capable subparser (so the CLI cannot
    silently drop one) and mentioned in README.md and EXPERIMENTS.md (the
    full-scale instructions live there).
    """
    from repro.cli import OOCORE_FLAGS

    failures = []
    for command in ("run", "compare", "bench"):
        options = _subparser_option_strings(command)
        failures.extend(
            (f"repro {command}", 0, f"oocore flag {flag}",
             f"not registered on the {command} subparser")
            for flag in OOCORE_FLAGS
            if flag not in options
        )
    for doc in ("README.md", "EXPERIMENTS.md"):
        path = ROOT / doc
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        failures.extend(
            (doc, 0, f"oocore flag {flag}", f"not documented in {doc}")
            for flag in OOCORE_FLAGS
            if flag not in text
        )
    return failures


def _documented(text: str) -> set[str]:
    """Backticked spans outside fenced blocks (fences would pair backticks
    across lines)."""
    documented = set()
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            documented.update(_INLINE.findall(line))
    return documented


def check_stats_glossary() -> list[tuple[str, int, str, str]]:
    """Every ``/stats`` field and ``/metrics`` family must be in OPERATIONS.

    Field names must appear backticked anywhere in docs/OPERATIONS.md (the
    glossary); family names backticked in its ``/metrics`` section.
    """
    from repro.obs.counters import family_names, field_names
    from repro.serve.server import ServerStats

    path = ROOT / "docs/OPERATIONS.md"
    if not path.exists():
        return []  # the missing file is already reported by main()
    text = path.read_text(encoding="utf-8")
    glossary = _documented(text)
    metrics_section = re.search(r"^## `/metrics`.*?(?=^## )", text, re.M | re.S)
    exported = _documented(metrics_section.group(0)) if metrics_section else set()
    failures = [
        ("docs/OPERATIONS.md", 0, f"/stats field {name}", "missing from the glossary")
        for name in sorted(field_names(ServerStats))
        if name not in glossary
    ]
    failures += [
        ("docs/OPERATIONS.md", 0, f"/metrics family {name}", "missing from the /metrics section")
        for name in family_names(ServerStats)
        if name not in exported
    ]
    failures += [
        ("docs/OPERATIONS.md", 0, f"/stats field {name}", "in the glossary but not declared")
        for name in _glossary_names(text)
        if name not in field_names(ServerStats)
    ]
    failures += [
        ("docs/OPERATIONS.md", 0, f"/metrics family {name}", "in the table but not emitted")
        for name in _family_rows(text)
        if name not in family_names(ServerStats)
    ]
    return failures


def main() -> int:
    failures = []
    checked = 0
    for doc in DOCS:
        path = ROOT / doc
        if not path.exists():
            failures.append((doc, 0, doc, "documentation file missing"))
            continue
        for lineno, cmd in iter_candidates(path.read_text(encoding="utf-8")):
            checked += 1
            error = check_command(cmd)
            if error is not None:
                failures.append((doc, lineno, cmd, error))
    failures.extend(check_serve_flags())
    checked += 2 * len(_serve_option_strings())
    from repro.cli import OOCORE_FLAGS

    failures.extend(check_oocore_flags())
    checked += 5 * len(OOCORE_FLAGS)
    from repro.obs.counters import family_names, field_names
    from repro.serve.server import ServerStats

    failures.extend(check_stats_glossary())
    checked += len(field_names(ServerStats)) + len(family_names(ServerStats))
    runbook = ROOT / "docs/OPERATIONS.md"
    text = runbook.read_text(encoding="utf-8") if runbook.exists() else ""
    checked += sum(len(rows(text)) for rows in (_flag_rows, _glossary_names, _family_rows))
    for doc, lineno, cmd, error in failures:
        print(f"{doc}:{lineno}: {cmd!r}: {error}", file=sys.stderr)
    status = "FAILED" if failures else "ok"
    print(f"check_docs: {checked} documented commands/references checked, "
          f"{len(failures)} stale ({status})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
