"""The docs check that CI runs, as a tier-1 test.

``tools/check_docs.py`` parses every documented command against the real
CLI and checks the serve flags, ``/stats`` fields and ``/metrics``
families in both directions, so a stale runbook row fails here too.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def test_documented_commands_and_counters_match_the_program():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    assert check_docs.main() == 0
