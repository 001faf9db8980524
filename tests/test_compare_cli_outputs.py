import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare_cli_outputs", ROOT / "tools" / "compare_cli_outputs.py")
compare_cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_cli_outputs)


@pytest.fixture
def compared(monkeypatch):
    # main puts bench/ on the import path; keep that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    calls = []
    monkeypatch.setattr(compare_cli_outputs, "compare", lambda *args: calls.append(args) or [])
    return calls


def test_every_workload_by_default(compared):
    assert compare_cli_outputs.main(["old", "new"]) == 0
    assert compared == [("old", "new", [1, 2, 3], ["smooth-mix", "measure-hires", "certify-project"])]


def test_workload_filter_runs_only_the_named_workloads(compared):
    argv = ["old", "new", "4", "--workload", "certify-project", "5", "--workload", "smooth-mix"]
    assert compare_cli_outputs.main(argv) == 0
    assert compared == [("old", "new", [4, 5], ["certify-project", "smooth-mix"])]


def test_unknown_workload_is_refused(compared, capsys):
    with pytest.raises(SystemExit) as exit_:
        compare_cli_outputs.main(["old", "new", "--workload", "certify"])
    assert exit_.value.code == 2 and compared == []
    err = capsys.readouterr().err
    assert "OLD_TREE NEW_TREE [SEED ...] [--workload NAME ...]" in err and "invalid choice" in err
