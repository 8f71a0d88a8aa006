"""The comparison behind scripts/cli_diff.py, on two small trees."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_diff.py"
spec = importlib.util.spec_from_file_location("cli_diff", SCRIPT)
cli_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_diff)


def write(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_identical_trees_have_no_difference(tmp_path):
    files = {"out/a.csv": b"x,y\n1,2\n", "log/run.code": b"0\n", "log/run.stderr": b""}
    assert cli_diff.compare_trees(write(tmp_path / "p", files),
                                  write(tmp_path / "c", files)) == []


def test_every_kind_of_difference_is_reported(tmp_path):
    parent = write(tmp_path / "p", {
        "out/same.csv": b"1\n", "out/text.csv": b"x\n1\n", "out/blob.bin": b"\xff\x00",
        "log/gone.code": b"0\n", "log/run.code": b"0\n",
    })
    change = write(tmp_path / "c", {
        "out/same.csv": b"1\n", "out/text.csv": b"x\n2\n", "out/blob.bin": b"\xff\x01",
        "log/new.code": b"0\n", "log/run.code": b"2\n",
    })
    diffs = cli_diff.compare_trees(parent, change)
    assert diffs[0] == "only in parent: log/gone.code"
    assert diffs[1] == "only in change: log/new.code"
    assert diffs[2].splitlines() == ["--- parent/log/run.code", "+++ change/log/run.code",
                                     "@@ -1 +1 @@", "-0", "+2"]
    assert diffs[3] == "bytes differ: out/blob.bin"
    assert diffs[4].splitlines()[-2:] == ["-1", "+2"]
    assert len(diffs) == 5


def test_command_labels_are_unique():
    # Each label names a command's log files; a repeated one would overwrite them.
    labels = [label for label, _ in cli_diff.commands()]
    assert len(labels) == len(set(labels))
