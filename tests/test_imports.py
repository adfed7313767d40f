"""Importing starkit stays light: no module pulls in `dataclasses` or
`inspect`, which took about twice as long to import as the rest of
`import starkit`."""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import starkit, starkit.cli, starkit.corpus, starkit.atlas, starkit.multi
import starkit.transport
added = set(sys.modules) - before
print(json.dumps(sorted(added & {{"dataclasses", "inspect"}})))
"""


def test_import_loads_no_dataclasses_or_inspect():
    # -S: no site module, so nothing outside starkit loads either first
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
