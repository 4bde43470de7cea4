"""Regenerate bench/expected.json from the current library.

    python3 bench/record_expected.py

Records the stdout digest of every CLI task and the bounded-word trace set
of every unconjugated generating set.  Run it only when an output is meant
to change; the benchmark compares every run against this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import CLI_CASES, CLOSURE_SETS, EXPECTED_PATH, run_cli  # noqa: E402
from hitchinforge import modp  # noqa: E402


def main() -> None:
    counters: dict = defaultdict(int)
    digests = {}
    for workload, cases in CLI_CASES.items():
        for tid, (argv, code) in cases.items():
            got, data, _ = run_cli(argv, counters)
            if got != code:
                raise SystemExit(f"{workload}/{tid} exited {got}, expected {code}")
            digests[f"{workload}/{tid}"] = hashlib.sha256(data).hexdigest()
    word_traces = {
        name: sorted(str(t) for t in modp.trace_set(build(), word_length=length))
        for name, (_, _, _, build, length, _) in CLOSURE_SETS.items()
    }
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    expected.update(cli_stdout_sha256=digests, word_traces=word_traces)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
