"""Run `braidforge.cli` with the benchmark's wrappers installed.

    python3 perfbench/trace_launch.py SPANS_FILE <braidforge cli arguments...>

The traced passes of cli-small start their children through this launcher.
The child keeps its spans in memory, writes them to SPANS_FILE when the
command returns and exits with the command's own code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer, install

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import braidforge.cli  # noqa: E402


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    installation = install(tracer)
    try:
        return braidforge.cli.main(argv)
    finally:
        installation.uninstall()
        spans_file.write_text(json.dumps({
            "spans": [s.to_json() for s in tracer.spans],
            "counters": dict(tracer.counters)}))


if __name__ == "__main__":
    sys.exit(main())
