"""Run one gitstab CLI command under the benchmark's tracer.

    python3 [-X importtime] perfbench/child.py spans|counts OUT.json -- ARGS...

does what `python3 -m gitstab ARGS...` does, with tracer.py's wrappers
installed after the import, and writes to OUT.json when the command ends:
the clock reading at the first line of this script (so the parent can take
interpreter start-up as that minus its own reading before the spawn; both
use the system-wide monotonic clock), the time `import gitstab.cli` took, and
the tracer's self times, call counts and tallies.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    mode, out_path, sep, *argv = sys.argv[1:]
    if mode not in ("spans", "counts") or sep != "--":
        print("usage: child.py spans|counts OUT.json -- ARGS...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import gitstab.cli

    import_s = time.perf_counter() - t0
    import tracer

    tr = tracer.Tracer(spans=mode == "spans")
    tr.install()
    try:
        return tr.span(tracer.OP, gitstab.cli.main, argv)
    finally:
        tr.uninstall()
        summary = {
            "t_start": T_START,
            "import_s": import_s,
            "self_s": tr.self_times(),
            "calls": tr.calls,
            "tally": tr.tally,
        }
        Path(out_path).write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main())
