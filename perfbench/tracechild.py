"""Run one CLI call with spans on; used by the traced cli-cold run.

    python3 perfbench/tracechild.py <span-file> <cli arguments...>

Behaves like `python -m entrecovery.cli <cli arguments...>` (same stdout,
same exit status) and writes the call's span totals and its package import
time as JSON to <span-file>.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from entrecovery import cli
    import_ms = (time.perf_counter() - t0) * 1000.0

    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        status = cli.main(argv)
    sys.stdout.flush()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"stats": tracer.stats, "import_ms": import_ms}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
