"""Start ``repro serve`` with the layer wrappers installed.

    python3 -m perfbench.launch TOTALS_DIR serve --port 0 ...

Every argument after ``TOTALS_DIR`` goes to ``repro.cli.main``.  On
SIGUSR1 the current layer totals are written to
``TOTALS_DIR/snapshot-<n>.json`` (n counts from 1); the totals at exit go
to ``TOTALS_DIR/final.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import threading
from pathlib import Path

from perfbench.layers import LayerTracer


def _write(tracer: LayerTracer, path: Path) -> None:
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    os.replace(partial, path)


def main(argv: list[str]) -> int:
    totals_dir, serve_argv = Path(argv[0]), argv[1:]
    tracer = LayerTracer().install()
    numbers = itertools.count(1)

    def on_signal(signum, frame) -> None:
        # The handler runs on the main thread between bytecodes; writing
        # from a thread of its own keeps it clear of any lock held there.
        path = totals_dir / f"snapshot-{next(numbers)}.json"
        threading.Thread(target=_write, args=(tracer, path)).start()

    signal.signal(signal.SIGUSR1, on_signal)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        _write(tracer, totals_dir / "final.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
