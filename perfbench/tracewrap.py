"""``python -m repro`` with spans: ``python3 tracewrap.py serve ...``.

Installs :mod:`tracer` at import time, so a process spawned from this
one by ``multiprocessing`` (which re-imports the parent's main module as
``__mp_main__``) is traced too: shard workers record their spans like
the router that spawned them.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402

_TRACER = tracer.install(os.environ["PERFBENCH_TRACE_DIR"])

if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
