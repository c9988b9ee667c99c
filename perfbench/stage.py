"""Run one codechain CLI stage in this process and write what it cost.

    python3 stage.py SRC_DIR RESULT_JSON RUN_ID TRACE -- CLI_ARGS...

Imports ``codechain`` from SRC_DIR only, times ``codechain.cli.main``
on CLI_ARGS, and writes ``{"rc", "wall_s", "peak_rss_mb"}`` to
RESULT_JSON. With TRACE=1 the public functions of the program's modules
are wrapped first (see spans.py) and the recorded spans are added under
``"spans"``. The peak RSS is this whole process's, interpreter included.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, run_id, trace = argv[:4]
    if argv[4] != "--":
        raise SystemExit("usage: stage.py SRC_DIR RESULT_JSON RUN_ID TRACE -- CLI_ARGS...")
    cli_args = argv[5:]
    sys.path.insert(0, src)
    from codechain import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"codechain was imported from {cli.__file__}, not from {src}")
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(cli_args)
    wall_s = time.perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
