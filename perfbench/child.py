"""One benchmark run: a fresh process that executes a fracflow subcommand.

    python3 perfbench/child.py TIMING_JSON [--spans SPANS_JSON --run-id K] -- FRACFLOW_ARGS...

The child imports ``fracflow`` from the checkout's ``src/``, parses the
subcommand's config and builds the workload's grid once; the moment that
``build_grid`` returns is written to TIMING_JSON (as ``time.monotonic()``,
the clock the parent timed the spawn with) and ends set-up.  It then runs
``fracflow.cli.main`` on FRACFLOW_ARGS and exits with its return code.
With ``--spans`` the public functions of each fracflow module are wrapped
by ``tracer.Tracer`` before anything runs, and the spans are written to
SPANS_JSON when ``main`` returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _split(argv: list[str]) -> tuple[str, str | None, int, list[str]]:
    sep = argv.index("--")
    own, fracflow_args = argv[:sep], argv[sep + 1:]
    timing = own[0]
    spans = own[own.index("--spans") + 1] if "--spans" in own else None
    run_id = int(own[own.index("--run-id") + 1]) if "--run-id" in own else 0
    return timing, spans, run_id, fracflow_args


def main(argv: list[str]) -> int:
    timing_path, spans_path, run_id, args = _split(argv)
    import fracflow
    import fracflow.cli as cli

    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer(run_id)
        tracer.install()

    config = args[args.index("--config") + 1]
    cfg = cli.load_config(config, need_ic=args[0] != "welldepth")
    fracflow.build_grid(cfg.model)
    setup_done = time.monotonic()

    rc = cli.main(args)
    if tracer is not None:
        tracer.write(spans_path)
    Path(timing_path).write_text(json.dumps({"setup_done": setup_done}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
