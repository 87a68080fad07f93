"""Traced service bootstrap: ``serve`` with the layer wrappers installed.

Installs the same span-stack wrappers as the in-process traced runs,
then serves exactly what ``tibfit-repro serve`` serves (same session
template, ephemeral port, same startup line).  On SIGUSR1 it prints
its layer totals so far as one JSON line; on SIGINT it shuts down,
prints the final totals and writes its spans under ``traces/``.

Run from a checkout: ``python -u perfbench/server_boot.py``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    from layers import Tracer
    from service import service_config

    tracer = Tracer().install()
    from repro.service import http_api

    config = service_config()
    server, _ = http_api.serve(config, port=0)

    def report_totals(signum, frame) -> None:
        print(json.dumps(tracer.totals()), flush=True)

    signal.signal(signal.SIGUSR1, report_totals)
    host, port = server.server_address[:2]
    print(f"tibfit-repro serving {config.mode} sessions on "
          f"http://{host}:{port} (traced)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print(json.dumps(tracer.totals()), flush=True)
    tracer.dump_spans(HERE / "traces" / f"service_http-server-{os.getpid()}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
