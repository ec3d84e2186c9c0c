"""Run the ``cluseq`` CLI with the benchmark's layer spans installed.

The traced serve workloads start the server through this script instead
of ``python -m repro.cli``, so the same wrappers as in the in-process
workloads time the server's layers. The spans are written as JSONL when
the CLI returns (``cluseq serve`` returns on SIGTERM)::

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py SPANS.jsonl \\
        serve MODEL --port 0 --ready-file READY
"""

from __future__ import annotations

import sys

from spans import Tracer, write_jsonl


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: serve_traced.py SPANS_OUT CLI_ARGS...", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        write_jsonl(tracer.spans, spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
