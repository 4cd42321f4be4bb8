"""Run ``python -m repro <args>`` in this process, optionally traced.

Usage: ``serve_host.py [--spans FILE] -- serve --port 0 ...``

With ``--spans``, the layer wrappers of :mod:`tracing` are installed
before the daemon starts (each job run is a request root) and the spans
are written to FILE once the daemon has drained and ``main`` returned.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    recorder = None
    if spans:
        import tracing
        recorder = tracing.Recorder(id_base=10 ** 9)
        tracing.install(recorder, daemon=True)
    from repro.__main__ import main as repro_main
    code = repro_main(argv)
    if recorder is not None:
        recorder.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
