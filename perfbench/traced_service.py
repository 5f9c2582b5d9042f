"""Run ``python -m repro.service`` with the benchmark's span wrappers.

Usage: ``PERFBENCH_SPANS=<dir> python perfbench/traced_service.py
<repro.service arguments>``.  The server process installs the service
wrappers and writes its spans when the service exits.  Spawned pool
workers re-import this file as ``__mp_main__``; the ``else`` branch then
installs the worker wrappers before the first task is unpickled.
"""

import sys

import tracer

if __name__ == "__main__":
    from repro.service.__main__ import build_parser, main

    args = sys.argv[1:]
    tracer.install_service(build_parser().parse_args(args).workers)
    try:
        status = main(args)
    finally:
        tracer.flush()
    sys.exit(status)
else:
    tracer.install_worker()
