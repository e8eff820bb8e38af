"""Run one latticelight CLI call in this process and time it from outside.

Usage: python traced_cli.py REPORT_JSON TRACE{0,1} CLI_ARG...

Imports ``latticelight.cli`` (from PYTHONPATH), optionally installs the
tracer, times ``main(CLI_ARG...)`` and writes REPORT_JSON with the exit
code, the in-process time of ``main`` and, when tracing, the per-function
aggregates.  The exit code of ``main`` is passed through.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

from tracer import Tracer, install

LAYERS = ("walk", "dispersion", "bilinear", "fock", "output", "cli")

# work items behind one call, so per-item costs survive batching
ITEMS = {
    "walk.bloch_data": lambda k, *args, **kwargs: np.asarray(k).size // 3,
    "walk.step_power": lambda k, *args, **kwargs: np.asarray(k).size // 3,
    "bilinear.vector_tables": lambda profile, *args, **kwargs: len(profile.weights),
}


def main(argv):
    report_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    cli = importlib.import_module("latticelight.cli")
    tracer = None
    if trace:
        tracer = Tracer()
        layers = {name: importlib.import_module(f"latticelight.{name}") for name in LAYERS}
        package = importlib.import_module("latticelight")
        install(tracer, layers, [package, *layers.values()], ITEMS)
    start = time.perf_counter()
    code = cli.main(cli_args)
    elapsed = time.perf_counter() - start
    report = {"exit": code, "in_process_s": elapsed}
    if tracer is not None:
        report["functions"] = tracer.functions()
        report["edges"] = tracer.edge_list()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
