"""``python -m repro.cli`` with the layer probes installed.

The traced run starts its CLI calls and remote workers as
``python perfbench/boot.py <cli arguments>`` instead, with
``PERFBENCH_TRACE_DIR`` set: the import of ``repro.cli`` is timed as the
``cli.import`` span and every probed layer call in the process writes a
span (see ``probes.py``).
"""

import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402

imported = time.perf_counter()

import probes  # noqa: E402  (this script's directory is sys.path[0])

probes.install_from_env()
probes.record("cli.import", started, imported)
sys.exit(repro.cli.main(sys.argv[1:]))
