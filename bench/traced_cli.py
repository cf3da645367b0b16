"""Run one liepowers CLI invocation with the layer tracer installed.

    python3 bench/traced_cli.py TRACE_JSON liepowers-arguments...

The invocation behaves as ``python3 -m liepowers.cli arguments...`` and
exits with its code; the per-group counters go to TRACE_JSON.
"""

import json
import sys

from tracer import Tracer


def main(argv):
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import liepowers.cli

    code = liepowers.cli.main(args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
