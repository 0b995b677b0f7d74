"""`python -m monadcalc` with the layer tracer installed.

Usage: python3 traced_cli.py SUMMARY.json <monadcalc arguments...>

Runs the CLI exactly as ``python -m monadcalc`` would, then writes the
tracer's per-layer summary to SUMMARY.json.  Worker processes of
``batch --jobs N`` are forked from this process and are not traced.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    import monadcalc.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = monadcalc.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
