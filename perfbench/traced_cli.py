"""Run one tribcount CLI command under the span tracer.

    python perfbench/traced_cli.py SPANS_FILE ARG...

behaves like ``python -m tribcount.cli ARG...`` and, when the command has
finished, writes the recorded spans and call counts to SPANS_FILE as JSON.
"""

import json
import sys

from tribcount import cli

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        code = cli.main(argv)
    finally:
        tracer.on = False
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
