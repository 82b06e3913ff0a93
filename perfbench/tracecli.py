"""`python -m morgandk` under the layer tracer.

Usage: tracecli.py DUMP ARGS...  runs the command line ARGS as
`python -m morgandk ARGS` would, then writes the tracer's counters and
spans to the JSON file DUMP, also when the command raises.
"""

import json
import sys

import layertrace
import morgandk.cli


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return morgandk.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(dump, "w") as f:
            json.dump({"counters": tracer.counters(),
                       "spans": tracer.span_records()}, f)


if __name__ == "__main__":
    sys.exit(main())
