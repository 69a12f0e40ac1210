"""A traced `python -m azsperner` for the cli workload's traced run.

Usage: cli_shim.py SPAN_FILE ARGS...  Imports networkx and azsperner inside
spans, instruments the package (tracing.instrument), runs azsperner.cli.main
on ARGS as one "op" span, and writes the spans to SPAN_FILE even when main
raises.  Exit status and output are those of the untraced command.
"""

import json
import sys

from tracing import Tracer, instrument, traced_import


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        traced_import(tracer)
        instrument(tracer)
        import azsperner.cli

        tracer.phase = "op"
        idx = tracer.open("op.cli")
        try:
            return azsperner.cli.main(argv)
        finally:
            tracer.close(idx)
    finally:
        with open(span_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
