"""Run one gexlab CLI command with layer tracing and write its spans.

Usage: python3 gexbench/traced_cli.py SPANS_JSON -- SUBCOMMAND [ARGS...]

Behaves like ``python -m gexlab SUBCOMMAND [ARGS...]`` (same output, same
exit code) and also writes the spans of the call, including one for the
package import, to SPANS_JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import tracing


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = tracing.Tracer()
    t0 = perf_counter()
    import gexlab.cli

    tracer.add_span("import.in_child", t0, perf_counter())
    tracer.install()
    try:
        return gexlab.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
