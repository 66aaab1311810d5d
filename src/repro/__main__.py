"""``python -m repro`` — the campaign orchestration CLI."""

import os
import sys

from repro.run.cli import main


def _run() -> int:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro run ... | head -1``). Point stdout
        # at devnull so the interpreter's final flush cannot fail again,
        # and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(_run())
