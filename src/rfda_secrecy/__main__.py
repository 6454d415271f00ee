"""Process entry point of ``python -m rfda_secrecy`` and the ``rfda-secrecy`` script."""

import gc
import sys


def run() -> None:
    """Run the command line with the collector off, then freeze the heap and exit.

    Everything still alive when ``cli.main`` returns (the modules the command
    imported, the parser, the command's own results) lives until the process
    exits. Once ``gc.freeze()`` has moved it to the permanent generation, the
    final collection at exit walks none of it; this holds for ``--help``,
    ``--version`` and a usage error too. The cyclic garbage that a command
    leaves does not grow with its trials or ``--beta-seeds``, so the command
    runs without the collector. In-process callers of ``cli.main`` (the
    tests, embedding code) neither disable the collector nor freeze.
    """
    gc.disable()
    try:
        from .cli import main
        code = main()
        gc.freeze()
    finally:
        gc.enable()
    sys.exit(code)


if __name__ == "__main__":
    run()
