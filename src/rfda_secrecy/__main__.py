"""Process entry point of ``python -m rfda_secrecy`` and the ``rfda-secrecy`` script."""

import gc
import importlib
import sys


def run() -> None:
    """Parse the command line, import what its command runs on, freeze that heap, then run it.

    Parsing loads no numerics, so ``--help``, ``--version`` and a usage error
    exit before numpy is imported. Otherwise the collector is off while the
    command's modules load; everything that import built lives until the
    process exits, and once ``gc.freeze()`` has moved it to the permanent
    generation it is never traversed again, neither by a collection while the
    command runs nor by the final one at exit. The collector is back on before
    the command starts. In-process callers of ``cli.main`` (the tests,
    embedding code) do not freeze.
    """
    gc.disable()
    try:
        from .cli import dispatch, handler_modules, parse
        args = parse()
        for name in handler_modules(args):
            importlib.import_module(name)
        gc.freeze()
    finally:
        gc.enable()
    sys.exit(dispatch(args))


if __name__ == "__main__":
    run()
