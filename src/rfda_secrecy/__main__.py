"""Process entry point of ``python -m rfda_secrecy`` and the ``rfda-secrecy`` script."""

import gc
import sys


def run() -> None:
    """Import the CLI with the collector off, freeze what the import built, then run it.

    The modules, functions and classes that the import builds live until the
    process exits. Moved to the permanent generation by ``gc.freeze()``, they
    are never traversed again, neither by a collection while the command runs
    nor by the final one at exit. The collector is back on before ``main``
    starts. In-process callers of ``cli.main`` (the tests, embedding code) do
    not freeze.
    """
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    run()
